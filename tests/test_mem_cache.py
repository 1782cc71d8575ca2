"""Tests for the exact cache simulator and the analytic locality model."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, SimulationError
from repro.mem import (
    GDDR5,
    AddressGather,
    AddressWalk,
    LocalityProfile,
    MemoryHierarchy,
    SetAssociativeCache,
    estimate_hit_rate,
    estimate_hits,
    profile_lines,
    profile_lines_reference,
    row_hit_fraction,
)
from repro.mem.coalescer import SECTOR_BYTES, coalesce_stream, coalesce_warp
from repro.mem.locality import BITMAP_SPAN_FACTOR
from repro.obs import make_observability
from tests.test_mem_coalescer import ORDERS, gathers, ordered, walks


class TestSetAssociativeCache:
    def test_cold_miss_then_hit(self):
        cache = SetAssociativeCache(capacity_bytes=1024, line_bytes=64, ways=2)
        assert cache.access_line(5) is False
        assert cache.access_line(5) is True
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_within_set(self):
        # 2-way cache with 2 sets: lines 0, 2, 4 all map to set 0.
        cache = SetAssociativeCache(capacity_bytes=256, line_bytes=64, ways=2)
        cache.access_line(0)
        cache.access_line(2)
        cache.access_line(4)  # evicts line 0 (LRU)
        assert cache.access_line(2) is True
        assert cache.access_line(0) is False
        assert cache.stats.evictions >= 1

    def test_lru_updated_on_hit(self):
        cache = SetAssociativeCache(capacity_bytes=256, line_bytes=64, ways=2)
        cache.access_line(0)
        cache.access_line(2)
        cache.access_line(0)  # refresh 0; now 2 is LRU
        cache.access_line(4)  # evicts 2
        assert cache.access_line(0) is True
        assert cache.access_line(2) is False

    def test_working_set_fits_entirely(self):
        cache = SetAssociativeCache(capacity_bytes=64 * 1024, line_bytes=64, ways=16)
        lines = np.arange(256)
        cache.access_lines(lines)
        hits = cache.access_lines(lines)
        assert hits == 256

    def test_streaming_never_hits(self):
        cache = SetAssociativeCache(capacity_bytes=4096, line_bytes=64, ways=4)
        hits = cache.access_lines(np.arange(10_000))
        assert hits == 0

    def test_access_addresses_converts_to_lines(self):
        cache = SetAssociativeCache(capacity_bytes=4096, line_bytes=64, ways=4)
        cache.access_addresses(np.array([0, 4, 8]))  # same 64-B line
        assert cache.stats.hits == 2

    def test_reset(self):
        cache = SetAssociativeCache(capacity_bytes=4096, line_bytes=64, ways=4)
        cache.access_line(1)
        cache.reset()
        assert cache.resident_lines == 0
        assert cache.stats.accesses == 0

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(capacity_bytes=100, line_bytes=64, ways=3)

    def test_nonpositive_params_rejected(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(capacity_bytes=0, line_bytes=64, ways=2)

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(capacity_bytes=3 * 64 * 2, line_bytes=64, ways=2)


class TestBatchedMatchesScalar:
    """access_lines must be behaviorally identical to per-line access_line."""

    @staticmethod
    def replay_scalar(cache: SetAssociativeCache, lines: np.ndarray) -> int:
        return sum(cache.access_line(int(line)) for line in lines)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_random_streams(self, seed):
        rng = np.random.default_rng(seed)
        lines = rng.integers(0, 64, size=500)
        scalar = SetAssociativeCache(capacity_bytes=2048, line_bytes=64, ways=2)
        batched = SetAssociativeCache(capacity_bytes=2048, line_bytes=64, ways=2)
        scalar_hits = self.replay_scalar(scalar, lines)
        batched_hits = batched.access_lines(lines)
        assert batched_hits == scalar_hits
        assert vars(batched.stats) == vars(scalar.stats)
        # residency is identical too: any future probe behaves the same
        probes = rng.integers(0, 64, size=100)
        assert batched.access_lines(probes) == self.replay_scalar(scalar, probes)

    def test_interleaved_batched_and_scalar_calls(self):
        lines = np.array([0, 2, 4, 2, 0, 6, 4, 0])
        a = SetAssociativeCache(capacity_bytes=256, line_bytes=64, ways=2)
        b = SetAssociativeCache(capacity_bytes=256, line_bytes=64, ways=2)
        a.access_lines(lines[:4])
        for line in lines[4:]:
            a.access_line(int(line))
        b_hits = self.replay_scalar(b, lines)
        assert a.stats.hits == b_hits
        assert vars(a.stats) == vars(b.stats)

    def test_empty_batch_is_a_no_op(self):
        cache = SetAssociativeCache(capacity_bytes=256, line_bytes=64, ways=2)
        assert cache.access_lines(np.array([], dtype=np.int64)) == 0
        assert cache.stats.accesses == 0


class TestMatrixReplayMatchesReference:
    """The across-set matrix replay is pinned byte-identical — tags,
    ages, way placement, and stats — to ``access_lines_reference``."""

    @staticmethod
    def assert_equivalent(lines, *, calls=1, ways=2, capacity=2048):
        vec = SetAssociativeCache(capacity_bytes=capacity, line_bytes=64, ways=ways)
        ref = SetAssociativeCache(capacity_bytes=capacity, line_bytes=64, ways=ways)
        for _ in range(calls):
            assert vec.access_lines(lines) == ref.access_lines_reference(lines)
        assert np.array_equal(vec._tags, ref._tags)
        assert np.array_equal(vec._ages, ref._ages)
        assert vars(vec.stats) == vars(ref.stats)
        assert vec._clock == ref._clock

    def test_empty(self):
        self.assert_equivalent(np.array([], dtype=np.int64))

    def test_single_element(self):
        self.assert_equivalent(np.array([42], dtype=np.int64))

    def test_all_same_set_collisions(self):
        # num_sets = 16: every multiple of 16 maps to set 0, with more
        # distinct lines than ways — continuous thrash in one set.
        lines = (np.arange(200) % 5) * 16
        self.assert_equivalent(lines)

    def test_all_same_line(self):
        self.assert_equivalent(np.full(100, 7, dtype=np.int64))

    def test_repeated_calls_share_state(self):
        rng = np.random.default_rng(17)
        self.assert_equivalent(rng.integers(0, 64, size=300), calls=3)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_fuzz(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 400))
        span = int(rng.choice([8, 64, 4096]))
        ways = int(rng.choice([1, 2, 8]))
        self.assert_equivalent(
            rng.integers(0, span, size=n), ways=ways, capacity=64 * 64 * ways
        )


class TestSectorToLineGranularity:
    """CoalesceResult sector ids vs wider cache lines (the 32 B/128 B bug)."""

    @staticmethod
    def result_for(addresses):
        return coalesce_stream(np.asarray(addresses, dtype=np.int64))

    def test_identity_when_granularities_match(self):
        result = self.result_for([0, 32, 64])
        assert np.array_equal(
            result.cache_line_ids(SECTOR_BYTES), result.line_ids
        )

    def test_sectors_collapse_into_wider_lines(self):
        # 32 consecutive sectors = 1024 B = exactly eight 128 B lines.
        result = self.result_for(np.arange(32) * SECTOR_BYTES)
        line_ids = result.cache_line_ids(128)
        assert result.line_ids.size == 32
        assert len(np.unique(line_ids)) == 8

    def test_narrower_or_misaligned_lines_rejected(self):
        result = self.result_for([0, 32])
        with pytest.raises(SimulationError):
            result.cache_line_ids(16)
        with pytest.raises(SimulationError):
            result.cache_line_ids(48)

    def test_access_coalesced_pins_hit_rate(self):
        # Regression pin: sector ids fed into a 128 B-line cache used to
        # be treated as line ids, spreading one line's sectors over four
        # distinct lines (4x the working set, zero sector-local reuse).
        result = self.result_for(np.arange(32) * SECTOR_BYTES)
        cache = SetAssociativeCache(
            capacity_bytes=4096, line_bytes=128, ways=4
        )
        hits = cache.access_coalesced(result)
        # 8 distinct 128 B lines, 4 sectors each: 8 cold misses, 24 hits.
        assert hits == 24
        assert cache.stats.accesses == 32
        assert cache.stats.hit_rate == pytest.approx(0.75)
        # The buggy path (raw sector ids) would have been all misses.
        buggy = SetAssociativeCache(
            capacity_bytes=4096, line_bytes=128, ways=4
        )
        assert buggy.access_lines(result.line_ids) == 0


class TestLocalityProfile:
    def test_profile_counts_unique(self):
        profile = profile_lines(np.array([1, 1, 2, 3, 3, 3]))
        assert profile.accesses == 6
        assert profile.unique_lines == 3
        assert profile.reuses == 3

    def test_empty_profile(self):
        profile = profile_lines(np.array([], dtype=np.int64))
        assert profile.accesses == 0
        assert estimate_hit_rate(profile, 1024, 64) == 0.0

    def test_fitting_working_set_hits_all_reuses(self):
        profile = LocalityProfile(accesses=1000, unique_lines=10)
        rate = estimate_hit_rate(profile, capacity_bytes=64 * 1024, line_bytes=64)
        assert rate == pytest.approx(990 / 1000)

    def test_oversized_working_set_scales_down(self):
        # Working set 4x capacity: ~1/4 of reuses hit.
        profile = LocalityProfile(accesses=2000, unique_lines=1000)
        rate = estimate_hit_rate(profile, capacity_bytes=250 * 64, line_bytes=64)
        assert rate == pytest.approx((1000 * 0.25) / 2000, rel=0.01)

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigError):
            estimate_hit_rate(LocalityProfile(1, 1), 0, 64)


class TestProfileLinesMatchesReference:
    """Every counting path of ``profile_lines`` equals the ``np.unique``
    reference exactly."""

    @staticmethod
    def assert_same(line_ids):
        expected = profile_lines_reference(line_ids)
        assert profile_lines(line_ids) == expected
        if line_ids.size:
            # what a coalescer may pass on: the bounds, and "sorted" when
            # it knows (False also stands for "not known")
            bounds = (int(line_ids.min()), int(line_ids.max()))
            is_sorted = bool((line_ids[1:] >= line_ids[:-1]).all())
            for ids_sorted in {is_sorted, False}:
                for hint in (bounds, None):
                    assert (
                        profile_lines(line_ids, ids_sorted=ids_sorted, bounds=hint)
                        == expected
                    )

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("order", ORDERS)
    def test_tiny_streams(self, n, order):
        self.assert_same(ordered([7, 3][:n], order))

    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 12), max_size=300),
        st.sampled_from(ORDERS),
    )
    @settings(max_examples=200, deadline=None)
    def test_dense_span(self, raw, order):
        self.assert_same(ordered(raw, order))

    @given(
        st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40), max_size=300),
        st.sampled_from(ORDERS),
    )
    @settings(max_examples=200, deadline=None)
    def test_wide_span(self, raw, order):
        self.assert_same(ordered(raw, order))

    def test_sparse_wide_span_takes_unique_fallback(self):
        ids = np.array([5, 1 << 40, 5, 3, 1 << 33, 3], dtype=np.int64)
        span = int(ids.max()) - int(ids.min()) + 1
        assert span > BITMAP_SPAN_FACTOR * ids.size  # not the bitmap path
        assert (np.diff(ids) < 0).any()  # not the sorted path
        self.assert_same(ids)
        assert profile_lines(ids).unique_lines == 4

    def test_unsorted_dense_span_takes_bitmap(self):
        ids = np.array([9, 2, 9, 4, 2, 7], dtype=np.int64)
        assert int(ids.max()) - int(ids.min()) + 1 <= BITMAP_SPAN_FACTOR * ids.size
        self.assert_same(ids)
        assert profile_lines(ids).unique_lines == 4


class TestHierarchyPricesWalksExactly:
    """A walk's closed-form span gives the hierarchy the same
    ``MemoryStats`` as its materialized addresses."""

    @given(
        walks,
        st.sampled_from([16, 32, 64]),
        st.sampled_from([1, 2, 4]),
        st.sampled_from([256, 2048, 8192]),
        st.sampled_from([1 << 10, 1 << 20]),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=16),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_process(
        self, walk, sector_bytes, sectors_per_line, row_bytes, capacity,
        warp_size, merge_window, l2_bypass,
    ):
        hierarchy = MemoryHierarchy(
            l2_capacity_bytes=capacity,
            dram=dataclasses.replace(GDDR5, row_bytes=row_bytes),
            l2_line_bytes=sector_bytes * sectors_per_line,
        )
        for coalesce, kwargs in (
            (coalesce_warp, dict(warp_size=warp_size)),
            (coalesce_stream, dict(merge_window=merge_window)),
        ):
            kwargs["sector_bytes"] = sector_bytes
            closed = hierarchy.process(coalesce(walk, **kwargs), l2_bypass=l2_bypass)
            materialized = hierarchy.process(
                coalesce(walk.materialize(), **kwargs), l2_bypass=l2_bypass
            )
            assert closed == materialized

    def test_narrower_l2_line_rejected_on_the_span_path(self):
        hierarchy = MemoryHierarchy(
            l2_capacity_bytes=1 << 20, dram=GDDR5, l2_line_bytes=16
        )
        result = coalesce_warp(AddressWalk(0, 64, 4))
        assert result.span is not None
        with pytest.raises(SimulationError):
            hierarchy.process(result)

    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 14), max_size=300),
        st.sampled_from(ORDERS),
        st.sampled_from([256, 2048]),
    )
    @settings(max_examples=200, deadline=None)
    def test_row_hit_fraction_is_the_bool_mean(self, raw, order, row_bytes):
        ids = ordered(raw, order)
        rows = ids // (row_bytes // SECTOR_BYTES)
        expected = 0.5 if ids.size < 2 else float(np.mean(rows[1:] == rows[:-1]))
        assert row_hit_fraction(ids, row_bytes=row_bytes) == expected


class TestHierarchyPricesGathersOnce:
    """A gather's memoized pricing gives the hierarchy the same
    ``MemoryStats`` as its materialized addresses, on every call."""

    @given(
        gathers,
        st.sampled_from([1, 2, 4]),
        st.sampled_from([256, 2048]),
        st.sampled_from([1 << 10, 1 << 20]),
        st.integers(min_value=1, max_value=40),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_process(
        self, gather, sectors_per_line, row_bytes, capacity, warp_size, l2_bypass
    ):
        hierarchy = MemoryHierarchy(
            l2_capacity_bytes=capacity,
            dram=dataclasses.replace(GDDR5, row_bytes=row_bytes),
            l2_line_bytes=SECTOR_BYTES * sectors_per_line,
        )
        for coalesce, kwargs in (
            (coalesce_warp, dict(warp_size=warp_size)),
            (coalesce_stream, dict(merge_window=warp_size)),
        ):
            materialized = hierarchy.process(
                coalesce(gather.materialize(), **kwargs), l2_bypass=l2_bypass
            )
            for _ in range(2):
                result = coalesce(gather, **kwargs)
                assert hierarchy.process(result, l2_bypass=l2_bypass) == materialized

    def test_repeated_process_reads_the_memo(self, monkeypatch):
        rng = np.random.default_rng(5)
        gather = AddressGather(1 << 16, 4, rng.integers(0, 1 << 14, size=5000))
        hierarchy = MemoryHierarchy(l2_capacity_bytes=1 << 14, dram=GDDR5)
        first = hierarchy.process(coalesce_warp(gather))

        def unreachable(*args, **kwargs):
            raise AssertionError("a memoized gather was profiled again")

        monkeypatch.setattr("repro.mem.hierarchy.profile_lines", unreachable)
        monkeypatch.setattr("repro.mem.hierarchy.row_hit_fraction", unreachable)
        for _ in range(3):
            assert hierarchy.process(coalesce_warp(gather)) == first
        # Another hierarchy geometry is priced on its own, through the
        # line ids the memoized result rebuilds.
        monkeypatch.undo()
        wide = MemoryHierarchy(
            l2_capacity_bytes=1 << 14, dram=GDDR5, l2_line_bytes=128
        )
        assert wide.process(coalesce_warp(gather)) == wide.process(
            coalesce_warp(gather.materialize())
        )

    def test_obs_counters_advance_per_call(self):
        rng = np.random.default_rng(6)
        gather = AddressGather(0, 4, rng.integers(0, 1 << 12, size=3000))
        snapshots = []
        for stream in (gather, gather.materialize()):
            obs = make_observability()
            hierarchy = MemoryHierarchy(l2_capacity_bytes=1 << 13, dram=GDDR5, obs=obs)
            for _ in range(3):
                hierarchy.process(coalesce_warp(stream))
            snapshots.append(obs.metrics.snapshot())
        assert snapshots[0]["mem.l2.transactions"]["series"][0]["value"] > 0
        assert snapshots[0] == snapshots[1]


class TestEstimatorAgainstSimulator:
    """The analytic model must track the exact simulator across regimes."""

    @pytest.mark.parametrize(
        "unique_lines,capacity_lines",
        [(64, 256), (256, 256), (512, 256), (2048, 256)],
    )
    def test_uniform_reuse_stream(self, unique_lines, capacity_lines):
        rng = np.random.default_rng(7)
        lines = rng.integers(0, unique_lines, size=20_000)
        cache = SetAssociativeCache(
            capacity_bytes=capacity_lines * 64, line_bytes=64, ways=16
        )
        simulated_hits = cache.access_lines(lines)
        estimated = estimate_hits(lines, capacity_lines * 64, 64)
        # Within 10 percentage points of hit rate across all regimes.
        assert abs(simulated_hits - estimated) / lines.size < 0.10

    @given(st.integers(min_value=1, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_estimate_never_exceeds_reuses(self, unique):
        rng = np.random.default_rng(unique)
        lines = rng.integers(0, unique, size=2000)
        profile = profile_lines(lines)
        hits = estimate_hits(lines, 128 * 64, 64)
        assert hits <= profile.reuses
