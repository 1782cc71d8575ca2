"""Tests for the warp and stream coalescing models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.mem import (
    GDDR5,
    SECTOR_BYTES,
    AddressGather,
    AddressWalk,
    WARP_SIZE,
    coalesce_stream,
    coalesce_stream_reference,
    coalesce_warp,
    coalesce_warp_reference,
    MemoryHierarchy,
    gather_addresses,
    sequential_addresses,
)
from repro.mem.coalescer import EMPTY, IDS, WALK, _floor_sum


class TestWarpCoalescer:
    def test_fully_coalesced_warp_is_four_sectors(self):
        # 32 threads x 4-byte elements = 128 bytes = 4 sectors of 32 B.
        addrs = sequential_addresses(32, elem_bytes=4)
        result = coalesce_warp(addrs)
        assert result.transactions == 4
        assert result.coalescing_factor == 8.0

    def test_fully_divergent_warp(self):
        # Each thread hits its own sector: no merging possible.
        addrs = np.arange(32, dtype=np.int64) * SECTOR_BYTES
        result = coalesce_warp(addrs)
        assert result.transactions == 32
        assert result.coalescing_factor == 1.0

    def test_broadcast_warp_is_one_transaction(self):
        addrs = np.zeros(32, dtype=np.int64)
        result = coalesce_warp(addrs)
        assert result.transactions == 1

    def test_partial_last_warp(self):
        addrs = sequential_addresses(40, elem_bytes=4)  # 1 full + 1 partial warp
        result = coalesce_warp(addrs)
        assert result.accesses == 40
        assert result.transactions == 5  # 4 + 1

    def test_empty_stream(self):
        result = coalesce_warp(np.empty(0, dtype=np.int64))
        assert result.transactions == 0
        assert result.coalescing_factor == 0.0
        assert result.bytes_transferred == 0

    def test_active_mask_drops_lanes(self):
        addrs = np.arange(32, dtype=np.int64) * SECTOR_BYTES
        mask = np.zeros(32, dtype=bool)
        mask[:4] = True
        result = coalesce_warp(addrs, active_mask=mask)
        assert result.accesses == 4
        assert result.transactions == 4

    def test_mask_shape_checked(self):
        with pytest.raises(SimulationError):
            coalesce_warp(np.zeros(8, dtype=np.int64), active_mask=np.ones(4, dtype=bool))

    def test_line_ids_have_one_entry_per_transaction(self):
        addrs = sequential_addresses(64, elem_bytes=4)
        result = coalesce_warp(addrs)
        assert result.line_ids.size == result.transactions

    def test_bad_sector_bytes_rejected(self):
        with pytest.raises(SimulationError):
            coalesce_warp(np.zeros(4, dtype=np.int64), sector_bytes=48)

    def test_warps_do_not_merge_across_boundary(self):
        # Same sector touched by two different warps -> two transactions.
        addrs = np.zeros(64, dtype=np.int64)
        result = coalesce_warp(addrs)
        assert result.transactions == 2

    @given(
        st.lists(st.integers(min_value=0, max_value=2**20), min_size=1, max_size=256)
    )
    @settings(max_examples=50, deadline=None)
    def test_transactions_bounded(self, raw):
        addrs = np.asarray(raw, dtype=np.int64) * 4
        result = coalesce_warp(addrs)
        # Never more transactions than accesses; never fewer than ceil(n/32)
        # warps' worth of minimum 1 transaction each.
        assert result.transactions <= result.accesses
        assert result.transactions >= -(-len(raw) // 32)

    @given(st.integers(min_value=1, max_value=1024))
    @settings(max_examples=30, deadline=None)
    def test_sequential_walk_is_optimal(self, count):
        addrs = sequential_addresses(count, elem_bytes=4)
        result = coalesce_warp(addrs)
        sectors_per_warp = 32 * 4 // SECTOR_BYTES
        full, rem = divmod(count, 32)
        expected = full * sectors_per_warp + (-(-rem * 4 // SECTOR_BYTES) if rem else 0)
        assert result.transactions == expected


class TestStreamCoalescer:
    def test_sequential_stream_merges_within_window(self):
        # 8 consecutive 4-byte reads span one 32-B sector; window of 4 can
        # only merge runs of 4, so 8 accesses -> 2 transactions.
        addrs = sequential_addresses(8, elem_bytes=4)
        result = coalesce_stream(addrs, merge_window=4)
        assert result.transactions == 2

    def test_window_one_never_merges(self):
        addrs = np.zeros(16, dtype=np.int64)
        result = coalesce_stream(addrs, merge_window=1)
        assert result.transactions == 16

    def test_large_window_merges_repeats(self):
        addrs = np.zeros(16, dtype=np.int64)
        result = coalesce_stream(addrs, merge_window=32)
        assert result.transactions == 1

    def test_random_stream_rarely_merges(self):
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 1 << 30, size=4096) * SECTOR_BYTES
        result = coalesce_stream(addrs, merge_window=4)
        assert result.transactions > 4000

    def test_empty_stream(self):
        result = coalesce_stream(np.empty(0, dtype=np.int64))
        assert result.transactions == 0

    def test_bad_window_rejected(self):
        with pytest.raises(SimulationError):
            coalesce_stream(np.zeros(4, dtype=np.int64), merge_window=0)

    @pytest.mark.parametrize("sector_bytes", [48, 0, -32])
    def test_bad_sector_bytes_rejected(self, sector_bytes):
        with pytest.raises(SimulationError, match="power of two"):
            coalesce_stream(np.zeros(4, dtype=np.int64), sector_bytes=sector_bytes)

    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=200),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_wider_window_never_hurts(self, raw, window):
        addrs = np.asarray(raw, dtype=np.int64)
        narrow = coalesce_stream(addrs, merge_window=window)
        wide = coalesce_stream(addrs, merge_window=window + 4)
        assert wide.transactions <= narrow.transactions


ORDERS = ("increasing", "non-decreasing", "reversed", "random")


def ordered(values, order: str) -> np.ndarray:
    """``values`` as one of the stream shapes real runs produce (the
    locality tests in ``test_mem_cache`` share it)."""
    ids = np.asarray(values, dtype=np.int64)
    if order == "increasing":
        return np.unique(ids)
    if order == "non-decreasing":
        return np.sort(np.concatenate([ids, ids[: ids.size // 2]]))
    if order == "reversed":
        return np.sort(ids)[::-1].copy()
    return ids


def assert_same_result(fast, reference):
    assert fast.accesses == reference.accesses
    assert fast.transactions == reference.transactions
    assert fast.sector_bytes == reference.sector_bytes
    assert fast.line_ids.dtype == reference.line_ids.dtype
    np.testing.assert_array_equal(fast.line_ids, reference.line_ids)


#: Byte addresses: dense enough that sectors repeat, plus sparse ones.
addresses = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=1 << 10),
        st.integers(min_value=0, max_value=1 << 40),
    ),
    max_size=300,
)


class TestFastPathsMatchReference:
    """Each O(n) coalescer path returns exactly its ``*_reference``."""

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("order", ORDERS)
    def test_tiny_streams(self, n, order):
        addrs = ordered([96, 4][:n], order)
        assert_same_result(coalesce_warp(addrs), coalesce_warp_reference(addrs))
        for window in (1, 4):
            assert_same_result(
                coalesce_stream(addrs, merge_window=window),
                coalesce_stream_reference(addrs, merge_window=window),
            )

    @given(
        addresses,
        st.sampled_from(ORDERS),
        st.integers(min_value=1, max_value=40),
        st.sampled_from([4, 32, 128]),
    )
    @settings(max_examples=200, deadline=None)
    def test_warp(self, raw, order, warp_size, sector_bytes):
        addrs = ordered(raw, order)
        kwargs = dict(warp_size=warp_size, sector_bytes=sector_bytes)
        assert_same_result(
            coalesce_warp(addrs, **kwargs), coalesce_warp_reference(addrs, **kwargs)
        )

    @given(addresses, st.sampled_from(ORDERS), st.data())
    @settings(max_examples=200, deadline=None)
    def test_warp_with_active_mask(self, raw, order, data):
        addrs = ordered(raw, order)
        mask = np.asarray(
            data.draw(st.lists(st.booleans(), min_size=addrs.size, max_size=addrs.size)),
            dtype=bool,
        )
        assert_same_result(
            coalesce_warp(addrs, active_mask=mask),
            coalesce_warp_reference(addrs, active_mask=mask),
        )

    @pytest.mark.parametrize("masked", [False, True])
    def test_partial_last_warp(self, masked):
        addrs = sequential_addresses(45, elem_bytes=4)[::-1].copy()
        addrs = np.concatenate([sequential_addresses(40, elem_bytes=4), addrs])
        mask = np.arange(addrs.size) % 3 != 0 if masked else None
        for stream in (addrs, np.sort(addrs)):
            fast = coalesce_warp(stream, active_mask=mask)
            assert fast.accesses % WARP_SIZE  # the last warp is partial
            assert_same_result(fast, coalesce_warp_reference(stream, active_mask=mask))

    def test_negative_ids_match_reference_padding(self):
        # The reference pads partial warps with id -1 and drops that id;
        # the fast paths must agree even on (unphysical) negative addresses.
        for addrs in ([-32, -32, 0, 64], [64, -32, 0, -64, 32]):
            addrs = np.asarray(addrs, dtype=np.int64)
            assert_same_result(coalesce_warp(addrs), coalesce_warp_reference(addrs))

    @given(
        addresses,
        st.sampled_from(ORDERS),
        st.integers(min_value=1, max_value=16),
        st.sampled_from([4, 32, 128]),
    )
    @settings(max_examples=200, deadline=None)
    def test_stream(self, raw, order, merge_window, sector_bytes):
        addrs = ordered(raw, order)
        kwargs = dict(merge_window=merge_window, sector_bytes=sector_bytes)
        assert_same_result(
            coalesce_stream(addrs, **kwargs),
            coalesce_stream_reference(addrs, **kwargs),
        )

    @pytest.mark.parametrize("merge_window", range(1, 17))
    def test_stream_long_runs(self, merge_window):
        # Runs longer than the window split into ceil(run / window) transactions.
        addrs = np.repeat(np.array([0, 32, 0, 96], dtype=np.int64), [1, 7, 20, 33])
        assert_same_result(
            coalesce_stream(addrs, merge_window=merge_window),
            coalesce_stream_reference(addrs, merge_window=merge_window),
        )


#: Walks as the stream builders make them: an allocation base (aligned
#: to 256 bytes) plus an offset that is 0, one 4-byte element, or any
#: byte; element sizes straddle every sector size tested.
walks = st.builds(
    AddressWalk,
    base=st.builds(
        lambda block, offset: 256 * block + offset,
        st.integers(min_value=0, max_value=1 << 20),
        st.one_of(st.just(0), st.just(4), st.integers(min_value=0, max_value=255)),
    ),
    count=st.integers(min_value=0, max_value=300),
    elem_bytes=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
)


class TestWalksMatchMaterialized:
    """A walk coalesces exactly like its materialized addresses, whether
    it takes the closed form (kind ``WALK``) or falls back."""

    @given(walks, st.integers(min_value=1, max_value=40), st.sampled_from([16, 32, 64]))
    @settings(max_examples=300, deadline=None)
    def test_warp(self, walk, warp_size, sector_bytes):
        kwargs = dict(warp_size=warp_size, sector_bytes=sector_bytes)
        result = coalesce_warp(walk, **kwargs)
        assert (result.kinds[0] == WALK) == (
            walk.count > 0 and walk.elem_bytes <= sector_bytes
        )
        assert_same_result(result, coalesce_warp(walk.materialize(), **kwargs))

    @given(
        walks,
        st.integers(min_value=1, max_value=16),
        st.sampled_from([16, 32, 64]),
    )
    @settings(max_examples=300, deadline=None)
    def test_stream(self, walk, merge_window, sector_bytes):
        kwargs = dict(merge_window=merge_window, sector_bytes=sector_bytes)
        result = coalesce_stream(walk, **kwargs)
        per_sector = -(-sector_bytes // walk.elem_bytes)
        assert (result.kinds[0] == WALK) == (
            walk.count > 0
            and walk.elem_bytes <= sector_bytes
            and per_sector <= merge_window
        )
        assert_same_result(result, coalesce_stream(walk.materialize(), **kwargs))

    @pytest.mark.parametrize("elem_bytes", [3, 12, 24])
    @pytest.mark.parametrize("merge_window", [1, 2, 3, 11])
    def test_element_sizes_off_the_sector_grid(self, elem_bytes, merge_window):
        # ceil(sector / elem) elements can share a sector when the
        # element size does not divide it.
        for base in (0, 4, 31):
            walk = AddressWalk(base, 100, elem_bytes)
            assert_same_result(
                coalesce_stream(walk, merge_window=merge_window),
                coalesce_stream(walk.materialize(), merge_window=merge_window),
            )
            assert_same_result(coalesce_warp(walk), coalesce_warp(walk.materialize()))

    def test_negative_base_and_masked_walks_fall_back(self):
        walk = AddressWalk(-64, 40, 4)
        result = coalesce_warp(walk)
        assert result.kinds[0] == IDS
        assert_same_result(result, coalesce_warp_reference(walk.materialize()))
        mask = np.arange(40) % 3 != 0
        masked = coalesce_warp(AddressWalk(0, 40, 4), active_mask=mask)
        assert masked.kinds[0] == IDS
        assert_same_result(
            masked, coalesce_warp(sequential_addresses(40), active_mask=mask)
        )

    def test_invalid_walk_rejected(self):
        with pytest.raises(SimulationError):
            AddressWalk(0, -1, 4)
        with pytest.raises(SimulationError):
            AddressWalk(0, 4, 0)


#: Gathers into an allocation: repeated, sorted and scattered indices.
gathers = st.builds(
    AddressGather,
    base=st.integers(min_value=0, max_value=1 << 20).map(lambda block: 256 * block),
    elem_bytes=st.sampled_from([1, 4, 8, 32]),
    indices=st.one_of(
        st.lists(st.integers(min_value=0, max_value=400), max_size=300),
        st.lists(st.integers(min_value=0, max_value=400), max_size=300).map(sorted),
    ).map(lambda values: np.asarray(values, dtype=np.int64)),
)


class TestGathersMatchMaterialized:
    """A gather coalesces exactly like its materialized addresses, on
    every pricing; the coalescers leave memoizing to the stream log
    (``tests/test_launch_tally.py``), which alone knows the hierarchy."""

    @given(gathers, st.integers(min_value=1, max_value=40), st.sampled_from([16, 32, 64]))
    @settings(max_examples=200, deadline=None)
    def test_warp(self, gather, warp_size, sector_bytes):
        kwargs = dict(warp_size=warp_size, sector_bytes=sector_bytes)
        expected = coalesce_warp(gather.materialize(), **kwargs)
        for _ in range(2):
            result = coalesce_warp(gather, **kwargs)
            assert result.kinds[0] == (IDS if gather.size else EMPTY)
            assert_same_result(result, expected)
        assert not gather.memo

    @given(gathers, st.integers(min_value=1, max_value=16), st.sampled_from([16, 32, 64]))
    @settings(max_examples=200, deadline=None)
    def test_stream(self, gather, merge_window, sector_bytes):
        kwargs = dict(merge_window=merge_window, sector_bytes=sector_bytes)
        expected = coalesce_stream(gather.materialize(), **kwargs)
        for _ in range(2):
            assert_same_result(coalesce_stream(gather, **kwargs), expected)

    def test_each_parameter_set_is_priced_on_its_own(self):
        gather = AddressGather(0, 4, np.arange(0, 640, 3))
        log = MemoryHierarchy(l2_capacity_bytes=1 << 14, dram=GDDR5).log
        log.channel(coalesce_warp, warp_size=WARP_SIZE).record(gather)
        log.channel(coalesce_warp, warp_size=8).record(gather)
        log.channel(coalesce_stream, merge_window=8).record(gather)
        log.end_launch(lambda *priced: None)
        log.flush()
        line, row = SECTOR_BYTES, GDDR5.row_bytes
        assert set(gather.memo) == {
            ((("warp_size", WARP_SIZE),), line, row),
            ((("warp_size", 8),), line, row),
            ((("merge_window", 8),), line, row),
        }
        assert gather.memo[((("warp_size", 8),), line, row)][:2] == (
            gather.size,
            coalesce_warp(gather.materialize(), warp_size=8).transactions,
        )

    def test_masked_gather_is_materialized(self):
        gather = AddressGather(0, 4, np.arange(40)[::-1])
        mask = np.arange(40) % 3 != 0
        result = coalesce_warp(gather, active_mask=mask)
        log = MemoryHierarchy(l2_capacity_bytes=1 << 14, dram=GDDR5).log
        log.channel(coalesce_warp, warp_size=WARP_SIZE).record(gather, active_mask=mask)
        log.end_launch(lambda *priced: None)
        log.flush()
        assert not gather.memo
        assert_same_result(
            result, coalesce_warp(gather.materialize(), active_mask=mask)
        )


class TestAddressHelpers:
    def test_gather_addresses(self):
        addrs = gather_addresses(np.array([0, 10, 5]), base=100, elem_bytes=4)
        assert list(addrs) == [100, 140, 120]

    def test_sequential_rejects_negative(self):
        with pytest.raises(SimulationError):
            sequential_addresses(-1)


class TestWarpWalkClosedForm:
    """The integer form of a warp walk equals the reference on its
    addresses, including warp strides that are not a whole number of
    sectors (the floor-sum case)."""

    @given(
        st.integers(min_value=0, max_value=1 << 24),
        st.integers(min_value=0, max_value=400),
        st.sampled_from([1, 2, 4, 8, 12, 24, 32]),
        st.one_of(st.sampled_from([1, 7, 32, 48]), st.integers(min_value=1, max_value=64)),
        st.sampled_from([4, 8, 16, 32, 64, 128]),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, base, count, elem_bytes, warp_size, sector_bytes):
        walk = AddressWalk(base, count, elem_bytes)
        kwargs = dict(warp_size=warp_size, sector_bytes=sector_bytes)
        result = coalesce_warp(walk, **kwargs)
        assert (result.kinds[0] == WALK) == (count > 0 and elem_bytes <= sector_bytes)
        reference = coalesce_warp_reference(walk.materialize(), **kwargs)
        assert_same_result(result, reference)
        if result.kinds[0] == WALK:
            # the span the hierarchy prices from: the first and last ids
            ids = reference.line_ids
            assert (result.span_first[0], result.span_last[0]) == (ids[0], ids[-1])

    @pytest.mark.parametrize(
        "elem_bytes, warp_size, sector_bytes",
        [(12, 7, 32), (24, 7, 32), (4, 7, 32), (12, 7, 64), (1, 48, 32), (24, 48, 256)],
    )
    def test_strides_off_the_sector_grid(self, elem_bytes, warp_size, sector_bytes):
        assert (warp_size * elem_bytes) % sector_bytes  # the floor-sum case
        for base in (0, 4, 31, 1 << 20):
            for count in (1, warp_size, warp_size + 1, 5 * warp_size - 1, 1000):
                walk = AddressWalk(base, count, elem_bytes)
                kwargs = dict(warp_size=warp_size, sector_bytes=sector_bytes)
                assert (
                    coalesce_warp(walk, **kwargs).transactions
                    == coalesce_warp_reference(walk.materialize(), **kwargs).transactions
                )

    @given(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=1 << 20),
        st.integers(min_value=0, max_value=1 << 20),
    )
    @settings(max_examples=300, deadline=None)
    def test_floor_sum(self, n, m, a, b):
        assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


class TestCoalescerHints:
    """What a result says about its streams (kind, id segment) is true,
    so the hierarchy may price each stream from it."""

    @staticmethod
    def assert_hints_hold(result):
        ids = result.line_ids
        assert result.kinds[0] == (IDS if result.accesses else EMPTY)
        assert list(result.id_starts) == [0]
        assert result.stream_transactions[0] == ids.size == result.transactions

    @given(
        addresses,
        st.sampled_from(ORDERS),
        st.one_of(st.sampled_from([1, 7, 32, 48]), st.integers(min_value=1, max_value=64)),
        st.sampled_from([4, 32, 128]),
    )
    @settings(max_examples=300, deadline=None)
    def test_warp(self, raw, order, warp_size, sector_bytes):
        addrs = ordered(raw, order)
        kwargs = dict(warp_size=warp_size, sector_bytes=sector_bytes)
        result = coalesce_warp(addrs, **kwargs)
        assert_same_result(result, coalesce_warp_reference(addrs, **kwargs))
        self.assert_hints_hold(result)

    @given(addresses, st.sampled_from(ORDERS), st.integers(min_value=1, max_value=16))
    @settings(max_examples=200, deadline=None)
    def test_stream(self, raw, order, merge_window):
        addrs = ordered(raw, order)
        result = coalesce_stream(addrs, merge_window=merge_window)
        assert_same_result(result, coalesce_stream_reference(addrs, merge_window=merge_window))
        self.assert_hints_hold(result)

    @pytest.mark.parametrize("count", [1, 31, 32, 33, 95])
    def test_unsorted_partial_last_warp(self, count):
        # The padding lanes repeat the last lane: no extra transaction,
        # and the padding never shows in the ids.
        addrs = (np.arange(count, dtype=np.int64)[::-1] * 96) + 64
        result = coalesce_warp(addrs)
        assert_same_result(result, coalesce_warp_reference(addrs))
        self.assert_hints_hold(result)
        rows = np.arange(96, dtype=np.int64).reshape(3, WARP_SIZE)[:, ::-1] * 32
        result = coalesce_warp(rows.ravel()[:count])
        assert_same_result(result, coalesce_warp_reference(rows.ravel()[:count]))
        self.assert_hints_hold(result)
