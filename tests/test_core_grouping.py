"""Tests for cache-line grouping: vectorized == sequential reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HashTableConfig, group_order, group_order_reference, grouping_quality
from repro.errors import OperationError

TABLE = HashTableConfig("g", capacity_bytes=1024 * 32, ways=16, bytes_per_entry=32)
TINY_TABLE = HashTableConfig("g-tiny", capacity_bytes=4 * 32, ways=1, bytes_per_entry=32)


class TestGroupOrder:
    def test_is_permutation(self):
        rng = np.random.default_rng(0)
        blocks = rng.integers(0, 50, size=500)
        perm = group_order(blocks, TABLE)
        assert np.array_equal(np.sort(perm), np.arange(500))

    def test_same_block_elements_adjacent(self):
        # Interleaved blocks get clustered.
        blocks = np.array([1, 2, 1, 2, 1, 2])
        perm = group_order(blocks, TABLE)
        grouped = blocks[perm]
        # Each block's elements appear contiguously.
        changes = np.count_nonzero(grouped[1:] != grouped[:-1])
        assert changes == 1

    def test_group_size_bounds_runs(self):
        blocks = np.zeros(20, dtype=np.int64)
        perm = group_order(blocks, TABLE, group_size=8)
        # All elements same block: permutation exists, order preserved
        # within groups; flushed groups of 8, 8, 4 keep global order here.
        assert np.array_equal(np.sort(perm), np.arange(20))

    def test_arrival_order_within_group(self):
        blocks = np.array([7, 7, 7])
        perm = group_order(blocks, TABLE)
        assert list(perm) == [0, 1, 2]

    def test_empty(self):
        assert group_order(np.array([], dtype=np.int64), TABLE).size == 0

    def test_bad_group_size_rejected(self):
        with pytest.raises(OperationError):
            group_order(np.array([1]), TABLE, group_size=0)

    def test_2d_rejected(self):
        with pytest.raises(OperationError):
            group_order(np.zeros((2, 2), dtype=np.int64), TABLE)

    @given(
        st.lists(st.integers(min_value=0, max_value=25), min_size=0, max_size=300),
        st.one_of(
            st.sampled_from([1, 2, 4, 32, 512]),
            st.integers(min_value=1, max_value=1 << 31),
        ),
        st.sampled_from([1, 2, 8]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference(self, raw, entries, group_size):
        table = HashTableConfig("t", capacity_bytes=entries * 32, ways=1, bytes_per_entry=32)
        blocks = np.asarray(raw, dtype=np.int64)
        vec = group_order(blocks, table, group_size=group_size)
        ref = group_order_reference(blocks, table, group_size=group_size)
        assert np.array_equal(vec, ref)


class TestAdversarialEquivalence:
    """Edge cases for the ragged-gather fast path vs the dict reference."""

    @staticmethod
    def assert_equivalent(blocks, table=TABLE, group_size=8):
        blocks = np.asarray(blocks, dtype=np.int64)
        vec = group_order(blocks, table, group_size=group_size)
        ref = group_order_reference(blocks, table, group_size=group_size)
        assert np.array_equal(vec, ref)

    def test_single_element(self):
        self.assert_equivalent([9])

    def test_all_same_slot_different_blocks(self):
        # One-entry table: every block hashes to slot 0, so every block
        # change evicts — the maximal-conflict stream.
        one = HashTableConfig("one", capacity_bytes=32, ways=1, bytes_per_entry=32)
        self.assert_equivalent(np.arange(64) % 7, table=one)

    def test_all_same_block_overflowing_groups(self):
        for group_size in (1, 2, 8):
            self.assert_equivalent(np.zeros(33, dtype=np.int64), group_size=group_size)

    def test_group_size_one(self):
        rng = np.random.default_rng(3)
        self.assert_equivalent(rng.integers(0, 10, size=100), group_size=1)

    @pytest.mark.parametrize("seed", range(12))
    def test_fuzz_fixed_seeds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 500))
        span = int(rng.choice([1, 4, 64, 10_000]))
        entries = int(rng.choice([1, 2, 16, 1024]))
        table = HashTableConfig(
            "fuzz", capacity_bytes=entries * 32, ways=1, bytes_per_entry=32
        )
        group_size = int(rng.choice([1, 3, 8]))
        self.assert_equivalent(
            rng.integers(0, span, size=n), table=table, group_size=group_size
        )


class TestGroupingImprovesLocality:
    def test_quality_improves_on_shuffled_stream(self):
        rng = np.random.default_rng(1)
        # 64 cache lines, 16 edges each, fully shuffled.
        blocks = rng.permutation(np.repeat(np.arange(64), 16))
        perm = group_order(blocks, TABLE)
        before = grouping_quality(blocks, np.arange(blocks.size))
        after = grouping_quality(blocks, perm)
        assert after > before + 0.3

    def test_tiny_table_degrades_gracefully(self):
        rng = np.random.default_rng(2)
        blocks = rng.permutation(np.repeat(np.arange(64), 16))
        big = grouping_quality(blocks, group_order(blocks, TABLE))
        tiny = grouping_quality(blocks, group_order(blocks, TINY_TABLE))
        assert 0.0 <= tiny <= big

    def test_quality_of_trivial_streams(self):
        assert grouping_quality(np.array([1]), np.array([0])) == 0.0

    def test_already_grouped_stream_unharmed(self):
        blocks = np.repeat(np.arange(16), 8)
        perm = group_order(blocks, TABLE, group_size=8)
        assert grouping_quality(blocks, perm) == pytest.approx(
            grouping_quality(blocks, np.arange(blocks.size))
        )
