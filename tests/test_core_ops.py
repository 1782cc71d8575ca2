"""Tests for the functional semantics of the five SCU operations (Figure 6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    access_compaction,
    access_expansion_compaction,
    bitmask_constructor,
    contiguous_expansion_start,
    data_compaction,
    expanded_indices,
    expansion_gather_indices,
    replication_compaction,
)
from repro.errors import OperationError


class TestBitmaskConstructor:
    def test_greater_than(self):
        mask = bitmask_constructor(np.array([1, 5, 3]), "gt", 2)
        assert list(mask) == [False, True, True]

    @pytest.mark.parametrize(
        "op,expected",
        [
            ("eq", [False, True, False]),
            ("ne", [True, False, True]),
            ("lt", [True, False, False]),
            ("le", [True, True, False]),
            ("gt", [False, False, True]),
            ("ge", [False, True, True]),
        ],
    )
    def test_all_comparisons(self, op, expected):
        mask = bitmask_constructor(np.array([1, 2, 3]), op, 2)
        assert list(mask) == expected

    def test_unknown_comparison_rejected(self):
        with pytest.raises(OperationError, match="unknown comparison"):
            bitmask_constructor(np.array([1]), "xor", 0)

    def test_2d_input_rejected(self):
        with pytest.raises(OperationError):
            bitmask_constructor(np.zeros((2, 2)), "eq", 0)


class TestDataCompaction:
    def test_figure6_example(self):
        # Figure 6: data [A, B, C], bitmask [1, 0, 1] -> [A, C].
        data = np.array([10, 20, 30])
        mask = np.array([True, False, True])
        assert list(data_compaction(data, mask)) == [10, 30]

    def test_order_preserved(self):
        data = np.arange(100)
        mask = data % 3 == 0
        out = data_compaction(data, mask)
        assert np.all(np.diff(out) > 0)

    def test_empty_mask_rejects_nothing(self):
        out = data_compaction(np.array([], dtype=np.int64), np.array([], dtype=bool))
        assert out.size == 0

    def test_mask_length_checked(self):
        with pytest.raises(OperationError, match="length"):
            data_compaction(np.array([1, 2]), np.array([True]))

    def test_mask_dtype_checked(self):
        with pytest.raises(OperationError, match="boolean"):
            data_compaction(np.array([1, 2]), np.array([1, 0]))


class TestAccessCompaction:
    def test_figure6_example(self):
        # Figure 6: indexes [1, 7, 2], bitmask [1, 0, 1] -> data[[1, 2]] = [B, C].
        data = np.array([100, 101, 102, 103, 104, 105, 106, 107])
        indexes = np.array([1, 7, 2])
        mask = np.array([True, False, True])
        assert list(access_compaction(data, indexes, mask)) == [101, 102]

    def test_out_of_range_index_rejected(self):
        with pytest.raises(OperationError, match="out of range"):
            access_compaction(np.array([1]), np.array([5]), np.array([True]))

    def test_masked_out_invalid_index_is_fine(self):
        # The hardware never fetches filtered entries.
        out = access_compaction(np.array([1]), np.array([5]), np.array([False]))
        assert out.size == 0


class TestReplicationCompaction:
    def test_figure6_example(self):
        # Figure 6: data [A, B, C], count [4, 2, 1], bitmask [0, 1, 1] -> [B, B, C].
        data = np.array([10, 20, 30])
        count = np.array([4, 2, 1])
        mask = np.array([False, True, True])
        assert list(replication_compaction(data, count, mask)) == [20, 20, 30]

    def test_no_mask_replicates_all(self):
        out = replication_compaction(np.array([7, 8]), np.array([2, 3]))
        assert list(out) == [7, 7, 8, 8, 8]

    def test_zero_count_drops_element(self):
        out = replication_compaction(np.array([7, 8]), np.array([0, 1]))
        assert list(out) == [8]

    def test_negative_count_rejected(self):
        with pytest.raises(OperationError, match="non-negative"):
            replication_compaction(np.array([1]), np.array([-1]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(OperationError):
            replication_compaction(np.array([1, 2]), np.array([1]))


class TestAccessExpansionCompaction:
    def test_figure6_example(self):
        # Figure 6: indexes [3, 2, 1], count [5, 0, 2], bitmask [1, 0, 1]
        # -> data[3:8] ++ data[1:3].
        data = np.arange(100, 110)
        indexes = np.array([3, 2, 1])
        count = np.array([5, 0, 2])
        mask = np.array([True, False, True])
        out = access_expansion_compaction(data, indexes, count, mask)
        assert list(out) == [103, 104, 105, 106, 107, 101, 102]

    def test_csr_expansion(self):
        """With CSR offsets/degrees this is the edge-frontier gather."""
        edges = np.array([1, 2, 3, 4, 5, 5, 2, 6])  # paper Figure 2
        offsets = np.array([0, 3, 5])  # adjacency starts of nodes A, B, C
        degrees = np.array([3, 2, 1])
        out = access_expansion_compaction(edges, offsets, degrees)
        assert list(out) == [1, 2, 3, 4, 5, 5]  # edge frontier of {A, B, C}

    def test_range_out_of_bounds_rejected(self):
        with pytest.raises(OperationError, match="out of bounds"):
            access_expansion_compaction(
                np.arange(4), np.array([2]), np.array([5])
            )

    def test_empty_input(self):
        out = access_expansion_compaction(
            np.arange(4),
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
        )
        assert out.size == 0


class TestExpandedIndices:
    def test_docstring_example(self):
        out = expanded_indices(np.array([5, 0]), np.array([2, 3]))
        assert list(out) == [5, 6, 0, 1, 2]

    def test_zero_counts(self):
        out = expanded_indices(np.array([5, 3]), np.array([0, 0]))
        assert out.size == 0

    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.integers(min_value=0, max_value=50),
                    st.integers(min_value=0, max_value=1 << 40),
                ),
                st.integers(min_value=0, max_value=40),
            ),
            min_size=0,
            max_size=60,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_python_loops(self, pairs):
        idx = np.array([p[0] for p in pairs], dtype=np.int64)
        cnt = np.array([p[1] for p in pairs], dtype=np.int64)
        expected = [i + k for i, c in pairs for k in range(c)]
        out = expanded_indices(idx, cnt)
        assert out.dtype == np.int64
        assert out.tolist() == expected


class TestExpansionGatherIndices:
    """The checked index build shared by the expansion and its gather stream."""

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.integers(min_value=0, max_value=10),
                st.booleans(),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_gathers_what_the_operation_gathers(self, triples):
        data = np.arange(100, 140)
        idx = np.array([t[0] for t in triples], dtype=np.int64)
        cnt = np.array([t[1] for t in triples], dtype=np.int64)
        mask = np.array([t[2] for t in triples], dtype=bool)
        indices = expansion_gather_indices(data, idx, cnt, mask)
        expected = [i + k for i, c, keep in triples if keep for k in range(c)]
        assert indices.dtype == np.int64
        assert indices.tolist() == expected
        assert np.array_equal(
            data[indices], access_expansion_compaction(data, idx, cnt, mask)
        )

    @pytest.mark.parametrize(
        "data, idx, cnt",
        [
            (np.arange(10), np.array([0, 1]), np.array([1])),  # length mismatch
            (np.arange(10), np.array([0]), np.array([-1])),  # negative count
            (np.arange(10), np.array([8]), np.array([3])),  # past the end
            (np.arange(10), np.array([-1]), np.array([1])),  # before the start
            (np.zeros((2, 5)), np.array([0]), np.array([1])),  # not 1-D
        ],
    )
    def test_rejects_what_the_operation_rejects(self, data, idx, cnt):
        with pytest.raises(OperationError):
            expansion_gather_indices(data, idx, cnt)
        with pytest.raises(OperationError):
            access_expansion_compaction(data, idx, cnt)


class TestContiguousExpansionStart:
    @pytest.mark.parametrize(
        "idx, cnt, start",
        [
            ([0, 3, 3, 5], [3, 0, 2, 1], 0),  # a zero-degree row in the middle
            ([4, 4, 4], [0, 0, 2], 4),  # leading zero-degree rows
            ([7], [0], 7),
            ([0, 3], [2, 1], None),  # a gap
            ([0, 1], [2, 1], None),  # an overlap
            ([3, 0], [1, 3], None),  # out of order
            ([], [], None),  # no ranges
        ],
    )
    def test_start(self, idx, cnt, start):
        assert contiguous_expansion_start(np.array(idx), np.array(cnt)) == start

    @given(st.lists(st.integers(min_value=0, max_value=6), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_back_to_back_ranges_gather_a_walk(self, degrees):
        cnt = np.asarray(degrees, dtype=np.int64)
        idx = 5 + np.concatenate([[0], np.cumsum(cnt)[:-1]]).astype(np.int64)
        start = contiguous_expansion_start(idx[: cnt.size], cnt)
        if cnt.size == 0:
            assert start is None
        else:
            assert start == 5
            assert np.array_equal(
                expanded_indices(idx[: cnt.size], cnt),
                np.arange(5, 5 + cnt.sum()),
            )


class TestCompactionProperties:
    @given(
        st.lists(st.integers(min_value=-100, max_value=100), min_size=0, max_size=200),
        st.integers(min_value=-100, max_value=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_compaction_equals_boolean_indexing(self, raw, ref):
        data = np.asarray(raw, dtype=np.int64)
        mask = bitmask_constructor(data, "gt", ref)
        out = data_compaction(data, mask)
        assert list(out) == [x for x in raw if x > ref]

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_replication_length_is_count_sum(self, counts):
        cnt = np.asarray(counts, dtype=np.int64)
        data = np.arange(cnt.size)
        assert replication_compaction(data, cnt).size == cnt.sum()
