"""Tests for the synthetic address space and device-array plumbing."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.mem import AddressGather, AddressSpace, DeviceContext, coalesce_warp


class TestAddressSpace:
    def test_allocations_are_disjoint(self):
        space = AddressSpace()
        a = space.alloc("a", 100, 4)
        b = space.alloc("b", 50, 8)
        assert a.base + a.size_bytes <= b.base

    def test_alignment(self):
        space = AddressSpace(alignment=256)
        space.alloc("a", 3, 4)  # 12 bytes
        b = space.alloc("b", 1, 4)
        assert b.base % 256 == 0

    def test_get_by_name(self):
        space = AddressSpace()
        a = space.alloc("labels", 10, 4)
        assert space.get("labels") is a

    def test_get_unknown_raises(self):
        with pytest.raises(SimulationError, match="no allocation"):
            AddressSpace().get("ghost")

    def test_capacity_exhaustion(self):
        space = AddressSpace(capacity_bytes=1024)
        with pytest.raises(SimulationError, match="exhausted"):
            space.alloc("big", 1024, 4)

    def test_invalid_request(self):
        with pytest.raises(SimulationError):
            AddressSpace().alloc("bad", -1, 4)

    def test_bytes_in_use(self):
        space = AddressSpace()
        space.alloc("a", 10, 4)
        assert space.bytes_in_use == 40

    def test_addresses_all_elements(self):
        space = AddressSpace()
        a = space.alloc("a", 4, 4)
        assert list(a.addresses()) == [a.base, a.base + 4, a.base + 8, a.base + 12]

    def test_addresses_indexed(self):
        space = AddressSpace()
        a = space.alloc("a", 10, 8)
        assert list(a.addresses(np.array([2, 0]))) == [a.base + 16, a.base]


class TestWalk:
    @pytest.mark.parametrize("elem_bytes", [1, 4, 8])
    @pytest.mark.parametrize(
        "start, count", [(0, None), (0, 10), (3, 5), (10, 0), (4, None)]
    )
    def test_materialize_is_the_indexed_addresses(self, elem_bytes, start, count):
        space = AddressSpace()
        space.alloc("pad", 3, 1)  # an allocation base that is not 0
        a = space.alloc("a", 10, elem_bytes)
        walk = a.walk(start, count)
        end = a.num_elements if count is None else start + count
        expected = a.addresses(np.arange(start, end))
        materialized = walk.materialize()
        assert materialized.dtype == expected.dtype
        np.testing.assert_array_equal(materialized, expected)
        assert walk.size == end - start

    @pytest.mark.parametrize(
        "start, count", [(-1, 2), (0, 11), (8, 3), (11, None), (2, -1)]
    )
    def test_out_of_range_raises(self, start, count):
        a = AddressSpace().alloc("a", 10, 4)
        with pytest.raises(SimulationError, match="outside 'a'"):
            a.walk(start, count)

    def test_device_array_mirrors_allocation(self):
        arr = DeviceContext().array("x", np.arange(6))
        assert arr.walk(1, 4) == arr.alloc.walk(1, 4)
        assert arr.walk() == arr.alloc.walk(0, 6)


class TestGather:
    @pytest.mark.parametrize("elem_bytes", [1, 4, 8])
    @pytest.mark.parametrize("indices", [[], [0], [9, 0, 3, 3, 7], list(range(10))])
    def test_materialize_is_the_indexed_addresses(self, elem_bytes, indices):
        space = AddressSpace()
        space.alloc("pad", 3, 1)  # an allocation base that is not 0
        a = space.alloc("a", 10, elem_bytes)
        gather = a.gather(np.asarray(indices, dtype=np.int32))
        expected = a.addresses(np.asarray(indices))
        materialized = gather.materialize()
        assert materialized.dtype == expected.dtype
        np.testing.assert_array_equal(materialized, expected)
        assert gather.size == len(indices)

    @pytest.mark.parametrize("indices", [[-1], [0, 10], [3, 11, 2]])
    def test_out_of_range_raises(self, indices):
        a = AddressSpace().alloc("a", 10, 4)
        with pytest.raises(SimulationError, match="out of range for 'a'"):
            a.gather(np.asarray(indices))

    def test_malformed_descriptor_rejected(self):
        with pytest.raises(SimulationError):
            AddressGather(0, 0, np.arange(3))
        with pytest.raises(SimulationError):
            AddressSpace().alloc("a", 10, 4).gather(np.zeros((2, 2), dtype=np.int64))

    def test_source_mutation_does_not_change_pricing(self):
        a = AddressSpace().alloc("a", 4096, 4)
        source = np.arange(0, 4096, 37, dtype=np.int64)
        expected = coalesce_warp(a.addresses(source))
        gather = a.gather(source)
        source[:] = 0
        with pytest.raises(ValueError):
            gather.indices[0] = 1  # the descriptor's copy is read-only
        result = coalesce_warp(gather)
        assert (result.accesses, result.transactions) == (
            expected.accesses,
            expected.transactions,
        )
        np.testing.assert_array_equal(result.line_ids, expected.line_ids)

    def test_device_array_mirrors_allocation(self):
        arr = DeviceContext().array("x", np.arange(6))
        np.testing.assert_array_equal(
            arr.gather(np.array([5, 1])).materialize(),
            arr.alloc.gather(np.array([5, 1])).materialize(),
        )


class TestDeviceContext:
    def test_array_wraps_values(self):
        ctx = DeviceContext()
        arr = ctx.array("x", np.arange(5))
        assert arr.size == 5
        assert len(arr) == 5
        assert arr.name == "x"

    def test_names_uniquified(self):
        ctx = DeviceContext()
        a = ctx.array("frontier", np.arange(3))
        b = ctx.array("frontier", np.arange(3))
        assert a.name == "frontier"
        assert b.name == "frontier.1"
        assert a.alloc.base != b.alloc.base

    def test_bitmask_is_packed(self):
        ctx = DeviceContext()
        mask = ctx.bitmask("m", np.ones(64, dtype=bool))
        # 64 bits -> two 4-byte words of backing storage.
        assert mask.alloc.size_bytes == 8
        assert mask.values.size == 64

    def test_bitmask_minimum_one_word(self):
        ctx = DeviceContext()
        mask = ctx.bitmask("m", np.array([True]))
        assert mask.alloc.size_bytes == 4

    def test_element_bytes(self):
        ctx = DeviceContext()
        arr = ctx.array("w", np.zeros(4), elem_bytes=8)
        assert arr.alloc.size_bytes == 32
