"""A synthetic device address space.

The cost models work on *real byte addresses* so that coalescing and
row-locality effects are measured, not assumed.  The functional
simulation therefore places every logical array (CSR offsets, edge
array, frontiers, hash tables, ...) at a concrete base address through
this allocator, mirroring ``cudaMalloc``'s behaviour of handing out
aligned, non-overlapping regions.

A walk over consecutive elements of one array is described by an
:class:`AddressWalk` (base, count, element size) rather than by its
addresses: the coalescers and the hierarchy price such a walk in closed
form and only materialize it when a closed form does not apply.  A
gather that a kernel repeats unchanged is described by an
:class:`AddressGather` (base, element size, indices): it is priced
through its addresses once, and every later pricing reads the result
its descriptor memoized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SimulationError


@dataclass(frozen=True)
class AddressWalk:
    """A sequential walk: ``count`` elements of ``elem_bytes`` from ``base``.

    Stands for the address array ``base + arange(count) * elem_bytes``
    (see :meth:`materialize`) wherever an access stream is accepted.
    """

    base: int
    count: int
    elem_bytes: int

    def __post_init__(self) -> None:
        if self.count < 0 or self.elem_bytes <= 0:
            raise SimulationError(
                f"invalid address walk: count {self.count}, "
                f"element size {self.elem_bytes}"
            )

    @property
    def size(self) -> int:
        """Number of addresses, like ``ndarray.size``."""
        return self.count

    @property
    def last(self) -> int:
        """Byte address of the last element of a non-empty walk."""
        return self.base + (self.count - 1) * self.elem_bytes

    def materialize(self) -> np.ndarray:
        """The walk's byte addresses, in order."""
        return self.base + np.arange(self.count, dtype=np.int64) * self.elem_bytes


@dataclass(frozen=True, eq=False)
class AddressGather:
    """A gather: the elements ``indices`` of ``elem_bytes`` each from ``base``.

    Stands for the address array ``base + indices * elem_bytes`` (see
    :meth:`materialize`) wherever an access stream is accepted.  The
    indices are the descriptor's own read-only copy, so pricing cannot
    change after construction; the coalescers and the hierarchy store
    what they priced in :attr:`memo`, keyed by their pricing parameters,
    and a later pricing with the same parameters reads it back.
    """

    base: int
    elem_bytes: int
    indices: np.ndarray
    memo: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.elem_bytes <= 0:
            raise SimulationError(f"invalid address gather: element size {self.elem_bytes}")
        indices = np.array(self.indices, dtype=np.int64)
        if indices.ndim != 1:
            raise SimulationError(
                f"gather indices must be one-dimensional, got shape {indices.shape}"
            )
        indices.flags.writeable = False
        object.__setattr__(self, "indices", indices)

    @property
    def size(self) -> int:
        """Number of addresses, like ``ndarray.size``."""
        return int(self.indices.size)

    def materialize(self) -> np.ndarray:
        """The gather's byte addresses, in order."""
        return self.base + self.indices * self.elem_bytes


@dataclass
class Allocation:
    """One array placed in device memory."""

    name: str
    base: int
    size_bytes: int
    elem_bytes: int

    def addresses(self, indices: np.ndarray | None = None) -> np.ndarray:
        """Byte addresses of the given element indices (or all elements)."""
        if indices is None:
            count = self.size_bytes // self.elem_bytes
            indices = np.arange(count, dtype=np.int64)
        addrs = self.base + np.asarray(indices, dtype=np.int64) * self.elem_bytes
        return addrs

    def walk(self, start: int = 0, count: int | None = None) -> AddressWalk:
        """The sequential walk over elements ``start .. start + count - 1``
        (to the end of the allocation when ``count`` is None).

        Its :meth:`~AddressWalk.materialize` is exactly
        ``addresses(np.arange(start, start + count))``.
        """
        start = int(start)
        total = self.num_elements
        count = total - start if count is None else int(count)
        if start < 0 or count < 0 or start + count > total:
            raise SimulationError(
                f"walk of {count} elements from {start} is outside "
                f"{self.name!r} ({total} elements)"
            )
        return AddressWalk(self.base + start * self.elem_bytes, count, self.elem_bytes)

    def gather(self, indices: np.ndarray) -> AddressGather:
        """The gather of the elements ``indices``, checked against the
        allocation once.

        Its :meth:`~AddressGather.materialize` is exactly
        ``addresses(indices)``.
        """
        gather = AddressGather(self.base, self.elem_bytes, indices)
        total = self.num_elements
        if gather.size and (gather.indices.min() < 0 or gather.indices.max() >= total):
            raise SimulationError(
                f"gather index out of range for {self.name!r} ({total} elements)"
            )
        return gather

    @property
    def num_elements(self) -> int:
        return self.size_bytes // self.elem_bytes


@dataclass
class AddressSpace:
    """Bump allocator over a synthetic device memory."""

    capacity_bytes: int = 4 << 30
    alignment: int = 256  # cudaMalloc alignment
    _cursor: int = 0
    _allocations: dict = field(default_factory=dict)

    def alloc(self, name: str, num_elements: int, elem_bytes: int = 4) -> Allocation:
        """Place an array of ``num_elements`` elements; returns its allocation."""
        if num_elements < 0 or elem_bytes <= 0:
            raise SimulationError(f"invalid allocation request for {name!r}")
        size = num_elements * elem_bytes
        base = -(-self._cursor // self.alignment) * self.alignment
        if base + size > self.capacity_bytes:
            raise SimulationError(
                f"address space exhausted allocating {name!r} "
                f"({size} bytes at {base}, capacity {self.capacity_bytes})"
            )
        self._cursor = base + size
        allocation = Allocation(name=name, base=base, size_bytes=size, elem_bytes=elem_bytes)
        self._allocations[name] = allocation
        return allocation

    def get(self, name: str) -> Allocation:
        if name not in self._allocations:
            raise SimulationError(f"no allocation named {name!r}")
        return self._allocations[name]

    @property
    def bytes_in_use(self) -> int:
        return self._cursor


@dataclass
class DeviceArray:
    """A logical array with both its values and its device placement.

    The functional simulation computes on ``values``; the cost models
    read ``addresses()`` (a gather's addresses), ``gather()`` (a gather
    descriptor) or ``walk()`` (a sequential walk) so that coalescing and
    locality are measured on the addresses a real kernel would issue.
    """

    values: np.ndarray
    alloc: Allocation

    def addresses(self, indices: np.ndarray | None = None) -> np.ndarray:
        return self.alloc.addresses(indices)

    def walk(self, start: int = 0, count: int | None = None) -> AddressWalk:
        return self.alloc.walk(start, count)

    def gather(self, indices: np.ndarray) -> AddressGather:
        return self.alloc.gather(indices)

    @property
    def name(self) -> str:
        return self.alloc.name

    @property
    def size(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.size


@dataclass
class DeviceContext:
    """Allocates :class:`DeviceArray` objects in one address space.

    Names are made unique automatically (``frontier``, ``frontier.1``,
    ...) because algorithms allocate fresh frontiers every iteration.
    """

    space: AddressSpace = field(default_factory=AddressSpace)
    _counters: dict = field(default_factory=dict)

    def _unique_name(self, name: str) -> str:
        count = self._counters.get(name, 0)
        self._counters[name] = count + 1
        return name if count == 0 else f"{name}.{count}"

    def array(self, name: str, values: np.ndarray, *, elem_bytes: int = 4) -> DeviceArray:
        """Place ``values`` in device memory under (a uniquified) ``name``."""
        values = np.asarray(values)
        alloc = self.space.alloc(self._unique_name(name), values.size, elem_bytes)
        return DeviceArray(values=values, alloc=alloc)

    def bitmask(self, name: str, mask: np.ndarray) -> DeviceArray:
        """Place a boolean bitmask (stored packed, 1 bit per element)."""
        mask = np.asarray(mask, dtype=bool)
        words = max(1, -(-mask.size // 32))  # packed into 4-byte words
        alloc = self.space.alloc(self._unique_name(name), words, 4)
        return DeviceArray(values=mask, alloc=alloc)
