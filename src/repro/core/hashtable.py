"""The SCU's reconfigurable in-memory hash table (Section 4.1).

The hardware stores the table in main memory, cached by the GPU L2, and
reconfigures entry size per operation (Table 2): 4-byte entries for BFS
filtering, 8-byte for SSSP unique-best-cost filtering, 32-byte group
entries for grouping.  Collisions *overwrite* — the paper accepts false
negatives in exchange for trivial hardware.

Modeling note: Table 2 describes the tables as 16-way.  We model the
table as direct-mapped at the same entry count.  With the multiplicative
hash below, conflict (and thus duplicate-escape) rates differ only
marginally from a low-associativity victim arrangement, while the
direct-mapped discipline is what the paper's "entry is overwritten"
eviction text actually describes; the associativity field is retained in
the config for the area model and table rendering.
"""

from __future__ import annotations

import numpy as np

from ..errors import OperationError
from .config import HashTableConfig

#: Knuth's multiplicative hashing constant (golden ratio of 2^64).
_MULTIPLIER = np.int64(-7046029254386353131)  # 0x9E3779B97F4A7C15 as signed


def hash_slots(keys: np.ndarray, num_entries: int) -> np.ndarray:
    """Map int64 keys to table slots with multiplicative hashing.

    Deterministic and shared by the vectorized and reference filter and
    grouping implementations, so their results are bit-identical.
    """
    if num_entries <= 0:
        raise OperationError(f"hash table needs at least one entry, got {num_entries}")
    keys = np.asarray(keys, dtype=np.int64)
    mixed = (keys * _MULTIPLIER).astype(np.uint64) >> np.uint64(33)
    return (mixed % np.uint64(num_entries)).astype(np.int64)


def slot_order(slots: np.ndarray, num_entries: int) -> tuple[np.ndarray, np.ndarray]:
    """The stable sort order of ``slots`` and the slots in that order.

    ``slots`` lie in ``[0, num_entries)``.  Each slot is packed with its
    stream position into one int64 key, ``slot << b | position``; the
    keys are distinct, so one plain sort orders them exactly as a stable
    argsort of the slots would, and both results unpack from the sorted
    keys.  When a key would need more than 63 bits the stable argsort
    runs instead.

    Returns ``(order, slots_sorted)`` with ``slots_sorted = slots[order]``.
    """
    slots = np.asarray(slots, dtype=np.int64)
    position_bits = max(slots.size - 1, 0).bit_length()
    if (num_entries - 1).bit_length() + position_bits > 63:
        order = np.argsort(slots, kind="stable")
        return order, slots[order]
    keys = (slots << position_bits) | np.arange(slots.size, dtype=np.int64)
    keys.sort()
    return keys & ((1 << position_bits) - 1), keys >> position_bits


def table_addresses(
    slots: np.ndarray, *, base: int, bytes_per_entry: int
) -> np.ndarray:
    """Byte addresses of the hash-table entries touched by ``slots``.

    The filtering/grouping cost model feeds these through the memory
    hierarchy: a table that fits in L2 stays cheap, an oversized one
    spills to DRAM — exactly the trade-off Table 2's sizing is about.
    """
    return base + np.asarray(slots, dtype=np.int64) * bytes_per_entry


def entries_for(config: HashTableConfig) -> int:
    """Number of addressable entries of a table configuration."""
    return config.num_entries
