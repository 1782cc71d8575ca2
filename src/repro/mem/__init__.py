"""Memory-system substrate: coalescing, caches, DRAM, hierarchy."""

from .address_space import (
    AddressGather,
    AddressSpace,
    AddressWalk,
    Allocation,
    DeviceArray,
    DeviceContext,
)
from .cache import CacheStats, SetAssociativeCache
from .coalescer import (
    LINE_BYTES,
    SECTOR_BYTES,
    WARP_SIZE,
    CoalesceResult,
    coalesce_stream,
    coalesce_stream_reference,
    coalesce_warp,
    coalesce_warp_reference,
    gather_addresses,
    sequential_addresses,
)
from .dram import GDDR5, LPDDR4, DramConfig, DramModel, DramTraffic
from .dram_sim import BankedDramSim, DramSimResult, DramTimingParams
from .hierarchy import MemoryHierarchy, MemoryStats, row_hit_fraction
from .locality import (
    LocalityProfile,
    estimate_hit_rate,
    estimate_hits,
    profile_lines,
    profile_lines_reference,
)

__all__ = [
    "AddressGather",
    "AddressSpace",
    "AddressWalk",
    "Allocation",
    "DeviceArray",
    "DeviceContext",
    "CacheStats",
    "SetAssociativeCache",
    "CoalesceResult",
    "coalesce_warp",
    "coalesce_stream",
    "coalesce_warp_reference",
    "coalesce_stream_reference",
    "sequential_addresses",
    "gather_addresses",
    "SECTOR_BYTES",
    "LINE_BYTES",
    "WARP_SIZE",
    "DramConfig",
    "DramModel",
    "DramTraffic",
    "GDDR5",
    "LPDDR4",
    "BankedDramSim",
    "DramSimResult",
    "DramTimingParams",
    "MemoryHierarchy",
    "MemoryStats",
    "row_hit_fraction",
    "LocalityProfile",
    "profile_lines",
    "profile_lines_reference",
    "estimate_hit_rate",
    "estimate_hits",
]
