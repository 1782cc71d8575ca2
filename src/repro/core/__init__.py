"""The paper's contribution: the Stream Compaction Unit."""

from .api import PAPER_SCALE, ScuSystem, build_system
from .batch import (
    batch_offsets,
    concat_batch,
    data_compaction_batch,
    filter_best_cost_batch,
    filter_unique_batch,
    group_order_batch,
    split_batch,
)
from .area import (
    area_breakdown,
    power_breakdown_w,
    render_synthesis_report,
    total_area_mm2,
)
from .cyclesim import CycleSimResult, ScuPipelineSim
from .config import (
    SCU_CONFIGS,
    SCU_GTX980,
    SCU_TX1,
    HashTableConfig,
    ScuConfig,
)
from .energy import scu_op_dynamic_energy_j, scu_static_power_w
from .filtering import (
    duplicates_removed_fraction,
    filter_best_cost,
    filter_best_cost_reference,
    filter_unique,
    filter_unique_reference,
)
from .grouping import group_order, group_order_reference, grouping_quality
from .hashtable import hash_slots, table_addresses
from .program import (
    OPERATION_SIGNATURES,
    ScuProgram,
    ScuStep,
    bfs_contraction_program,
    bfs_expansion_program,
    enhanced_bfs_contraction_program,
    pr_expansion_program,
    sssp_expansion_program,
)
from .ops import (
    COMPARISONS,
    access_compaction,
    access_expansion_compaction,
    bitmask_constructor,
    compaction_addresses,
    contiguous_expansion_start,
    data_compaction,
    exclusive_scan,
    expanded_indices,
    expansion_gather_indices,
    expansion_ranges,
    replication_compaction,
)
from .timing import ScuTiming, scu_op_timing
from .unit import StreamCompactionUnit

__all__ = [
    "ScuSystem",
    "build_system",
    "PAPER_SCALE",
    "area_breakdown",
    "total_area_mm2",
    "power_breakdown_w",
    "render_synthesis_report",
    "ScuPipelineSim",
    "CycleSimResult",
    "ScuConfig",
    "HashTableConfig",
    "SCU_GTX980",
    "SCU_TX1",
    "SCU_CONFIGS",
    "StreamCompactionUnit",
    "ScuTiming",
    "scu_op_timing",
    "scu_op_dynamic_energy_j",
    "scu_static_power_w",
    "hash_slots",
    "table_addresses",
    "filter_unique",
    "filter_unique_reference",
    "filter_best_cost",
    "filter_best_cost_reference",
    "duplicates_removed_fraction",
    "group_order",
    "group_order_reference",
    "grouping_quality",
    "ScuProgram",
    "ScuStep",
    "OPERATION_SIGNATURES",
    "bfs_expansion_program",
    "bfs_contraction_program",
    "sssp_expansion_program",
    "pr_expansion_program",
    "enhanced_bfs_contraction_program",
    "COMPARISONS",
    "bitmask_constructor",
    "exclusive_scan",
    "compaction_addresses",
    "data_compaction",
    "access_compaction",
    "replication_compaction",
    "access_expansion_compaction",
    "contiguous_expansion_start",
    "expanded_indices",
    "expansion_gather_indices",
    "expansion_ranges",
    "batch_offsets",
    "concat_batch",
    "split_batch",
    "data_compaction_batch",
    "filter_unique_batch",
    "filter_best_cost_batch",
    "group_order_batch",
]
