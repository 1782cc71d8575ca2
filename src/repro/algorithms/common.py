"""Shared machinery for the three graph primitives.

Holds the system-variant enum, the per-kernel instruction-cost constants
(modeling the CUDA implementations the paper builds on), the GPU-side
warp-culling model, and the device placement of a CSR graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# SystemMode now lives with the backend registry; re-exported here for
# compatibility — every historical ``from repro.algorithms.common import
# SystemMode`` keeps working.
from ..backends.modes import SystemMode
from ..core.api import ScuSystem
from ..core.energy import scu_static_power_w
from ..errors import ArgumentError
from ..gpu.energy import system_static_power_w
from ..graph.csr import CsrGraph
from ..mem.address_space import DeviceArray
from ..phases import RunReport


#: Instruction-per-thread costs of the modeled CUDA kernels.  Derived
#: from the structure of the Merrill BFS / Davidson SSSP / Geil PR
#: kernels (loads, stores, index arithmetic, culling heuristics, scan
#: steps); they matter only when a kernel is compute-bound, which graph
#: kernels rarely are.
KERNEL_COSTS = {
    "expand.prepare": 12.0,  # degree fetch + scan participation
    "expand.gather": 8.0,  # ragged gather with CTA/warp balancing
    "contract.process": 22.0,  # label test + warp/history culling
    "contract.compact": 10.0,  # scan + scatter of surviving nodes
    "sssp.contract.process": 26.0,  # + near/far split and atomicMin
    "pr.rank_update": 11.0,  # atomic accumulation per edge
    "pr.dampen": 7.0,
    "pr.convergence": 9.0,  # block reduction participation
    "bitmask.build": 6.0,
}

#: Extra instructions charged per element for scan-based allocation
#: (prefix sums are log-depth but touch every element a few times).
SCAN_OVERHEAD_PER_ELEMENT = 4.0

#: Sustained fraction of peak memory throughput GPU stream-compaction
#: kernels reach.  Scan-based compaction pays multi-phase passes with
#: grid synchronization (Billeter et al. HPG'09 report ~half of copy
#: bandwidth for the scan alone), ragged fine-grained gathers, and
#: per-iteration launch/configuration stalls; measured GPU graph
#: traversals sustain well under a third of peak DRAM bandwidth during
#: their compaction steps — which is why Figure 1 of the paper shows
#: compaction costing 25-55 % of real execution time.  The SCU's whole
#: premise is that a dedicated sequential unit does not pay this.
COMPACTION_MEMORY_EFFICIENCY = 0.30

#: Reach of the per-CTA shared-memory history hash (Merrill): a
#: duplicate whose previous copy sits within this many stream positions
#: is caught cheaply.  Clustered duplicates (mesh neighbourhoods) fall
#: here.
HISTORY_CULL_WINDOW = 1024

#: Stream positions after which the non-atomic visited bit is visible
#: to later threads: the store propagates through the L2 in a couple of
#: microseconds, during which the grid retires a few thousand elements.
#: A time-based constant, so it is shared by both GPU systems.
VISIBILITY_WINDOW = 4096

#: Host-side cost charged once per GPU compaction phase: the scan runs
#: as separate upsweep/downsweep launches and the new frontier size is
#: copied back for the next launch configuration (cudaMemcpy + sync).
COMPACTION_SYNC_OVERHEAD_S = 4e-6


def compaction_sync_overhead_s(config) -> float:
    """Extra per-phase overhead of GPU scan-based compaction."""
    return config.kernel_launch_overhead_s + COMPACTION_SYNC_OVERHEAD_S


def best_effort_cull(
    ids: np.ndarray, *, history: int = HISTORY_CULL_WINDOW, visibility: int = VISIBILITY_WINDOW
) -> np.ndarray:
    """Keep-mask of Merrill's full best-effort duplicate pipeline (2.1.2).

    Three mechanisms, composed deterministically:

    * **warp/history culling** — per-CTA shared-memory hashes of
      recently enqueued nodes catch a duplicate whose *previous* copy
      lies within ``history`` stream positions (clustered duplicates,
      e.g. mesh neighbourhoods, rarely survive);
    * **visited bitmask** — the non-atomic global status bit becomes
      visible once the first copy retired more than ``visibility``
      positions earlier (roughly the resident-thread count), dropping
      far-apart duplicates;
    * duplicates in the band between race and survive — the false
      negatives the SCU's hash filtering later removes.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n = ids.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    group_start = np.ones(n, dtype=bool)
    group_start[1:] = sorted_ids[1:] != sorted_ids[:-1]
    far_away = -(10 * n)  # sentinel: "no previous copy"
    prev_index = np.empty(n, dtype=np.int64)
    prev_index[order[0]] = far_away
    prev_index[order[1:]] = np.where(group_start[1:], far_away, order[:-1])
    starts = np.nonzero(group_start)[0]
    lengths = np.diff(np.append(starts, n))
    first_per_sorted = np.repeat(order[starts], lengths)
    first_index = np.empty(n, dtype=np.int64)
    first_index[order] = first_per_sorted
    indices = np.arange(n, dtype=np.int64)
    is_first = indices == first_index
    caught_by_history = (indices - prev_index) < history
    caught_by_bitmask = (indices - first_index) >= visibility
    return is_first | (~caught_by_history & ~caught_by_bitmask)


def warp_cull(ids: np.ndarray, *, window: int = 32) -> np.ndarray:
    """Keep-mask modeling intra-warp duplicate culling (Merrill Section 4).

    GPU implementations cheaply drop duplicates that threads of the same
    warp hold (voting/shuffle based), but duplicates further apart in
    the frontier survive — the "best-effort" filtering whose leftovers
    the SCU's hash filtering removes.  Deterministic model: within every
    consecutive ``window`` elements, only the first copy of a value is
    kept.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n = ids.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    pad = (-n) % window
    padded = np.concatenate([ids, np.full(pad, -1, dtype=np.int64)]) if pad else ids
    grid = padded.reshape(-1, window)
    order = np.argsort(grid, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(grid, order, axis=1)
    first = np.ones_like(sorted_vals, dtype=bool)
    first[:, 1:] = sorted_vals[:, 1:] != sorted_vals[:, :-1]
    keep_grid = np.empty_like(first)
    np.put_along_axis(keep_grid, order, first, axis=1)
    keep = keep_grid.reshape(-1)[:n]
    return keep


@dataclass
class GraphOnDevice:
    """A CSR graph placed in the simulated device memory."""

    graph: CsrGraph
    offsets: DeviceArray
    edges: DeviceArray
    weights: DeviceArray
    node_data: DeviceArray  # per-node state (labels / distances / ranks)
    scan_scratch: DeviceArray  # prefix-sum intermediate storage

    @classmethod
    def place(cls, graph: CsrGraph, system: ScuSystem, node_fill) -> "GraphOnDevice":
        ctx = system.ctx
        scratch_elems = max(graph.num_edges, graph.num_nodes, 1)
        return cls(
            graph=graph,
            offsets=ctx.array("csr.offsets", graph.offsets),
            edges=ctx.array("csr.edges", graph.edges),
            weights=ctx.array("csr.weights", graph.weights),
            node_data=ctx.array(
                "node.state", np.full(graph.num_nodes, node_fill)
            ),
            scan_scratch=ctx.array(
                "scan.scratch", np.zeros(scratch_elems, dtype=np.int64)
            ),
        )

    def add_scan_traffic(self, spec, n: int) -> None:
        """Charge prefix-sum traffic to a GPU compaction kernel.

        Scan-based allocation (Merrill/Billeter) makes an upsweep read
        pass and a downsweep write pass over its ``n`` inputs — memory
        traffic GPU stream compaction pays and the SCU does not.  Both
        passes walk the scratch from its start.  An edge frontier that
        carries duplicates can outgrow the ``max(edges, nodes)``-element
        scratch; its passes then wrap around it.
        """
        if n <= 0:
            return
        scratch = self.scan_scratch
        if n <= scratch.size:
            addresses = scratch.walk(0, n)
        else:
            addresses = scratch.addresses(np.arange(n, dtype=np.int64) % scratch.size)
        spec.load(addresses)
        spec.store(addresses)


def finalize_report(report: RunReport, system: ScuSystem) -> RunReport:
    """Charge static energy over the makespan (GPU + DRAM + accelerator)."""
    power = system_static_power_w(system.gpu.config)
    if system.has_scu:
        power += scu_static_power_w(system.scu.config)
    if system.has_iru:
        power += system.iru.static_power_w
    report.static_energy_j = power * report.time_s()
    return report


def pick_source(graph: CsrGraph) -> int:
    """Deterministic high-degree source so traversals reach most nodes."""
    return int(np.argmax(graph.out_degrees))


def resolve_source(graph: CsrGraph, source: int | None) -> int:
    """A traversal's source: ``source`` if it is a node of ``graph``
    (else :class:`~repro.errors.ArgumentError`), :func:`pick_source`'s
    node if it is ``None``."""
    if source is None:
        return pick_source(graph)
    if not 0 <= source < graph.num_nodes:
        raise ArgumentError(
            f"kwargs['source'] {source} is not a node of {graph.name} "
            f"({graph.num_nodes} nodes)"
        )
    return source
