"""Breadth-First Search — Merrill-style expansion/contraction (Section 2.1).

Three system variants share one functional core:

* ``SystemMode.GPU`` — the baseline: the edge-frontier gather and the
  node-frontier compaction run as GPU kernels (tagged COMPACTION so
  Figure 1's split can be measured);
* ``SystemMode.SCU_BASIC`` — Algorithm 1: those compactions are
  offloaded to the SCU;
* ``SystemMode.SCU_ENHANCED`` — Algorithm 4: the SCU additionally
  builds hash-filter bitmasks during expansion and contraction, so the
  GPU sees a nearly duplicate-free workload.  Grouping is *not* used
  for BFS (Section 4.4: it interferes with warp culling).

The baseline's duplicate handling is the paper's "best-effort" story:
a warp-level cull drops same-warp copies, the label test drops
already-visited nodes, and everything else survives to inflate the next
frontier — which is precisely the workload the SCU filtering removes.
"""

from __future__ import annotations

import numpy as np

from ..core.api import ScuSystem
from ..core.ops import expanded_indices
from ..core.pipeline import gather_read, sequential_read
from ..errors import SimulationError
from ..gpu.kernel import KernelSpec
from ..graph.csr import CsrGraph
from ..phases import PhaseKind, RunReport
from .common import (
    COMPACTION_MEMORY_EFFICIENCY,
    KERNEL_COSTS,
    SCAN_OVERHEAD_PER_ELEMENT,
    GraphOnDevice,
    SystemMode,
    best_effort_cull,
    compaction_sync_overhead_s,
    finalize_report,
    resolve_source,
    warp_cull,
)
from .reference import UNREACHED


def run_bfs(
    graph: CsrGraph,
    system: ScuSystem,
    mode: SystemMode,
    *,
    source: int | None = None,
    max_iterations: int = 10_000,
) -> tuple[np.ndarray, RunReport]:
    """Run BFS; returns (hop distances, phase-level cost report)."""
    if mode is not SystemMode.GPU and not system.has_scu:
        raise SimulationError(f"mode {mode.value} requires a system with an SCU")
    source = resolve_source(graph, source)

    dev = GraphOnDevice.place(graph, system, np.int64(UNREACHED))
    labels = dev.node_data.values
    labels[source] = 0

    report = RunReport(algorithm="bfs", system=mode.value, dataset=graph.name)
    ctx = system.ctx
    gpu = system.gpu
    tracer = system.obs.tracer
    frontier_hist = system.obs.metrics.histogram("frontier.size")

    nf_dev = ctx.array("nf", np.array([source], dtype=np.int64))
    depth = 0
    for _ in range(max_iterations):
        if nf_dev.size == 0:
            break
        depth += 1
        nf = np.asarray(nf_dev.values, dtype=np.int64)
        tracer.counter("frontier.size", nodes=nf.size)
        frontier_hist.observe(nf.size, algorithm="bfs")
        with tracer.span(
            "bfs.iteration", "algorithm", depth=depth, frontier_nodes=int(nf.size)
        ):
            # ---- expansion: prepare indexes/count on the GPU (all modes) ----
            indexes_values = graph.offsets[nf]
            count_values = graph.out_degrees[nf]
            indexes_dev = ctx.array("expand.indexes", indexes_values)
            count_dev = ctx.array("expand.count", count_values)
            prepare = KernelSpec(
                "bfs.expand.prepare",
                PhaseKind.PROCESSING,
                threads=nf.size,
                instructions_per_thread=KERNEL_COSTS["expand.prepare"],
                extra_instructions=int(SCAN_OVERHEAD_PER_ELEMENT * nf.size),
            )
            prepare.load(nf_dev.walk())
            prepare.load(dev.offsets.addresses(nf))
            prepare.load(dev.offsets.addresses(nf + 1))
            prepare.store(indexes_dev.walk())
            prepare.store(count_dev.walk())
            report.add(gpu.run(prepare))

            gather_indices = expanded_indices(indexes_values, count_values)

            # ---- expansion: edge-frontier gather -------------------------------
            if mode is SystemMode.GPU:
                ef_values = graph.edges[gather_indices]
                ef_dev = ctx.array("ef", ef_values)
                gather = KernelSpec(
                    "bfs.expand.gather",
                    PhaseKind.COMPACTION,
                    threads=ef_values.size,
                    instructions_per_thread=KERNEL_COSTS["expand.gather"],
                    extra_instructions=int(SCAN_OVERHEAD_PER_ELEMENT * nf.size),
                    memory_efficiency=COMPACTION_MEMORY_EFFICIENCY,
                    extra_overhead_s=compaction_sync_overhead_s(gpu.config),
                )
                gather.load(indexes_dev.walk())
                gather.load(count_dev.walk())
                gather.load(dev.edges.addresses(gather_indices))
                gather.store(ef_dev.walk())
                dev.add_scan_traffic(gather, nf.size)
                report.add(gpu.run(gather))
            elif mode is SystemMode.SCU_BASIC:
                ef_dev, phase = system.scu.access_expansion_compaction(
                    dev.edges, indexes_dev, count_dev, out="ef"
                )
                report.add(phase)
            else:  # SCU_ENHANCED, Algorithm 4: filtering pass + filtered gather
                ef_raw = graph.edges[gather_indices]
                scratch = ctx.array("ef.ids", ef_raw)
                pass_streams = [
                    sequential_read(indexes_dev, role="indexes"),
                    sequential_read(count_dev, role="count"),
                    gather_read(dev.edges, gather_indices),
                ]
                filter_mask, phase = system.scu.filter_unique_pass(
                    scratch, input_streams=pass_streams, out="ef.filter"
                )
                report.add(phase)
                ef_dev, phase = system.scu.access_expansion_compaction(
                    dev.edges,
                    indexes_dev,
                    count_dev,
                    element_bitmask=filter_mask,
                    out="ef",
                )
                report.add(phase)

            ef = np.asarray(ef_dev.values, dtype=np.int64)
            tracer.counter("frontier.edges", edges=ef.size)
            if ef.size == 0:
                nf_dev = ctx.array("nf", np.empty(0, dtype=np.int64))
                continue

            # ---- contraction: label test + culling on the GPU (all modes) ------
            unvisited = labels[ef] == UNREACHED
            keep = (
                unvisited
                & warp_cull(ef)
                & best_effort_cull(ef)
            )
            mask_dev = ctx.bitmask("contract.mask", keep)
            newly_visited = ef[keep]
            process = KernelSpec(
                "bfs.contract.process",
                PhaseKind.PROCESSING,
                threads=ef.size,
                instructions_per_thread=KERNEL_COSTS["contract.process"],
            )
            process.load(ef_dev.walk())
            process.load(dev.node_data.addresses(ef))  # divergent label lookups
            process.store(dev.node_data.addresses(newly_visited))
            process.store(mask_dev.walk())
            report.add(gpu.run(process))
            labels[newly_visited] = depth

            # ---- contraction: node-frontier compaction --------------------------
            if mode is SystemMode.GPU:
                nf_values = ef[keep]
                nf_dev = ctx.array("nf", nf_values)
                compact = KernelSpec(
                    "bfs.contract.compact",
                    PhaseKind.COMPACTION,
                    threads=ef.size,
                    instructions_per_thread=KERNEL_COSTS["contract.compact"],
                    extra_instructions=int(SCAN_OVERHEAD_PER_ELEMENT * ef.size),
                    memory_efficiency=COMPACTION_MEMORY_EFFICIENCY,
                    extra_overhead_s=compaction_sync_overhead_s(gpu.config),
                )
                compact.load(ef_dev.walk())
                compact.load(mask_dev.walk())
                compact.store(nf_dev.walk())
                dev.add_scan_traffic(compact, ef.size)
                report.add(gpu.run(compact))
            elif mode is SystemMode.SCU_BASIC:
                nf_dev, phase = system.scu.data_compaction(ef_dev, mask_dev, out="nf")
                report.add(phase)
            else:  # SCU_ENHANCED: extra hash-filter pass (lossy GPU cull leftovers)
                filter_mask, phase = system.scu.filter_unique_pass(ef_dev, out="nf.filter")
                report.add(phase)
                combined = ctx.bitmask("contract.mask+filter", keep & filter_mask.values)
                nf_dev, phase = system.scu.data_compaction(ef_dev, combined, out="nf")
                report.add(phase)
    else:
        raise SimulationError("BFS failed to converge within the iteration budget")

    return labels.copy(), finalize_report(report, system)
