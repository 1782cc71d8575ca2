"""The Stream Compaction Unit — functional behaviour plus cost model.

``StreamCompactionUnit`` is the paper's contribution as an executable
object.  Every method:

1. computes the operation's *result* with the exact functional
   semantics of :mod:`repro.core.ops` (or the hash-table algorithms of
   :mod:`repro.core.filtering` / :mod:`repro.core.grouping`);
2. constructs the operation's *address streams* (which vectors were
   walked, which were gathered) via :mod:`repro.core.pipeline`;
3. records them in the shared memory hierarchy's stream log and returns
   the result together with a :class:`~repro.phases.PhaseReport` that
   settles — through the SCU timing and energy models — when the log is
   priced.

The enhanced SCU's two-step filtering/grouping protocol (Section 4.1)
maps onto: a ``*_pass`` method that produces the bitmask / reorder
vector (step one), and a compaction method taking ``bitmask=`` /
``reorder=`` operands (step two).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ..errors import OperationError
from ..mem.address_space import DeviceArray, DeviceContext
from ..mem.coalescer import LINE_BYTES
from ..mem.hierarchy import MemoryHierarchy, MemoryStats, StreamStats
from ..obs import NULL_OBS, Observability
from ..phases import Engine, PhaseKind, PhaseReport
from . import ops
from .config import HashTableConfig, ScuConfig
from .energy import scu_op_dynamic_energy_j
from .filtering import filter_best_cost, filter_unique
from .grouping import group_order
from .hashtable import hash_slots, table_addresses
from .pipeline import (
    ScuStream,
    bitmask_read,
    gather_read,
    hash_probe,
    observe_scu_streams,
    record_scu_streams,
    sequential_read,
    sequential_write,
    walk_read,
)
from .timing import scu_op_timing


def _traced(method):
    """Wrap an SCU operation in a tracer span named after it."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        tracer = self.obs.tracer
        if not tracer.enabled:
            return method(self, *args, **kwargs)
        with tracer.span(f"scu.{method.__name__}", "scu"):
            return method(self, *args, **kwargs)

    return wrapper


@dataclass
class StreamCompactionUnit:
    """One SCU instance attached to a GPU's memory hierarchy."""

    config: ScuConfig
    hierarchy: MemoryHierarchy
    ctx: DeviceContext
    l2_bandwidth_bps: float
    obs: Observability = NULL_OBS
    #: hash tables live in main memory; give each a stable base address.
    _hash_bases: dict = field(default_factory=dict)

    # -- internals -------------------------------------------------------------

    def _hash_base(self, table: HashTableConfig) -> int:
        if table.name not in self._hash_bases:
            alloc = self.ctx.space.alloc(
                f"scu.hash.{table.name}", table.num_entries, table.bytes_per_entry
            )
            self._hash_bases[table.name] = alloc.base
        return self._hash_bases[table.name]

    def _report(
        self,
        name: str,
        *,
        elements: int,
        streams: list[ScuStream],
        hash_probes: int = 0,
    ) -> PhaseReport:
        """Record the operation's streams and return its pending report,
        settled when the hierarchy's stream log is priced."""
        log = self.hierarchy.log
        record_scu_streams(streams, self.config, log)
        phase_args = None
        if self.obs.enabled:
            phase_args = self.obs.tracer.instant(
                "scu.phase", "scu", phase=name, elements=elements
            )
        report = PhaseReport.pending(
            log,
            name=name,
            engine=Engine.SCU,
            kind=PhaseKind.COMPACTION,
            elements=elements,
            instructions=elements,  # one pipeline slot per element
        )
        log.end_launch(
            functools.partial(
                self._finish,
                report,
                phase_args,
                [stream.role for stream in streams],
                hash_probes=hash_probes,
            ),
            report,
        )
        return report

    def _finish(
        self,
        report: PhaseReport,
        phase_args: dict | None,
        roles: list[str],
        memory: MemoryStats,
        dram_s: float,
        stats: StreamStats,
        lo: int,
        hi: int,
        *,
        hash_probes: int,
    ) -> None:
        """Settle one operation's report from its priced streams."""
        elements = report.elements
        timing = scu_op_timing(
            self.config,
            self.hierarchy,
            elements=elements,
            memory=memory,
            l2_bandwidth_bps=self.l2_bandwidth_bps,
            dram_s_override=dram_s,
        )
        energy = scu_op_dynamic_energy_j(
            self.config,
            self.hierarchy,
            elements=elements,
            memory=memory,
            hash_probes=hash_probes,
            busy_time_s=timing.total_s,
        )
        if self.obs.enabled:
            observe_scu_streams(self.obs, roles, stats, lo, hi)
            op = report.name.split("(", 1)[0]
            metrics = self.obs.metrics
            metrics.counter("scu.op.count").inc(op=op)
            metrics.counter("scu.op.elements").inc(elements, op=op)
            metrics.counter("scu.op.sim_time_s").inc(timing.total_s, op=op)
            metrics.counter("scu.op.bottleneck").inc(term=timing.bottleneck)
            if hash_probes:
                metrics.counter("scu.hash.probes").inc(hash_probes)
            if phase_args is not None:  # traced when recorded
                phase_args.update(
                    sim_time_s=timing.total_s,
                    sim_energy_j=energy,
                    bottleneck=timing.bottleneck,
                    dram_bytes=memory.dram_bytes,
                )
        report.settle(timing.total_s, energy, memory)

    def _output(self, name: str, values: np.ndarray, elem_bytes: int = 4) -> DeviceArray:
        return self.ctx.array(name, values, elem_bytes=elem_bytes)

    @staticmethod
    def _apply_reorder(values: np.ndarray, reorder: DeviceArray | None) -> np.ndarray:
        if reorder is None:
            return values
        perm = np.asarray(reorder.values, dtype=np.int64)
        if perm.size != values.size:
            raise OperationError(
                f"reorder vector length {perm.size} != compacted length {values.size}"
            )
        return values[perm]

    def _reorder_streams(
        self, reorder: DeviceArray | None
    ) -> list[ScuStream]:
        if reorder is None:
            return []
        return [sequential_read(reorder, role="indexes")]

    # -- the five operations (Figure 6) -----------------------------------------

    @_traced
    def bitmask_constructor(
        self,
        data: DeviceArray,
        comparison: str,
        reference: float,
        *,
        out: str = "bitmask",
    ) -> tuple[DeviceArray, PhaseReport]:
        """Compare every element against ``reference``; emit a bitmask."""
        mask = ops.bitmask_constructor(data.values, comparison, reference)
        out_array = self.ctx.bitmask(out, mask)
        streams = [
            sequential_read(data),
            sequential_write(out_array),
        ]
        report = self._report(
            f"scu.bitmask({data.name})", elements=data.size, streams=streams
        )
        return out_array, report

    @_traced
    def data_compaction(
        self,
        data: DeviceArray,
        bitmask: DeviceArray,
        *,
        out: str = "compacted",
        reorder: DeviceArray | None = None,
    ) -> tuple[DeviceArray, PhaseReport]:
        """Figure 6 Data Compaction, optionally applying a grouping order."""
        compacted = ops.data_compaction(data.values, bitmask.values)
        compacted = self._apply_reorder(compacted, reorder)
        out_array = self._output(out, compacted)
        streams = [
            sequential_read(data),
            bitmask_read(bitmask),
            *self._reorder_streams(reorder),
            sequential_write(out_array),
        ]
        report = self._report(
            f"scu.data_compaction({data.name})", elements=data.size, streams=streams
        )
        return out_array, report

    @_traced
    def access_compaction(
        self,
        data: DeviceArray,
        indexes: DeviceArray,
        bitmask: DeviceArray,
        *,
        out: str = "compacted",
    ) -> tuple[DeviceArray, PhaseReport]:
        """Figure 6 Access Compaction: filtered gather through an index vector."""
        gathered = ops.access_compaction(data.values, indexes.values, bitmask.values)
        out_array = self._output(out, gathered)
        valid_indices = np.asarray(indexes.values, dtype=np.int64)[bitmask.values]
        streams = [
            sequential_read(indexes, role="indexes"),
            bitmask_read(bitmask),
            gather_read(data, valid_indices),
            sequential_write(out_array),
        ]
        report = self._report(
            f"scu.access_compaction({data.name})",
            elements=indexes.size,
            streams=streams,
        )
        return out_array, report

    @_traced
    def replication_compaction(
        self,
        data: DeviceArray,
        count: DeviceArray,
        bitmask: DeviceArray | None = None,
        *,
        out: str = "replicated",
    ) -> tuple[DeviceArray, PhaseReport]:
        """Figure 6 Replication Compaction: replicate each element count[i] times."""
        mask_values = None if bitmask is None else bitmask.values
        replicated = ops.replication_compaction(data.values, count.values, mask_values)
        out_array = self._output(out, replicated)
        streams = [
            sequential_read(data),
            sequential_read(count, role="count"),
            *([] if bitmask is None else [bitmask_read(bitmask)]),
            sequential_write(out_array),
        ]
        # The pipeline occupies a slot per *output* element while replaying.
        elements = max(data.size, out_array.size)
        report = self._report(
            f"scu.replication({data.name})", elements=elements, streams=streams
        )
        return out_array, report

    @_traced
    def access_expansion_compaction(
        self,
        data: DeviceArray,
        indexes: DeviceArray,
        count: DeviceArray,
        bitmask: DeviceArray | None = None,
        *,
        out: str = "expanded",
        element_bitmask: DeviceArray | None = None,
        reorder: DeviceArray | None = None,
    ) -> tuple[DeviceArray, PhaseReport]:
        """Figure 6 Access Expansion Compaction: ranged gather (CSR expansion).

        ``bitmask`` filters *index entries* (whole nodes); in the
        enhanced two-step protocol ``element_bitmask`` filters the
        *expanded stream* element-wise using the vector a prior
        filtering pass produced, and ``reorder`` applies a grouping
        order.  The Address Generator skips filtered elements, so only
        surviving elements are fetched.
        """
        mask_values = None if bitmask is None else bitmask.values
        starts, counts = ops.expansion_ranges(
            data.values, indexes.values, count.values, mask_values
        )
        # Back-to-back ranges that nothing filters or reorders are one
        # walk over the data: its values are a slice and its fetches a
        # sequential stream.
        first = None
        if bitmask is None and element_bitmask is None and reorder is None:
            first = ops.contiguous_expansion_start(starts, counts)
        if first is not None:
            total = int(counts.sum())
            expanded = np.array(data.values[first : first + total])
            data_read = walk_read(data, first, total)
        else:
            # One index build serves both the gathered values and the
            # gather stream's addresses.
            gather_indices = ops.expanded_indices(starts, counts)
            expanded = np.asarray(data.values)[gather_indices]
            if element_bitmask is not None:
                element_mask = np.asarray(element_bitmask.values, dtype=bool)
                if element_mask.size != expanded.size:
                    raise OperationError(
                        f"element bitmask length {element_mask.size} != "
                        f"expanded length {expanded.size}"
                    )
                expanded = expanded[element_mask]
                gather_indices = gather_indices[element_mask]
            expanded = self._apply_reorder(expanded, reorder)
            data_read = gather_read(data, gather_indices)
        out_array = self._output(out, expanded)
        streams = [
            sequential_read(indexes, role="indexes"),
            sequential_read(count, role="count"),
            *([] if bitmask is None else [bitmask_read(bitmask)]),
            *([] if element_bitmask is None else [bitmask_read(element_bitmask)]),
            *self._reorder_streams(reorder),
            data_read,
            sequential_write(out_array),
        ]
        # Pipeline occupancy: with an element bitmask the unit still
        # streams (and mask-checks) every input element; only the fetch
        # and the write shrink.  Without one, occupancy follows the
        # expanded output.
        elements = (
            element_bitmask.values.size
            if element_bitmask is not None
            else out_array.size
        )
        report = self._report(
            f"scu.expansion({data.name})", elements=elements, streams=streams
        )
        return out_array, report

    # -- enhanced SCU: filtering and grouping passes (Section 4) ---------------

    @_traced
    def filter_unique_pass(
        self,
        ids: DeviceArray,
        *,
        out: str = "filter_mask",
        input_streams: list[ScuStream] | None = None,
    ) -> tuple[DeviceArray, PhaseReport]:
        """Step one of filtering for BFS: build the keep bitmask.

        ``input_streams`` overrides how the id stream reaches the unit —
        the expansion-time filtering pass of Algorithm 4 re-runs the
        ranged gather rather than reading a materialized array.
        """
        table = self.config.filter_bfs_hash
        keep = filter_unique(
            np.asarray(ids.values, dtype=np.int64), table, obs=self.obs
        )
        out_array = self.ctx.bitmask(out, keep)
        slots = hash_slots(np.asarray(ids.values, dtype=np.int64), table.num_entries)
        streams = [
            *(input_streams if input_streams is not None else [sequential_read(ids)]),
            hash_probe(
                table_addresses(
                    slots, base=self._hash_base(table), bytes_per_entry=table.bytes_per_entry
                )
            ),
            sequential_write(out_array),
        ]
        report = self._report(
            f"scu.filter_unique({ids.name})",
            elements=ids.size,
            streams=streams,
            hash_probes=ids.size,
        )
        return out_array, report

    @_traced
    def filter_best_cost_pass(
        self,
        ids: DeviceArray,
        costs: DeviceArray,
        *,
        out: str = "filter_mask",
        input_streams: list[ScuStream] | None = None,
    ) -> tuple[DeviceArray, PhaseReport]:
        """Step one of filtering for SSSP: unique-best-cost bitmask."""
        table = self.config.filter_sssp_hash
        keep = filter_best_cost(
            np.asarray(ids.values, dtype=np.int64),
            np.asarray(costs.values, dtype=np.float64),
            table,
            obs=self.obs,
        )
        out_array = self.ctx.bitmask(out, keep)
        slots = hash_slots(np.asarray(ids.values, dtype=np.int64), table.num_entries)
        default_streams = [
            sequential_read(ids),
            sequential_read(costs, role="count"),
        ]
        streams = [
            *(input_streams if input_streams is not None else default_streams),
            hash_probe(
                table_addresses(
                    slots, base=self._hash_base(table), bytes_per_entry=table.bytes_per_entry
                )
            ),
            sequential_write(out_array),
        ]
        report = self._report(
            f"scu.filter_best_cost({ids.name})",
            elements=ids.size,
            streams=streams,
            hash_probes=ids.size,
        )
        return out_array, report

    @_traced
    def grouping_pass(
        self,
        destinations: DeviceArray,
        *,
        node_data_base: int = 0,
        elem_bytes: int = 4,
        out: str = "group_order",
        input_streams: list[ScuStream] | None = None,
    ) -> tuple[DeviceArray, PhaseReport]:
        """Step one of grouping: reorder vector clustering same-line destinations.

        ``destinations`` holds the destination *node ids* of the stream's
        edges; the memory block of an edge is the cache line its node's
        data occupies.
        """
        table = self.config.grouping_hash
        dest_ids = np.asarray(destinations.values, dtype=np.int64)
        blocks = (node_data_base + dest_ids * elem_bytes) // LINE_BYTES
        perm = group_order(
            blocks, table, group_size=self.config.group_size, obs=self.obs
        )
        out_array = self._output(out, perm)
        slots = hash_slots(blocks, table.num_entries)
        streams = [
            *(
                input_streams
                if input_streams is not None
                else [sequential_read(destinations)]
            ),
            hash_probe(
                table_addresses(
                    slots, base=self._hash_base(table), bytes_per_entry=table.bytes_per_entry
                )
            ),
            sequential_write(out_array),
        ]
        report = self._report(
            f"scu.grouping({destinations.name})",
            elements=destinations.size,
            streams=streams,
            hash_probes=destinations.size,
        )
        return out_array, report
