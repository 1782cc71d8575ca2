"""The GPU device model: executes :class:`KernelSpec` cost descriptions.

``GpuDevice.run`` is the single entry point the algorithms use for GPU
work: it records every access stream in the shared memory hierarchy's
stream log and returns a :class:`~repro.phases.PhaseReport` that settles
when the log is priced — every stream coalesced warp-by-warp, its
transactions pushed through the hierarchy, the timing and energy models
applied.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..mem.address_space import AddressGather, AddressWalk
from ..mem.coalescer import WARP_SIZE, coalesce_warp
from ..mem.hierarchy import MemoryHierarchy, MemoryStats
from ..obs import NULL_OBS, Observability
from ..phases import Engine, PhaseReport
from .config import GpuConfig
from .energy import kernel_dynamic_energy_j
from .kernel import KernelSpec
from .timing import kernel_timing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backends.iru import IrregularAccessReorderUnit


def scaled_l2_bytes(config: GpuConfig, memory_scale: float) -> int:
    """The modeled L2 capacity of ``config`` divided by ``memory_scale``."""
    if memory_scale == 1.0:
        return config.l2_bytes
    return int(config.l2_bytes / memory_scale)


@dataclass
class GpuDevice:
    """One GPU system (config + memory hierarchy).

    ``memory_scale`` divides the modeled L2 capacity at construction
    time (see :data:`~repro.core.api.PAPER_SCALE`), so the hierarchy is
    never resized after it exists — every component observes one
    consistent capacity for the device's whole lifetime.
    """

    config: GpuConfig
    obs: Observability = NULL_OBS
    memory_scale: float = 1.0
    #: optional IRU hook on the coalescer's input (see repro.backends.iru);
    #: None for every backend except ``iru``.
    reorderer: "IrregularAccessReorderUnit | None" = None
    hierarchy: MemoryHierarchy = field(init=False)

    def __post_init__(self) -> None:
        self.hierarchy = MemoryHierarchy(
            l2_capacity_bytes=scaled_l2_bytes(self.config, self.memory_scale),
            dram=self.config.dram,
            obs=self.obs,
        )

    def attach_obs(self, obs: Observability) -> None:
        """Point this device (and its memory hierarchy) at an observer."""
        self.obs = obs
        self.hierarchy.attach_obs(obs)

    def attach_reorderer(self, unit: "IrregularAccessReorderUnit") -> None:
        """Install an IRU on the coalescer input path (backend hook)."""
        self.reorderer = unit

    def run(self, spec: KernelSpec) -> PhaseReport:
        """Execute (cost-model) one kernel launch.

        The launch's streams are recorded in the hierarchy's stream log
        and priced later with every other pending launch; the returned
        report's cost fields settle then (see
        :class:`~repro.mem.hierarchy.StreamLog`).  The IRU, a functional
        reorder of the coalescer's input, runs now.

        DRAM time is summed per access stream rather than computed on
        the merged aggregate: interleaving a random gather with a
        sequential stream destroys the latter's row locality, so the
        streams effectively serialize at the DRAM — a divergent gather
        cannot hide under a streaming store's bandwidth.
        """
        tracer = self.obs.tracer
        log = self.hierarchy.log
        record = log.channel(coalesce_warp, warp_size=WARP_SIZE).record
        with tracer.span(
            spec.name, "gpu-kernel", **(spec.trace_args() if tracer.enabled else {})
        ) as span:
            iru_elements = 0
            for stream in spec.accesses:
                addresses = stream.addresses
                active_mask = stream.active_mask
                if (
                    self.reorderer is not None
                    and not stream.is_atomic
                    and not isinstance(addresses, AddressWalk)
                ):
                    # The unit bypasses regular (already-ordered) streams;
                    # only irregular ones enter the buffer and pay its cost.
                    # A walk is non-decreasing, so it never enters.  A
                    # gather enters as its addresses.
                    if isinstance(addresses, AddressGather):
                        addresses = addresses.materialize()
                    intercepted = self.reorderer.intercept(
                        addresses, active_mask=active_mask
                    )
                    if intercepted is not None:
                        addresses, count = intercepted
                        active_mask = None  # mask pre-applied by the unit
                        iru_elements += count
                record(addresses, active_mask=active_mask, l2_bypass=stream.l2_bypass)
        report = PhaseReport.pending(
            log,
            name=spec.name,
            engine=Engine.GPU,
            kind=spec.kind,
            elements=spec.threads,
            instructions=spec.total_instructions,
        )
        log.end_launch(
            functools.partial(
                self._finish,
                report,
                span,
                name=spec.name,
                instructions=spec.total_instructions,
                atomics=spec.atomic_count,
                memory_efficiency=spec.memory_efficiency,
                extra_overhead_s=spec.extra_overhead_s,
                iru_elements=iru_elements,
            ),
            report,
        )
        return report

    def _finish(
        self,
        report: PhaseReport,
        span,
        memory: MemoryStats,
        dram_s: float,
        stats,
        lo: int,
        hi: int,
        *,
        name: str,
        instructions: int,
        atomics: int,
        memory_efficiency: float,
        extra_overhead_s: float,
        iru_elements: int,
    ) -> None:
        """Settle one launch's report from its priced streams."""
        iru_overhead_s = 0.0
        iru_energy_j = 0.0
        if iru_elements:
            iru_overhead_s = self.reorderer.exposed_time_s(iru_elements)
            iru_energy_j = self.reorderer.dynamic_energy_j(iru_elements)
        timing = kernel_timing(
            self.config,
            self.hierarchy,
            instructions=instructions,
            memory=memory,
            atomics=atomics,
            memory_efficiency=memory_efficiency,
            dram_s_override=dram_s,
            obs=self.obs,
        )
        energy = kernel_dynamic_energy_j(
            self.config,
            self.hierarchy,
            instructions=instructions,
            memory=memory,
            atomics=atomics,
            busy_time_s=timing.total_s + extra_overhead_s,
        )
        time_s = timing.total_s + extra_overhead_s + iru_overhead_s
        energy += iru_energy_j
        if self.obs.enabled:
            metrics = self.obs.metrics
            metrics.counter("gpu.kernel.launches").inc(kernel=name)
            metrics.counter("gpu.kernel.transactions").inc(memory.transactions)
            if memory.transactions:
                metrics.histogram("gpu.warp.coalesce_factor").observe(
                    memory.coalescing_factor, kernel=name
                )
            if iru_elements:
                metrics.counter("iru.kernel.elements").inc(iru_elements, kernel=name)
                metrics.counter("iru.kernel.exposed_s").inc(iru_overhead_s)
            span.annotate(
                sim_time_s=time_s,
                sim_energy_j=energy,
                bottleneck=timing.bottleneck,
                transactions=memory.transactions,
                dram_bytes=memory.dram_bytes,
            )
        report.settle(time_s, energy, memory)
