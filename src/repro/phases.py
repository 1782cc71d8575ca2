"""Phase reporting shared by the GPU and SCU engines.

Every simulated kernel or SCU operation produces a :class:`PhaseReport`;
a full algorithm run aggregates them into a :class:`RunReport`.  The
figure drivers consume these:

* Figure 1 needs the COMPACTION / PROCESSING time split;
* Figures 9-10 need the GPU / SCU time and energy split;
* Figure 12 needs per-phase coalescing factors;
* Figure 13 needs DRAM bytes and total runtime.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import SimulationError
from .mem.hierarchy import MemoryStats


class Engine(enum.Enum):
    """Which hardware executed a phase."""

    GPU = "gpu"
    SCU = "scu"


class PhaseKind(enum.Enum):
    """The paper's Figure 1 dichotomy."""

    COMPACTION = "compaction"
    PROCESSING = "processing"


#: The fields a pending report fills in when its stream log is priced.
COST_FIELDS = ("time_s", "dynamic_energy_j", "memory")


@dataclass(frozen=True)
class PhaseReport:
    """Cost accounting of one kernel launch or SCU operation.

    The engines return a *pending* report (:meth:`pending`): its cost
    fields are filled in when the hierarchy's stream log is priced,
    which the first read of any of them triggers.  A settled report
    holds no reference to the log; reading a cost field of a report
    whose pricing failed raises :class:`~repro.errors.SimulationError`.
    """

    name: str
    engine: Engine
    kind: PhaseKind
    elements: int  # threads (GPU) or stream elements (SCU)
    instructions: int  # thread-instructions (GPU) or pipeline slots (SCU)
    time_s: float
    dynamic_energy_j: float
    memory: MemoryStats = field(default_factory=MemoryStats)

    def __post_init__(self) -> None:
        _check_cost(self.name, self.time_s, self.dynamic_energy_j)

    @classmethod
    def pending(cls, log, **fields) -> "PhaseReport":
        """A report whose cost fields ``log.flush()`` will settle."""
        report = object.__new__(cls)
        vars(report).update(fields, _log=log)
        return report

    def settle(self, time_s: float, dynamic_energy_j: float, memory: MemoryStats) -> None:
        """Fill in a pending report's cost fields (the log's flush)."""
        _check_cost(self.name, time_s, dynamic_energy_j)
        state = vars(self)
        state.update(time_s=time_s, dynamic_energy_j=dynamic_energy_j, memory=memory)
        del state["_log"]

    def fail(self, error: BaseException) -> None:
        """Mark a still pending report whose pricing raised ``error``."""
        state = vars(self)
        if state.pop("_log", None) is not None:
            state["_failure"] = error

    def __getattr__(self, name: str):
        # Reached only for attributes not set yet: a pending or failed
        # cost field.
        state = vars(self)
        if name not in COST_FIELDS:
            raise AttributeError(name)
        log = state.get("_log")
        if log is not None:
            log.flush()
            if name in state:
                return state[name]
        raise SimulationError(
            f"phase {state['name']}: pricing its launch failed"
        ) from state.get("_failure")

    def __getstate__(self) -> dict:
        if "_log" in vars(self):
            self._log.flush()
        return vars(self)


def _check_cost(name: str, time_s: float, dynamic_energy_j: float) -> None:
    if time_s < 0 or dynamic_energy_j < 0:
        raise ValueError(f"phase {name}: negative cost")


@dataclass
class RunReport:
    """Aggregate of all phases of one algorithm run on one system."""

    algorithm: str
    system: str  # a registered mode string (repro.backends.available_modes)
    dataset: str
    phases: list[PhaseReport] = field(default_factory=list)
    static_energy_j: float = 0.0  # filled in by the runner after timing

    def add(self, phase: PhaseReport) -> None:
        self.phases.append(phase)

    def extend(self, phases: Iterable[PhaseReport]) -> None:
        self.phases.extend(phases)

    def __iter__(self) -> Iterator[PhaseReport]:
        return iter(self.phases)

    # -- selections --------------------------------------------------------

    def select(
        self, *, engine: Engine | None = None, kind: PhaseKind | None = None
    ) -> list[PhaseReport]:
        out = self.phases
        if engine is not None:
            out = [p for p in out if p.engine == engine]
        if kind is not None:
            out = [p for p in out if p.kind == kind]
        return out

    # -- aggregates ---------------------------------------------------------

    def time_s(self, *, engine: Engine | None = None, kind: PhaseKind | None = None) -> float:
        return sum(p.time_s for p in self.select(engine=engine, kind=kind))

    def dynamic_energy_j(
        self, *, engine: Engine | None = None, kind: PhaseKind | None = None
    ) -> float:
        return sum(p.dynamic_energy_j for p in self.select(engine=engine, kind=kind))

    def total_energy_j(self) -> float:
        return self.dynamic_energy_j() + self.static_energy_j

    def instructions(self, *, engine: Engine | None = None) -> int:
        return sum(p.instructions for p in self.select(engine=engine))

    def memory(self, *, engine: Engine | None = None) -> MemoryStats:
        total = MemoryStats()
        for phase in self.select(engine=engine):
            total = total.merged(phase.memory)
        return total

    def compaction_time_fraction(self) -> float:
        """Figure 1's quantity: fraction of run time spent compacting.

        An empty report has no meaningful split — returning 0.0 would
        silently conflate "no phases ran" with "no time was spent
        compacting" — so it yields ``nan``, which propagates loudly
        through any averaging instead of biasing it.
        """
        total = self.time_s()
        if total == 0:
            return float("nan")
        return self.time_s(kind=PhaseKind.COMPACTION) / total

    def dram_bytes(self) -> int:
        return sum(p.memory.dram_bytes for p in self.phases)
