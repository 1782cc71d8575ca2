"""Top-level driver: run any primitive on any system variant.

``run_algorithm`` resolves the requested mode to its registered
:class:`~repro.backends.base.AcceleratorBackend`, builds a fresh system
through it, executes the requested primitive, and returns a
:class:`~repro.request.RunOutcome` bundling the result array, the
:class:`~repro.phases.RunReport` every experiment consumes, and the
simulated system.  ``execute_request`` is the same entry point driven by
a typed :class:`~repro.request.RunRequest`; ``cached_run`` memoizes
whole runs under the request's canonical :meth:`cache_key` so one
benchmark session (or a long-lived service) can assemble all six
figures without re-simulating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..backends import get_backend
from ..core.api import PAPER_SCALE
from ..core.config import ScuConfig
from ..errors import ArgumentError, ExperimentError
from ..graph.csr import CsrGraph
from ..graph.datasets import load_dataset
from ..obs import LruCache, Observability
from ..phases import RunReport
from ..request import RunOutcome, RunRequest
from .bfs import run_bfs
from .common import SystemMode
from .connected_components import run_connected_components
from .pagerank import run_pagerank
from .sssp import run_sssp

ALGORITHMS: Dict[str, Callable] = {
    "bfs": run_bfs,
    "sssp": run_sssp,
    "pagerank": run_pagerank,
    # extension primitive, not part of the paper's evaluation grid
    "connected_components": run_connected_components,
}

#: Paper ordering of the evaluated primitives (the experiment grid).
ALGORITHM_NAMES = ("bfs", "sssp", "pagerank")


def run_algorithm(
    algorithm: str,
    graph: CsrGraph,
    gpu_name: str,
    mode: SystemMode,
    *,
    scu_config: ScuConfig | None = None,
    memory_scale: float = PAPER_SCALE,
    obs: Observability | None = None,
    **kwargs,
) -> RunOutcome:
    """Run one (algorithm, graph, GPU, system-mode) combination.

    ``memory_scale`` defaults to :data:`~repro.core.api.PAPER_SCALE` so
    experiment runs operate in the paper's working-set regime; pass 1.0
    to model the true hardware capacities.  ``obs`` injects an
    observability bundle (see :mod:`repro.obs`) through the whole stack;
    tracing is passive and leaves every simulated number unchanged.

    Returns a :class:`~repro.request.RunOutcome`; unpacking it as the
    legacy ``result, report, system`` tuple is deprecated — use the
    ``.result`` / ``.report`` / ``.system`` attributes.
    """
    if algorithm not in ALGORITHMS:
        known = ", ".join(ALGORITHMS)
        raise ExperimentError(f"unknown algorithm {algorithm!r}; known: {known}")
    backend = get_backend(mode)
    system = backend.build_system(
        gpu_name,
        scu_config=scu_config,
        memory_scale=memory_scale,
        obs=obs,
    )
    # The backend decides which per-phase dispatch path the drivers
    # take (the IRU runs the baseline structure; its hook lives in the
    # device's memory path); the report still names the backend.
    phase_mode = backend.phase_mode(algorithm)
    result, report = ALGORITHMS[algorithm](graph, system, phase_mode, **kwargs)
    report.system = backend.name
    return RunOutcome(result=result, report=report, system=system)


def execute_request(
    request: RunRequest, *, obs: Observability | None = None
) -> RunOutcome:
    """Execute one typed :class:`~repro.request.RunRequest`.

    The request names a registry dataset (loaded under ``request.seed``);
    its canonical ``kwargs`` are forwarded to :func:`run_algorithm`.
    This is the single execution path behind the figure drivers, the
    parallel sweep workers, and the ``repro serve`` service.
    """
    graph = load_dataset(request.dataset, seed=request.seed)
    return run_algorithm(
        request.algorithm,
        graph,
        request.gpu_name,
        request.mode,
        obs=obs,
        **dict(request.kwargs),
    )


def batch_compatibility_key(request: RunRequest) -> Tuple[str, int, str]:
    """Grouping key for cross-request fusion: ``(dataset, seed, gpu)``.

    Requests sharing this key simulate against the *same* loaded graph,
    so one load (and one warm accelerator working set) serves the whole
    group.  ``mode``, ``memory_scale``, and the algorithm stay
    per-request — they change the simulated system itself, not the
    input data, and fusing across them would change per-request bits.
    """
    return (request.dataset, request.seed, request.gpu_name)


@dataclass(frozen=True)
class BatchItem:
    """One request's result within a batched execution.

    ``simulated`` is False when the report came from a cache tier (or a
    duplicate earlier in the same batch); ``tier`` is ``"l1"``/``"l2"``
    for cache hits, ``None`` when the batch actually simulated it.  A
    request whose own run argument is bad gets no report but its
    :class:`~repro.errors.ArgumentError` in ``error``: it fails alone,
    not its whole batch.
    """

    request: RunRequest
    report: Optional[RunReport]
    simulated: bool
    tier: Optional[str] = None
    error: Optional[ArgumentError] = None


def run_batch(
    requests: Sequence[RunRequest],
    *,
    obs: Observability | None = None,
    use_cache: bool = True,
) -> List[BatchItem]:
    """Execute N requests as fused per-``(dataset, seed, gpu)`` groups.

    For each compatibility group the graph is loaded **once** and every
    distinct ``cache_key()`` is simulated **once** — duplicate requests
    (and, with ``use_cache``, previously memoized ones probed through a
    single :meth:`~repro.obs.LruCache.get_many` bulk lookup) reuse the
    same report object.  Results come back in input order, and every
    report is byte-identical to what :func:`execute_request` produces
    for the same request: the batched path changes *when* work happens,
    never what a request computes.
    """
    requests = list(requests)
    results: List[Optional[BatchItem]] = [None] * len(requests)
    groups: Dict[Tuple[str, int, str], List[int]] = {}
    for position, request in enumerate(requests):
        groups.setdefault(batch_compatibility_key(request), []).append(position)
    for key, positions in groups.items():
        dataset, seed, _gpu = key
        # In-group dedupe: one simulation per distinct canonical key.
        distinct: Dict[Tuple, List[int]] = {}
        for position in positions:
            distinct.setdefault(requests[position].cache_key(), []).append(position)
        cached: Dict[Tuple, RunReport] = {}
        tiers: Dict[Tuple, str] = {}
        if use_cache:
            cached = _RUN_CACHE.get_many(distinct.keys())
            tiers = {cache_key: "l1" for cache_key in cached}
            if _RESULT_STORE is not None:
                for cache_key in distinct:
                    if cache_key in cached:
                        continue
                    report = _RESULT_STORE.get(requests[distinct[cache_key][0]])
                    if report is not None:
                        cached[cache_key] = report
                        tiers[cache_key] = "l2"
                        _RUN_CACHE.put(cache_key, report)
        # One load serves every simulated member of the group; a fully
        # cached group never touches the dataset registry at all.
        graph = None
        if any(cache_key not in cached for cache_key in distinct):
            graph = load_dataset(dataset, seed=seed)
        for cache_key, members in distinct.items():
            report = cached.get(cache_key)
            simulated = report is None
            error = None
            if simulated:
                leader = requests[members[0]]
                try:
                    report = run_algorithm(
                        leader.algorithm,
                        graph,
                        leader.gpu_name,
                        leader.mode,
                        obs=obs,
                        **dict(leader.kwargs),
                    ).report
                except ArgumentError as bad:
                    simulated, error = False, bad
                else:
                    if use_cache:
                        put_cached_report(leader, report)
            for index, position in enumerate(members):
                results[position] = BatchItem(
                    request=requests[position],
                    report=report,
                    # Only the first occurrence of a key counts as the
                    # simulation; duplicates rode along for free.
                    simulated=simulated and index == 0,
                    tier=tiers.get(cache_key),
                    error=error,
                )
    return [item for item in results if item is not None]


#: LRU bound of the memoized-run cache: one benchmark session sweeps
#: 3 algorithms x 6 datasets on one GPU/mode pair at a time, so 32
#: entries cover a full figure without letting a long-lived process
#: (the ``repro serve`` daemon embedding the simulator) grow without
#: bound.
RUN_CACHE_SIZE = 32

_RUN_CACHE = LruCache(RUN_CACHE_SIZE, metrics_prefix="runner.cache")

#: Optional L2 below the in-memory run cache: a persistent,
#: content-addressed :class:`~repro.serve.store.ResultStore`.  ``None``
#: (the default) keeps the historical single-tier behaviour; the serve
#: daemon (``--store-dir``) and the CLI install one for cold-start
#: reuse.  Reads promote into L1; writes go to both tiers.
_RESULT_STORE = None


def set_result_store(store) -> None:
    """Install (or with ``None`` remove) the process-wide L2 store."""
    global _RESULT_STORE
    _RESULT_STORE = store


def get_result_store():
    """The installed L2 result store, or ``None``."""
    return _RESULT_STORE


def get_cached_report(request: RunRequest, *, with_tier: bool = False):
    """Read through the tiered cache: L1 (memory) then L2 (disk).

    An L2 hit is promoted into L1, so the disk is touched once per key
    per process lifetime under steady load.  With ``with_tier`` the
    return value is ``(report, tier)`` where tier is ``"l1"``, ``"l2"``
    or ``None`` — the serve telemetry layer uses it to attribute hits.
    """
    report = _RUN_CACHE.get(request.cache_key())
    tier: Optional[str] = "l1" if report is not None else None
    if report is None and _RESULT_STORE is not None:
        report = _RESULT_STORE.get(request)
        if report is not None:
            tier = "l2"
            _RUN_CACHE.put(request.cache_key(), report)
    if with_tier:
        return report, tier
    return report


def put_cached_report(request: RunRequest, report: RunReport) -> None:
    """Memoize a report in every tier under the request's canonical key."""
    _RUN_CACHE.put(request.cache_key(), report)
    if _RESULT_STORE is not None:
        _RESULT_STORE.put(request, report)


def cached_run(
    algorithm: str,
    dataset: str,
    gpu_name: str,
    mode: SystemMode,
    *,
    seed: int = 42,
) -> RunReport:
    """Memoized run on a registry dataset; returns only the report.

    The cache is LRU-bounded to :data:`RUN_CACHE_SIZE` entries and keyed
    by :meth:`RunRequest.cache_key`; hits and misses (and evictions) are
    recorded in the process-wide metrics registry under
    ``runner.cache.*``.
    """
    request = RunRequest.make(algorithm, dataset, gpu_name, mode, seed=seed)
    report = get_cached_report(request)
    if report is None:
        report = execute_request(request).report
        put_cached_report(request, report)
    return report


def clear_run_cache() -> None:
    """Drop memoized runs (tests use this to bound memory)."""
    _RUN_CACHE.clear()
