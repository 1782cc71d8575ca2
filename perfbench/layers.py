"""Per-layer host-time tracing from outside the simulator.

The traced run wraps public functions at the sites that call them (a
module attribute, a class attribute or a dispatch-table entry) and
records, per layer, its *self* time (wall inside the layer minus the
part covered by nested wrapped layers), its call count, and a few
counts read from the wrapped calls' return values.

Nothing here edits the program's files; :func:`install` patches the
loaded modules and :meth:`LayerTracer.uninstall` restores them.  A site
that cannot be resolved is counted in ``<layer>.missing`` and left alone,
so a renamed function shows up as a missing site, never as a silent zero
or a crash.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Counts read from wrapped calls' return values: metric name ->
#: (numerator key, denominator key).  A plain count has no denominator.
COUNT_METRICS: Dict[str, Tuple[str, Optional[str]]] = {
    "mem.coalescer.addresses": ("coalescer.addresses", None),
    "mem.coalescer.transactions": ("coalescer.transactions", None),
    "mem.locality.lines": ("locality.lines", None),
    "mem.locality.unique_lines": ("locality.unique_lines", None),
    "mem.hierarchy.l2_hit_ratio": ("hierarchy.l2_hits", "hierarchy.transactions"),
    "mem.address_space.addresses": ("address_space.addresses", None),
    "backends.iru.elements": ("iru.elements", None),
    "core.filtering.kept_ratio": ("filtering.kept", "filtering.input"),
}


def _count_coalesce(counts, result) -> None:
    counts["coalescer.addresses"] += result.accesses
    counts["coalescer.transactions"] += result.transactions


def _count_profile(counts, result) -> None:
    counts["locality.lines"] += result.accesses
    counts["locality.unique_lines"] += result.unique_lines


def _count_hierarchy(counts, result) -> None:
    counts["hierarchy.l2_hits"] += result.l2_hits
    counts["hierarchy.transactions"] += result.transactions


def _count_addresses(counts, result) -> None:
    counts["address_space.addresses"] += result.size


def _count_iru(counts, result) -> None:
    if result is not None:
        counts["iru.elements"] += result[1]


def _count_filter(counts, result) -> None:
    counts["filtering.kept"] += int(result.sum())
    counts["filtering.input"] += result.size


#: Wrap sites per layer, in report order.  A site is ``(module, target)``
#: where target is ``name``, ``Class.name``, ``Class.*`` (every public
#: method defined on the class), ``module_attr.*`` (every public function
#: of a module reached through that attribute) or ``TABLE[*]`` (every
#: value of a dict).  The optional third item reads counts from the call.
SITES: Dict[str, List[tuple]] = {
    "graph": [("repro.algorithms.runner", "load_dataset")],
    "algorithms": [("repro.algorithms.runner", "ALGORITHMS[*]")],
    "core.ops": [
        ("repro.core.unit", "ops.*"),
        ("repro.algorithms.bfs", "expanded_indices"),
        ("repro.algorithms.sssp", "expanded_indices"),
        ("repro.algorithms.pagerank", "expanded_indices"),
        ("repro.algorithms.connected_components", "expanded_indices"),
    ],
    "core.filtering": [
        ("repro.core.unit", "filter_unique", _count_filter),
        ("repro.core.unit", "filter_best_cost", _count_filter),
    ],
    "core.grouping": [("repro.core.unit", "group_order")],
    "core.hashtable": [
        ("repro.core.unit", "hash_slots"),
        ("repro.core.unit", "table_addresses"),
    ],
    "core.unit": [("repro.core.unit", "StreamCompactionUnit.*")],
    "backends.iru": [
        ("repro.backends.iru", "IrregularAccessReorderUnit.intercept", _count_iru)
    ],
    "gpu.device": [("repro.gpu.device", "GpuDevice.run")],
    "mem.address_space": [
        ("repro.mem.address_space", "Allocation.addresses", _count_addresses)
    ],
    "mem.coalescer": [
        ("repro.gpu.device", "coalesce_warp", _count_coalesce),
        ("repro.core.pipeline", "coalesce_stream", _count_coalesce),
    ],
    "mem.locality": [
        ("repro.mem.hierarchy", "profile_lines", _count_profile),
        ("repro.mem.hierarchy", "estimate_hit_rate"),
    ],
    "mem.hierarchy": [
        ("repro.mem.hierarchy", "MemoryHierarchy.process", _count_hierarchy)
    ],
    "mem.dram": [
        ("repro.mem.hierarchy", "row_hit_fraction"),
        ("repro.mem.dram", "DramModel.*"),
    ],
    "timing": [
        ("repro.gpu.device", "kernel_timing"),
        ("repro.core.unit", "scu_op_timing"),
    ],
    "energy": [
        ("repro.gpu.device", "kernel_dynamic_energy_j"),
        ("repro.core.unit", "scu_op_dynamic_energy_j"),
    ],
    # The protocol module serves the in-process sweeps; the server binds
    # both names at import, so its sites are its own module attributes.
    "serve.protocol": [
        ("repro.serve.protocol", "encode"),
        ("repro.serve.protocol", "run_response"),
        ("repro.serve.server", "encode"),
        ("repro.serve.server", "run_response"),
    ],
}

LAYERS = tuple(SITES)


class _ThreadStats:
    """One thread's accumulators; merged when the snapshot is taken."""

    def __init__(self) -> None:
        self.stack: List[float] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)


class LayerTracer:
    """Self-time accounting for wrapped layer functions.

    ``clock`` is the time source: wall (``time.perf_counter``) for a
    single-threaded sweep, per-thread CPU (``time.thread_time``) inside
    the server, where two worker threads share one interpreter lock and
    wall time spent waiting for it would be charged to the waiting layer.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.missing: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self._local = threading.local()
        self._threads: List[_ThreadStats] = []
        self._threads_lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []

    def _stats(self) -> _ThreadStats:
        stats = getattr(self._local, "stats", None)
        if stats is None:
            stats = self._local.stats = _ThreadStats()
            with self._threads_lock:
                self._threads.append(stats)
        return stats

    def wrap(self, layer: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped so its time and calls land in ``layer``."""
        clock = self.clock
        thread_stats = self._stats
        missing = self.missing
        broken = False

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            nonlocal broken
            stats = thread_stats()
            stack = stats.stack
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    try:
                        count(stats.counts, result)
                    except (AttributeError, TypeError, IndexError):
                        # The return value changed shape: the site is broken.
                        if not broken:
                            broken = True
                            missing[layer] += 1
                return result
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats.self_s[layer] += elapsed - nested
                stats.calls[layer] += 1

        wrapper.__wrapped_layer__ = layer
        return wrapper

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._restore:
            self._restore.pop()()

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Merged raw accumulators (JSON-serializable)."""
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        counts: Dict[str, int] = defaultdict(int)
        with self._threads_lock:
            threads = list(self._threads)
        for stats in threads:
            for key, value in list(stats.self_s.items()):
                self_s[key] += value
            for key, value in list(stats.calls.items()):
                calls[key] += value
            for key, value in list(stats.counts.items()):
                counts[key] += value
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counts": dict(counts),
            "missing": dict(self.missing),
        }


def _patch(tracer: LayerTracer, layer: str, owner: Any, name: str, count) -> bool:
    """Wrap ``owner.name`` (a module or class attribute) in place."""
    if isinstance(owner, type):
        original = vars(owner).get(name)  # only what the class itself defines
    else:
        original = getattr(owner, name, None)
    if not callable(original) or isinstance(original, type):
        return False
    if hasattr(original, "__wrapped_layer__"):
        return True  # already wrapped through another site
    setattr(owner, name, tracer.wrap(layer, original, count))
    tracer._restore.append(lambda: setattr(owner, name, original))
    return True


def _public_functions(owner: Any) -> List[str]:
    """Public functions a class defines, or a module defines itself."""
    return [
        name
        for name, value in vars(owner).items()
        if not name.startswith("_")
        and callable(value)
        and not isinstance(value, type)
        and (isinstance(owner, type) or getattr(value, "__module__", None) == owner.__name__)
    ]


def _install_site(tracer: LayerTracer, layer: str, module_name: str, target: str, count) -> bool:
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    if target.endswith("[*]"):
        table = getattr(module, target[:-3], None)
        if not isinstance(table, dict) or not table:
            return False
        for key, original in list(table.items()):
            table[key] = tracer.wrap(layer, original, count)
            tracer._restore.append(
                lambda table=table, key=key, original=original: table.__setitem__(key, original)
            )
        return True
    head, _, attr = target.rpartition(".")
    owner = module
    if head:
        owner = getattr(module, head, None)
        if owner is None:
            return False
    if attr == "*":
        names = _public_functions(owner)
        return bool(names) and all(
            _patch(tracer, layer, owner, name, count) for name in names
        )
    return _patch(tracer, layer, owner, attr, count)


def install(tracer: LayerTracer, sites: Optional[Dict[str, List[tuple]]] = None) -> LayerTracer:
    """Wrap every site of every layer; unresolvable sites count as missing."""
    for layer, layer_sites in (SITES if sites is None else sites).items():
        tracer.missing.setdefault(layer, 0)
        for site in layer_sites:
            module_name, target = site[0], site[1]
            count = site[2] if len(site) > 2 else None
            if not _install_site(tracer, layer, module_name, target, count):
                tracer.missing[layer] += 1
    return tracer


def layer_metrics(totals: Dict[str, Dict[str, float]], wall_s: float) -> Dict[str, tuple]:
    """Per-layer metrics from raw totals over a traced interval.

    Returns ``name -> (value, unit)``.  ``other`` is the traced interval
    minus every layer's self time, so the self times and ``other`` sum
    to ``wall_s`` exactly.
    """
    metrics: Dict[str, tuple] = {}
    self_s = totals["self_s"]
    covered = 0.0
    for layer in LAYERS:
        seconds = float(self_s.get(layer, 0.0))
        covered += seconds
        metrics[f"{layer}.self_s"] = (seconds, "s")
        metrics[f"{layer}.share"] = (seconds / wall_s if wall_s > 0 else 0.0, "ratio")
        metrics[f"{layer}.calls"] = (int(totals["calls"].get(layer, 0)), "count")
        metrics[f"{layer}.missing"] = (int(totals["missing"].get(layer, 0)), "count")
    other = wall_s - covered
    metrics["other.self_s"] = (other, "s")
    metrics["other.share"] = (other / wall_s if wall_s > 0 else 0.0, "ratio")
    counts = totals["counts"]
    for name, (numerator, denominator) in COUNT_METRICS.items():
        if denominator is None:
            metrics[name] = (int(counts.get(numerator, 0)), "count")
        else:
            total = counts.get(denominator, 0)
            metrics[name] = (counts.get(numerator, 0) / total if total else 0.0, "ratio")
    return metrics
