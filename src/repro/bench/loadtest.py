"""Service-level load harness (``repro loadtest``).

``repro bench`` measures the simulator; nothing measured the *service*
wrapped around it.  This module drives a ``repro serve`` instance —
in-process by default, or any URL — with a reproducible request mix:

* a fixed **key population** (algorithm x dataset x GPU x mode cells)
  sampled with **zipf-skewed popularity**, so a few hot keys dominate
  exactly the way the run cache and single-flight coalescing are
  designed to exploit;
* a **closed loop** (``clients`` callers issuing back-to-back) or an
  **open loop** (a fixed arrival rate that does not slow down when the
  service does — the load shape that actually exposes queueing);
* client-observed p50/p95/p99 latency and throughput, plus
  server-side truth scraped from ``/metrics`` before and after the run
  (coalesce/cache ratios from counter deltas, stage-latency quantiles
  from ``_bucket`` deltas).

The schedule is a pure function of the config's seed, so two runs of
the same build issue byte-identical request sequences; only the wall
clock differs.  Results serialize as schema-versioned
``BENCH_serve_<tag>.json`` artifacts and gate through the same
``--compare`` exit-2 contract as ``bench``/``--micro``, with an extra
``--slo`` gate (exit 3) for absolute service-level objectives.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..backends import available_modes
from ..errors import BenchError
from ..obs.promtext import (
    bucket_cumulative,
    diff_cumulative,
    parse_exposition,
    sum_by_name,
)
from ..obs.metrics import quantile_from_buckets
from ..obs.propagation import TraceContext, format_traceparent
from ..obs.spans import SpanRecord, perf_to_epoch_us, spans_to_chrome
from ..request import RunRequest
from .compare import V_FASTER, V_MISSING, V_WALL, CompareReport, Finding
from .record import collect_provenance

#: Bump on any backwards-incompatible change to the serve-artifact layout.
SERVE_SCHEMA_VERSION = 1

#: Distinguishes serve artifacts from grid/micro artifacts at load time.
SERVE_KIND = "bench-serve"

#: Verdict label for an absolute-rate regression (429/504/error ratios).
V_RATE = "RATE-REGRESSION"

#: Verdict label for an SLO violation (``--slo``, exit 3).
V_SLO = "SLO-VIOLATION"

#: Workload fields that must match between baseline and current for a
#: comparison to be meaningful.  Service sizing (workers, queue depth,
#: timeouts) is deliberately NOT here: sizing is the thing a loadtest
#: tunes, so changing it must *compare*, not bail.
WORKLOAD_FIELDS: Tuple[str, ...] = (
    "mode",
    "requests",
    "clients",
    "rate",
    "algorithms",
    "datasets",
    "gpus",
    "modes",
    "keys",
    "zipf_s",
    "burst_datasets",
    "seed",
)

#: Latency percentiles carried by every artifact, in report order.
LATENCY_STATS: Tuple[str, ...] = ("p50_ms", "p95_ms", "p99_ms", "mean_ms", "max_ms")

#: Outcome-rate fields gated by ``--compare`` (absolute tolerance) and
#: available to ``--slo``.
RATE_STATS: Tuple[str, ...] = (
    "error_rate",
    "rejected_429_rate",
    "timeout_504_rate",
)

#: SLO keys: maps the ``--slo name=value`` vocabulary onto artifact
#: fields.  ``throughput_rps`` is a floor; everything else a ceiling.
SLO_CEILINGS: Tuple[str, ...] = LATENCY_STATS + RATE_STATS
SLO_FLOORS: Tuple[str, ...] = ("throughput_rps",)


@dataclass(frozen=True)
class LoadtestConfig:
    """One reproducible load shape (CLI flags map 1:1)."""

    mode: str = "closed"  # "closed" | "open"
    requests: int = 120
    clients: int = 4  # closed loop: concurrent callers
    rate: float = 20.0  # open loop: arrivals per second
    algorithms: Tuple[str, ...] = ("bfs",)
    datasets: Tuple[str, ...] = ("delaunay", "human", "kron")
    gpus: Tuple[str, ...] = ("TX1",)
    #: every registered backend mode, in registry order
    modes: Tuple[str, ...] = field(default_factory=lambda: tuple(available_modes()))
    keys: int = 12  # population: the first N cells (at most the grid size)
    zipf_s: float = 1.1  # popularity skew exponent (0 = uniform)
    #: >1 emits the schedule in same-dataset bursts of this length: a
    #: zipf-drawn leader key is followed by burst-1 keys sharing its
    #: dataset, so micro-batching (``batch_window_ms``) actually sees
    #: compatible neighbours in flight instead of a shuffled mix.
    burst_datasets: int = 0
    seed: int = 42
    # in-process server sizing (ignored when targeting an external URL)
    workers: int = 2
    queue_depth: int = 8
    request_timeout_s: Optional[float] = None
    http_timeout_s: float = 120.0
    #: micro-batching admission window of the in-process server
    #: (``serve --batch-window-ms``); 0 disables batching.
    batch_window_ms: float = 0.0
    batch_max: int = 8
    #: >0 starts an in-process LocalCluster (that many worker daemons
    #: behind the consistent-hash front) instead of a single server.
    cluster_workers: int = 0
    #: L2 result-store directory of the in-process server/cluster;
    #: ``None`` keeps the memory-only tier.  A warm directory makes a
    #: cold-start run serve from disk (the per-tier ratios show it).
    store_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise BenchError(
                f"loadtest mode must be 'closed' or 'open', got {self.mode!r}"
            )
        if self.requests < 1:
            raise BenchError(f"need at least 1 request, got {self.requests}")
        if self.clients < 1:
            raise BenchError(f"need at least 1 client, got {self.clients}")
        if self.rate <= 0:
            raise BenchError(f"arrival rate must be positive, got {self.rate}")
        if self.keys < 1:
            raise BenchError(f"need at least 1 key, got {self.keys}")
        if self.zipf_s < 0:
            raise BenchError(f"zipf exponent must be >= 0, got {self.zipf_s}")
        if self.burst_datasets < 0:
            raise BenchError(
                f"burst length must be >= 0, got {self.burst_datasets}"
            )

    def workload_dict(self) -> Dict[str, Any]:
        """The fields two comparable artifacts must agree on."""
        payload: Dict[str, Any] = {}
        for name in WORKLOAD_FIELDS:
            value = getattr(self, name)
            payload[name] = list(value) if isinstance(value, tuple) else value
        return payload

    def to_dict(self) -> Dict[str, Any]:
        payload = self.workload_dict()
        payload.update(
            workers=self.workers,
            queue_depth=self.queue_depth,
            request_timeout_s=self.request_timeout_s,
            http_timeout_s=self.http_timeout_s,
            cluster_workers=self.cluster_workers,
            store_dir=self.store_dir,
            batch_window_ms=self.batch_window_ms,
            batch_max=self.batch_max,
        )
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "LoadtestConfig":
        kwargs = dict(payload)
        for name in ("algorithms", "datasets", "gpus", "modes"):
            if name in kwargs:
                kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs)


def build_population(config: LoadtestConfig) -> List[RunRequest]:
    """The key population: the first ``keys`` grid cells, in rank order.

    Rank order *is* popularity order — rank 0 gets the largest zipf
    weight — and enumerates modes innermost so the population mixes
    system modes before it mixes datasets.
    """
    cells: List[RunRequest] = []
    for algorithm in config.algorithms:
        for dataset in config.datasets:
            for gpu in config.gpus:
                for mode in config.modes:
                    cells.append(
                        RunRequest.make(
                            algorithm, dataset, gpu, mode, seed=config.seed
                        )
                    )
    if not cells:
        raise BenchError("loadtest population is empty")
    if config.keys > len(cells):
        raise BenchError(
            f"--keys {config.keys} exceeds the {len(cells)}-cell grid "
            f"({len(config.algorithms)} algorithms x {len(config.datasets)} "
            f"datasets x {len(config.gpus)} GPUs x {len(config.modes)} modes)"
        )
    return cells[: config.keys]


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalized zipf popularity of ranks ``1..n`` (``s=0`` = uniform)."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-s
    return weights / weights.sum()


def build_schedule(
    config: LoadtestConfig,
    population_size: int,
    datasets: Optional[Sequence[str]] = None,
) -> np.ndarray:
    """Per-request key indices; a pure function of the config seed.

    With ``burst_datasets > 1`` (and ``datasets`` naming each key's
    dataset) the schedule is emitted in bursts: one zipf-drawn leader
    key followed by ``burst_datasets - 1`` keys restricted to the
    leader's dataset (zipf weights renormalized within it).  Adjacent
    requests then share a batching compatibility key, which is exactly
    the arrival shape the serve micro-batching window fuses.
    """
    rng = np.random.default_rng(config.seed)
    weights = zipf_weights(population_size, config.zipf_s)
    if config.burst_datasets <= 1 or datasets is None:
        return rng.choice(population_size, size=config.requests, p=weights)
    by_dataset: Dict[str, List[int]] = {}
    for index, name in enumerate(datasets):
        by_dataset.setdefault(name, []).append(index)
    schedule = np.empty(config.requests, dtype=np.int64)
    position = 0
    while position < config.requests:
        leader = int(rng.choice(population_size, p=weights))
        peers = np.asarray(by_dataset[datasets[leader]], dtype=np.int64)
        peer_weights = weights[peers] / weights[peers].sum()
        length = min(config.burst_datasets, config.requests - position)
        schedule[position] = leader
        if length > 1:
            schedule[position + 1 : position + length] = rng.choice(
                peers, size=length - 1, p=peer_weights
            )
        position += length
    return schedule


# ---------------------------------------------------------------------------
# HTTP client
# ---------------------------------------------------------------------------


@dataclass
class RequestResult:
    """One client-side observation."""

    index: int
    key_index: int
    status: int
    latency_s: float
    request_id: Optional[str] = None
    trace_id: Optional[str] = None
    started_us: float = 0.0  # absolute epoch us of the client send


def client_trace_context(seed: int, index: int) -> TraceContext:
    """The deterministic trace context of schedule entry ``index``.

    A pure function of (seed, index), like the schedule itself: the
    high half of the trace ID carries the seed, the low half the
    1-based request index, so a trace ID alone identifies which request
    of which run produced it.  The client span ID is the index again —
    never all-zero because the index is 1-based.
    """
    high = seed & 0xFFFFFFFFFFFFFFFF
    return TraceContext(
        trace_id=f"{high:016x}{index + 1:016x}",
        span_id=f"{index + 1:016x}",
    )


def _post_run(
    base_url: str,
    body: bytes,
    timeout_s: float,
    traceparent: Optional[str] = None,
) -> Tuple[int, Optional[str], Optional[str]]:
    """POST one run request; returns (status, X-Request-Id, X-Trace-Id)."""
    headers = {"Content-Type": "application/json"}
    if traceparent is not None:
        headers["traceparent"] = traceparent
    req = urllib.request.Request(f"{base_url}/run", data=body, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=timeout_s) as response:
            response.read()
            return (
                response.status,
                response.headers.get("X-Request-Id"),
                response.headers.get("X-Trace-Id"),
            )
    except urllib.error.HTTPError as error:
        error.read()
        return (
            error.code,
            error.headers.get("X-Request-Id"),
            error.headers.get("X-Trace-Id"),
        )


def _scrape_metrics(base_url: str, timeout_s: float) -> str:
    with urllib.request.urlopen(
        f"{base_url}/metrics", timeout=timeout_s
    ) as response:
        return response.read().decode("utf-8")


# ---------------------------------------------------------------------------
# Artifact
# ---------------------------------------------------------------------------


@dataclass
class ServeArtifact:
    """A whole loadtest run, serialized as ``BENCH_serve_<tag>.json``."""

    tag: str
    provenance: Dict[str, Any]
    config: Dict[str, Any]
    totals: Dict[str, float] = field(default_factory=dict)
    rates: Dict[str, float] = field(default_factory=dict)
    latency_ms: Dict[str, float] = field(default_factory=dict)
    server: Dict[str, Any] = field(default_factory=dict)
    #: Worst offenders for correlation: the slowest requests plus every
    #: captured 429/504, each with its request/trace IDs.  Additive and
    #: optional, so the schema version stays put.
    offenders: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    schema_version: int = SERVE_SCHEMA_VERSION
    kind: str = SERVE_KIND

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "tag": self.tag,
            "provenance": dict(self.provenance),
            "config": dict(self.config),
            "totals": dict(self.totals),
            "rates": dict(self.rates),
            "latency_ms": dict(self.latency_ms),
            "server": dict(self.server),
            "offenders": {k: list(v) for k, v in self.offenders.items()},
        }

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, allow_nan=False, sort_keys=True)
            + "\n"
        )
        return path

    @classmethod
    def from_dict(
        cls, payload: Dict[str, Any], *, source: str = "artifact"
    ) -> "ServeArtifact":
        if not isinstance(payload, dict):
            raise BenchError(f"{source}: expected a JSON object")
        if payload.get("kind") != SERVE_KIND:
            raise BenchError(
                f"{source}: kind {payload.get('kind')!r} is not a serve artifact "
                f"(expected {SERVE_KIND!r})"
            )
        version = payload.get("schema_version")
        if version != SERVE_SCHEMA_VERSION:
            raise BenchError(
                f"{source}: schema version {version!r} is not supported "
                f"(this build reads version {SERVE_SCHEMA_VERSION})"
            )
        for req in ("tag", "provenance", "config", "totals", "rates", "latency_ms"):
            if req not in payload:
                raise BenchError(f"{source}: missing field {req!r}")
        return cls(
            tag=payload["tag"],
            provenance=payload["provenance"],
            config=payload["config"],
            totals=payload["totals"],
            rates=payload["rates"],
            latency_ms=payload["latency_ms"],
            server=payload.get("server", {}),
            offenders=payload.get("offenders", {}),
            schema_version=version,
        )

    @classmethod
    def load(cls, path: str | Path) -> "ServeArtifact":
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError as error:
            raise BenchError(f"{path}: no such artifact") from error
        except json.JSONDecodeError as error:
            raise BenchError(f"{path}: not a valid artifact: {error}") from error
        return cls.from_dict(payload, source=str(path))


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not ordered:
        return 0.0
    rank = max(1, int(np.ceil(q * len(ordered))))
    return ordered[rank - 1]


def summarize_results(
    results: Sequence[RequestResult], elapsed_s: float
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
    """(totals, rates, latency_ms) of one run's client observations."""
    n = len(results)
    ok = sum(1 for r in results if r.status == 200)
    rejected = sum(1 for r in results if r.status == 429)
    timeouts = sum(1 for r in results if r.status == 504)
    errors = n - ok - rejected - timeouts
    totals = {
        "requests": float(n),
        "ok": float(ok),
        "rejected_429": float(rejected),
        "timeout_504": float(timeouts),
        "errors": float(errors),
        "elapsed_s": elapsed_s,
    }
    rates = {
        "throughput_rps": (n / elapsed_s) if elapsed_s > 0 else 0.0,
        "error_rate": (errors / n) if n else 0.0,
        "rejected_429_rate": (rejected / n) if n else 0.0,
        "timeout_504_rate": (timeouts / n) if n else 0.0,
    }
    latencies = sorted(r.latency_s for r in results)
    latency_ms = {
        "p50_ms": _percentile(latencies, 0.50) * 1e3,
        "p95_ms": _percentile(latencies, 0.95) * 1e3,
        "p99_ms": _percentile(latencies, 0.99) * 1e3,
        "mean_ms": (statistics.fmean(latencies) * 1e3) if latencies else 0.0,
        "max_ms": (latencies[-1] * 1e3) if latencies else 0.0,
    }
    return totals, rates, latency_ms


#: How many requests each offender list retains.
OFFENDER_LIMIT = 10


def _offender_row(result: RequestResult) -> Dict[str, Any]:
    return {
        "request_id": result.request_id,
        "trace_id": result.trace_id,
        "status": result.status,
        "latency_ms": round(result.latency_s * 1e3, 3),
        "key_index": result.key_index,
    }


def collect_offenders(
    results: Sequence[RequestResult], limit: int = OFFENDER_LIMIT
) -> Dict[str, List[Dict[str, Any]]]:
    """The artifact's ``offenders`` block: worst requests by category.

    ``slowest`` ranks every observation by latency; ``rejected_429`` and
    ``timeout_504`` capture each shed request (worst-latency first, the
    504s being the ones that burned a worker slot the longest).  Every
    row carries the ``X-Request-Id``/``X-Trace-Id`` the server minted,
    so an offender joins directly to ``/debug/requests`` rows and
    ``/debug/trace/{trace_id}`` stitched traces.
    """
    by_latency = sorted(results, key=lambda r: -r.latency_s)
    offenders = {
        "slowest": [_offender_row(r) for r in by_latency[:limit]],
        "rejected_429": [
            _offender_row(r) for r in by_latency if r.status == 429
        ][:limit],
        "timeout_504": [
            _offender_row(r) for r in by_latency if r.status == 504
        ][:limit],
    }
    return {k: v for k, v in offenders.items() if v}


#: Counter families diffed between the before/after ``/metrics`` scrapes.
_SERVER_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("requests", "serve_requests"),
    ("simulations", "serve_simulations"),
    ("coalesced", "serve_singleflight_coalesced_hits"),
    ("rejected", "serve_rejected"),
    ("store_hits", "serve_store_hits"),
    ("store_misses", "serve_store_misses"),
    ("batched", "serve_batch_fused_requests"),
    ("batches", "serve_batch_batches"),
)

#: Stage-latency histograms whose bucket deltas yield server quantiles.
_SERVER_HISTOGRAMS: Tuple[Tuple[str, str], ...] = (
    ("total", "serve_latency_total_seconds"),
    ("queue_wait", "serve_latency_queue_wait_seconds"),
    ("simulate", "serve_latency_simulate_seconds"),
)


def summarize_server(before_text: str, after_text: str) -> Dict[str, Any]:
    """Server-side truth from the before/after ``/metrics`` scrapes."""
    before, _ = parse_exposition(before_text)
    after, _ = parse_exposition(after_text)
    counters: Dict[str, float] = {}
    for label, name in _SERVER_COUNTERS:
        counters[label] = sum_by_name(after, name) - sum_by_name(before, name)
    handled = counters["requests"]
    summary: Dict[str, Any] = {"counters": counters, "ratios": {}, "latency_ms": {}}
    if handled > 0:
        simulated = counters["simulations"]
        coalesced = counters["coalesced"]
        cached = max(0.0, handled - simulated - coalesced)
        summary["ratios"] = {
            "simulated": simulated / handled,
            "coalesced": coalesced / handled,
            "cached": cached / handled,
            # Requests fused into micro-batches of >= 2.  An overlapping
            # subset of ``simulated`` (each fused member still runs its
            # own simulation inside the one stacked pass), so the three
            # ratios above keep summing to 1 without it.
            "batched": counters["batched"] / handled,
        }
        # Per-tier attribution of the cached hits: an L2 (disk store)
        # hit counts in serve_store_hits; the remainder of the cached
        # outcomes came straight from the in-memory L1.  Derived from
        # serve-level counters only, so the split stays correct when a
        # cluster front merges several workers' expositions.
        l2_hits = min(counters["store_hits"], cached)
        summary["tiers"] = {
            "l1_hit_ratio": (cached - l2_hits) / handled,
            "l2_hit_ratio": l2_hits / handled,
            "simulated_ratio": simulated / handled,
            "coalesced_ratio": coalesced / handled,
        }
    for label, name in _SERVER_HISTOGRAMS:
        delta = diff_cumulative(
            bucket_cumulative(after, name), bucket_cumulative(before, name)
        )
        if delta and delta[-1][1] > 0:
            summary["latency_ms"][label] = {
                "p50_ms": quantile_from_buckets(delta, 0.50) * 1e3,
                "p95_ms": quantile_from_buckets(delta, 0.95) * 1e3,
                "p99_ms": quantile_from_buckets(delta, 0.99) * 1e3,
            }
    return summary


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------


def _run_closed_loop(
    bodies: List[bytes],
    base_url: str,
    clients: int,
    timeout_s: float,
    traceparents: Optional[List[str]] = None,
) -> List[RequestResult]:
    """``clients`` callers pull the next request back-to-back."""
    schedule_lock = threading.Lock()
    cursor = [0]
    results: List[Optional[RequestResult]] = [None] * len(bodies)

    def client() -> None:
        while True:
            with schedule_lock:
                index = cursor[0]
                if index >= len(bodies):
                    return
                cursor[0] = index + 1
            traceparent = traceparents[index] if traceparents else None
            started = time.perf_counter()
            try:
                status, rid, tid = _post_run(
                    base_url, bodies[index], timeout_s, traceparent
                )
            except OSError:
                status, rid, tid = 599, None, None  # transport, not HTTP
            results[index] = RequestResult(
                index=index,
                key_index=-1,
                status=status,
                latency_s=time.perf_counter() - started,
                request_id=rid,
                trace_id=tid,
                started_us=perf_to_epoch_us(started),
            )

    threads = [
        threading.Thread(target=client, name=f"loadtest-{i}", daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [r for r in results if r is not None]


def _run_open_loop(
    bodies: List[bytes],
    base_url: str,
    rate: float,
    timeout_s: float,
    traceparents: Optional[List[str]] = None,
) -> List[RequestResult]:
    """Fire at a fixed arrival rate; completions never slow arrivals."""
    results: List[Optional[RequestResult]] = [None] * len(bodies)

    def one(index: int) -> None:
        traceparent = traceparents[index] if traceparents else None
        started = time.perf_counter()
        try:
            status, rid, tid = _post_run(
                base_url, bodies[index], timeout_s, traceparent
            )
        except OSError:
            status, rid, tid = 599, None, None
        results[index] = RequestResult(
            index=index,
            key_index=-1,
            status=status,
            latency_s=time.perf_counter() - started,
            request_id=rid,
            trace_id=tid,
            started_us=perf_to_epoch_us(started),
        )

    threads: List[threading.Thread] = []
    interval = 1.0 / rate
    origin = time.perf_counter()
    for index in range(len(bodies)):
        wait = origin + index * interval - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        thread = threading.Thread(
            target=one, args=(index,), name=f"loadtest-{index}", daemon=True
        )
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join()
    return [r for r in results if r is not None]


def run_loadtest(
    config: LoadtestConfig,
    *,
    url: Optional[str] = None,
    tag: str = "serve",
    progress: Optional[Callable[[str], None]] = None,
    trace_out: Optional[str] = None,
) -> ServeArtifact:
    """Drive one service with ``config``'s workload; return the artifact.

    With no ``url`` an in-process server is started on a free port (and
    the process-wide run cache cleared first, so cache/coalesce ratios
    are a property of the workload, not of what ran before); with
    ``cluster_workers > 0`` it is a whole in-process LocalCluster — the
    requests travel through the consistent-hash front exactly as they
    would against ``repro cluster``.  Every
    request carries a deterministic W3C ``traceparent``
    (:func:`client_trace_context`); with ``trace_out`` the slowest
    successful request's stitched trace is fetched from
    ``/debug/trace/{trace_id}`` before the server goes away and written
    — client span included — as a Chrome trace file.
    """
    population = build_population(config)
    schedule = build_schedule(
        config, len(population), [request.dataset for request in population]
    )
    payloads = [population[k].to_dict() for k in range(len(population))]
    bodies = [
        json.dumps(payloads[int(k)], sort_keys=True).encode("utf-8")
        for k in schedule
    ]
    contexts = [
        client_trace_context(config.seed, index)
        for index in range(len(bodies))
    ]
    traceparents = [format_traceparent(context) for context in contexts]

    server = None
    service = None
    server_thread = None
    cluster = None
    if url is None and config.cluster_workers > 0:
        from ..algorithms.runner import clear_run_cache
        from ..serve.cluster import LocalCluster
        from ..serve.server import ServiceConfig

        clear_run_cache()
        cluster = LocalCluster(
            config.cluster_workers,
            store_dir=config.store_dir,
            worker_config=ServiceConfig(
                workers=config.workers,
                queue_depth=config.queue_depth,
                request_timeout_s=config.request_timeout_s,
                batch_window_ms=config.batch_window_ms,
                batch_max=config.batch_max,
            ),
        )
        url = cluster.url
    elif url is None:
        from ..algorithms.runner import clear_run_cache
        from ..serve.server import ServiceConfig, SimulationService, make_server

        clear_run_cache()
        service = SimulationService(
            ServiceConfig(
                port=0,
                workers=config.workers,
                queue_depth=config.queue_depth,
                request_timeout_s=config.request_timeout_s,
                store_dir=config.store_dir,
                batch_window_ms=config.batch_window_ms,
                batch_max=config.batch_max,
            )
        )
        server = make_server(service, port=0)
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        server_thread = threading.Thread(
            target=server.serve_forever, name="loadtest-server", daemon=True
        )
        server_thread.start()
    base_url = url.rstrip("/")

    if progress is not None:
        mix = "x".join(
            str(len(getattr(config, n)))
            for n in ("algorithms", "datasets", "gpus", "modes")
        )
        progress(
            f"loadtest: {config.mode} loop, {config.requests} requests, "
            f"{len(population)} keys ({mix} grid), zipf s={config.zipf_s}, "
            f"target {base_url}"
        )

    try:
        before_text = _scrape_metrics(base_url, config.http_timeout_s)
        started = time.perf_counter()
        if config.mode == "closed":
            results = _run_closed_loop(
                bodies, base_url, config.clients, config.http_timeout_s,
                traceparents,
            )
        else:
            results = _run_open_loop(
                bodies, base_url, config.rate, config.http_timeout_s,
                traceparents,
            )
        elapsed_s = time.perf_counter() - started
        after_text = _scrape_metrics(base_url, config.http_timeout_s)
        if trace_out is not None:
            # Fetch while the (possibly in-process) server still exists.
            written = _write_stitched_trace(
                base_url, results, contexts, trace_out, config.http_timeout_s
            )
            if progress is not None:
                progress(
                    f"loadtest: stitched trace written to {trace_out} "
                    f"({written} spans)"
                    if written
                    else "loadtest: no successful traced request; "
                    f"{trace_out} not written"
                )
    finally:
        if cluster is not None:
            cluster.close()
        if server is not None:
            server.shutdown()
            server.server_close()
            if server_thread is not None:
                server_thread.join(timeout=10.0)
            service.drain(timeout_s=30.0)
            service.close()

    for result in results:
        result.key_index = int(schedule[result.index])
    totals, rates, latency_ms = summarize_results(results, elapsed_s)
    artifact = ServeArtifact(
        tag=tag,
        provenance=collect_provenance(),
        config=config.to_dict(),
        totals=totals,
        rates=rates,
        latency_ms=latency_ms,
        server=summarize_server(before_text, after_text),
        offenders=collect_offenders(results),
    )
    if progress is not None:
        progress(
            f"loadtest: {totals['ok']:.0f}/{totals['requests']:.0f} ok, "
            f"{totals['rejected_429']:.0f} x 429, "
            f"{totals['timeout_504']:.0f} x 504 in {elapsed_s:.2f}s "
            f"({rates['throughput_rps']:.1f} req/s); "
            f"p50 {latency_ms['p50_ms']:.1f} ms, "
            f"p99 {latency_ms['p99_ms']:.1f} ms"
        )
    return artifact


def _write_stitched_trace(
    base_url: str,
    results: Sequence[RequestResult],
    contexts: Sequence[TraceContext],
    trace_out: str,
    timeout_s: float,
) -> int:
    """Fetch + write the slowest successful request's stitched trace.

    Pulls the server's span records (``?raw=1``), prepends the client's
    own span (the trace root — the server parented its ``serve.request``
    span under it via ``traceparent``), and writes the combined Chrome
    trace.  Returns the span count, 0 when nothing could be fetched.
    """
    candidates = [
        r for r in results if r.status == 200 and r.trace_id is not None
    ]
    if not candidates:
        return 0
    slowest = max(candidates, key=lambda r: r.latency_s)
    try:
        with urllib.request.urlopen(
            f"{base_url}/debug/trace/{slowest.trace_id}?raw=1",
            timeout=timeout_s,
        ) as response:
            payload = json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError):
        return 0  # tracing disabled server-side, or the trace evicted
    spans = [
        SpanRecord.from_dict(raw, source="served span")
        for raw in payload.get("spans", [])
    ]
    client_span = SpanRecord(
        trace_id=slowest.trace_id,
        span_id=contexts[slowest.index].span_id,
        parent_id=None,
        name="client.request",
        category="client",
        process="client",
        start_us=slowest.started_us,
        duration_us=slowest.latency_s * 1e6,
        attributes={
            "request_id": slowest.request_id,
            "http.status": slowest.status,
            "key_index": slowest.key_index,
        },
    )
    stitched = [client_span] + spans
    Path(trace_out).write_text(
        json.dumps(spans_to_chrome(stitched), indent=1) + "\n"
    )
    return len(stitched)


# ---------------------------------------------------------------------------
# Comparison (the --compare exit-2 gate)
# ---------------------------------------------------------------------------


def compare_serve_artifacts(
    baseline: ServeArtifact,
    current: ServeArtifact,
    *,
    latency_tolerance_pct: float = 300.0,
    rate_tolerance: float = 0.05,
) -> CompareReport:
    """Diff two serve artifacts.

    The contract mirrors the workload semantics: **latencies are noisy**
    (gated only beyond ``latency_tolerance_pct``; non-positive disables,
    which is what cross-machine CI comparisons should use), while
    **outcome rates are structural** — a 429/504/error ratio more than
    ``rate_tolerance`` (absolute) above the baseline means the service
    sheds load it used to carry, whatever the hardware.  Comparing two
    different workloads is an error, not a verdict.
    """
    base_workload = {k: baseline.config.get(k) for k in WORKLOAD_FIELDS}
    cur_workload = {k: current.config.get(k) for k in WORKLOAD_FIELDS}
    if base_workload != cur_workload:
        mismatched = sorted(
            k for k in WORKLOAD_FIELDS if base_workload[k] != cur_workload[k]
        )
        raise BenchError(
            "serve artifacts describe different workloads "
            f"(mismatched: {', '.join(mismatched)}); re-record the baseline"
        )
    report = CompareReport()
    report.cells_compared = 1
    cell = f"loadtest/{baseline.config.get('mode', '?')}"
    if latency_tolerance_pct > 0.0:
        for name in LATENCY_STATS:
            base_value = baseline.latency_ms.get(name)
            cur_value = current.latency_ms.get(name)
            if not base_value or cur_value is None:
                continue
            ratio = cur_value / base_value
            if ratio > 1.0 + latency_tolerance_pct / 100.0:
                report.regressions.append(
                    Finding(V_WALL, cell, f"latency.{name}", base_value, cur_value)
                )
            elif ratio < 1.0 / (1.0 + latency_tolerance_pct / 100.0):
                report.improvements.append(
                    Finding(V_FASTER, cell, f"latency.{name}", base_value, cur_value)
                )
    for name in RATE_STATS:
        base_value = baseline.rates.get(name)
        cur_value = current.rates.get(name)
        if base_value is None or cur_value is None:
            report.regressions.append(
                Finding(V_MISSING, cell, f"rates.{name}", base_value, cur_value)
            )
            continue
        if cur_value > base_value + rate_tolerance:
            report.regressions.append(
                Finding(V_RATE, cell, f"rates.{name}", base_value, cur_value)
            )
    return report


# ---------------------------------------------------------------------------
# SLO gating (the --slo exit-3 gate)
# ---------------------------------------------------------------------------


def parse_slo(specs: Sequence[str]) -> Dict[str, float]:
    """Parse ``name=value`` SLO specs (e.g. ``p99_ms=500 error_rate=0``)."""
    slo: Dict[str, float] = {}
    known = SLO_CEILINGS + SLO_FLOORS
    for spec in specs:
        name, sep, raw = spec.partition("=")
        if not sep:
            raise BenchError(f"SLO {spec!r} is not of the form name=value")
        name = name.strip()
        if name not in known:
            raise BenchError(
                f"unknown SLO {name!r}; known: {', '.join(known)}"
            )
        try:
            slo[name] = float(raw)
        except ValueError:
            raise BenchError(f"SLO {spec!r} has a non-numeric value") from None
    return slo


def evaluate_slo(
    artifact: ServeArtifact, slo: Dict[str, float]
) -> List[Finding]:
    """SLO violations of one artifact (empty list = all objectives met)."""
    violations: List[Finding] = []
    cell = f"loadtest/{artifact.config.get('mode', '?')}"
    for name, limit in slo.items():
        if name in LATENCY_STATS:
            actual = artifact.latency_ms.get(name)
        else:
            actual = artifact.rates.get(name)
        if actual is None:
            violations.append(Finding(V_SLO, cell, name, limit, None))
        elif name in SLO_FLOORS:
            if actual < limit:
                violations.append(Finding(V_SLO, cell, name, limit, actual))
        elif actual > limit:
            violations.append(Finding(V_SLO, cell, name, limit, actual))
    return violations


__all__ = [
    "SERVE_SCHEMA_VERSION",
    "SERVE_KIND",
    "V_RATE",
    "V_SLO",
    "WORKLOAD_FIELDS",
    "LATENCY_STATS",
    "RATE_STATS",
    "SLO_CEILINGS",
    "SLO_FLOORS",
    "OFFENDER_LIMIT",
    "LoadtestConfig",
    "RequestResult",
    "ServeArtifact",
    "client_trace_context",
    "collect_offenders",
    "build_population",
    "build_schedule",
    "zipf_weights",
    "summarize_results",
    "summarize_server",
    "run_loadtest",
    "compare_serve_artifacts",
    "parse_slo",
    "evaluate_slo",
]
