"""In-process sweep workloads: one simulation per cell, sequentially.

Each cell goes through the simulator's public entry point
(``execute_request(RunRequest.make(...))``) and is encoded exactly as
``POST /run`` would answer it, so its digest checks the whole report.
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np
from scipy.special import betainc

import layers
from workloads import DATASET_SEED, ROOT, Cell, OutputCheck, datasets_of, label

#: How many fresh processes measure set-up; the median is reported.
SETUP_SAMPLES = 3

_SETUP_PROBE = """
import sys
sys.path.insert(0, {src!r})
from repro.algorithms import execute_request
from repro.graph import load_dataset
from repro.request import RunRequest
from repro.serve import protocol
for name in {datasets!r}:
    load_dataset(name, seed={seed})
"""


@dataclass
class PassStats:
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    mem_transactions: float = 0.0
    latencies_s: List[float] = field(default_factory=list)


def setup_seconds(cells: List[Cell]) -> float:
    """Median wall of fresh processes importing the simulator and
    generating the workload's datasets (what precedes the first cell)."""
    probe = _SETUP_PROBE.format(
        src=str(ROOT / "src"), datasets=datasets_of(cells), seed=DATASET_SEED
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", probe], check=True, cwd=ROOT, timeout=120)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def prepare(cells: List[Cell]) -> None:
    """Import the simulator and generate the datasets, untimed."""
    from repro.graph import load_dataset

    for name in datasets_of(cells):
        load_dataset(name, seed=DATASET_SEED)


def run_pass(cells: List[Cell], check: OutputCheck, stats: PassStats) -> None:
    """Simulate and check every cell once, accumulating into ``stats``."""
    from repro.algorithms import execute_request
    from repro.request import RunRequest
    from repro.serve import protocol

    clock = time.perf_counter
    pass_started = clock()
    for cell in cells:
        started = clock()
        stats.attempted += 1
        try:
            request = RunRequest.make(*cell, seed=DATASET_SEED)
            report = execute_request(request).report
            response = protocol.run_response(request, report)
            body = protocol.encode(response)
        except Exception:  # noqa: BLE001 - a failed cell is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            stats.failed += 1
            continue
        stats.latencies_s.append(clock() - started)
        if check.ok(cell, body):
            stats.mem_transactions += response["report"]["sim"]["mem_transactions"]
        else:
            print(f"wrong output: {label(cell)}", file=sys.stderr)
            stats.failed += 1
    stats.wall_s += clock() - pass_started


def run_passes(cells: List[Cell], check: OutputCheck, seconds: float,
               passes: int = 0) -> tuple:
    """Whole passes until ``seconds`` have elapsed (or exactly ``passes``)."""
    stats = PassStats()
    done = 0
    while True:
        run_pass(cells, check, stats)
        done += 1
        if (passes and done >= passes) or (not passes and stats.wall_s >= seconds):
            return stats, done


def quantile(samples: List[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A Beta-weighted average of every order statistic rather than one of
    them: a sweep pass has only 12 or 48 cell latencies, so a single
    order statistic near the tail jumps between cells, and on serve the
    weighting smooths the gap between the cache-hit and simulated modes.
    """
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    n = ordered.size
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ ordered)


def end_to_end_metrics(stats: PassStats, setup_s: float, peak_rss_mb: float) -> Dict[str, tuple]:
    """The end-to-end metrics of one untraced run, ``name -> (value, unit)``."""
    correct = stats.attempted - stats.failed
    return {
        "ops_per_s": (correct / stats.wall_s, "1/s"),
        "sim_tx_per_s": (stats.mem_transactions / stats.wall_s, "1/s"),
        "p50_ms": (quantile(stats.latencies_s, 0.50) * 1e3, "ms"),
        "p95_ms": (quantile(stats.latencies_s, 0.95) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ratio": (correct / stats.attempted, "ratio"),
    }


def measure(cells: List[Cell], check: OutputCheck, seconds: float) -> tuple:
    """Untraced run: end-to-end metrics, attempted, failed."""
    setup_s = setup_seconds(cells)
    prepare(cells)
    stats, _ = run_passes(cells, check, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return end_to_end_metrics(stats, setup_s, peak_mb), stats.attempted, stats.failed


def measure_traced(cells: List[Cell], check: OutputCheck, seconds: float) -> tuple:
    """Traced run: an untraced reference, then the same passes wrapped."""
    import repro.serve.server  # noqa: F401 - resolve its protocol sites too

    prepare(cells)
    plain, passes = run_passes(cells, check, seconds)
    tracer = layers.install(layers.LayerTracer(time.perf_counter))
    try:
        traced, _ = run_passes(cells, check, seconds, passes=passes)
    finally:
        tracer.uninstall()
    metrics = layers.layer_metrics(tracer.totals(), traced.wall_s)
    metrics["trace.overhead_ratio"] = (traced.wall_s / plain.wall_s, "ratio")
    attempted = plain.attempted + traced.attempted
    return metrics, attempted, plain.failed + traced.failed
