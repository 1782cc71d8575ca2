"""Checks of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import collections
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import serve_mixed  # noqa: E402
import sweep  # noqa: E402
import workloads  # noqa: E402

#: A cell that simulates in well under a second.
SMALL_CELL = ("bfs", "cond", "TX1", "gpu")
#: A small cell that benchmarks/baseline_quick.json also records.
BASELINE_CELL = ("bfs", "delaunay", "TX1", "gpu")


def _single_pass(cells, check):
    stats = sweep.PassStats()
    sweep.run_pass(cells, check, stats)
    return stats


def test_expected_output_passes():
    stats = _single_pass([SMALL_CELL], workloads.OutputCheck.load())
    assert (stats.attempted, stats.failed) == (1, 0)
    assert stats.mem_transactions > 0


def test_corrupted_digest_counts_as_failure():
    expected = workloads.load_expected()
    name = workloads.label(SMALL_CELL)
    expected[name] = dict(expected[name], sha256="0" * 64)
    stats = _single_pass([SMALL_CELL], workloads.OutputCheck(expected))
    assert (stats.attempted, stats.failed) == (1, 1)


def test_expectation_disagreeing_with_baseline_counts_as_failure():
    expected = workloads.load_expected()
    name = workloads.label(BASELINE_CELL)
    sim = dict(expected[name]["sim"], mem_transactions=-1.0)
    expected[name] = dict(expected[name], sim=sim)
    untrusted = workloads.baseline_disagreements(expected, workloads.baseline_sims())
    assert untrusted == [name]
    stats = _single_pass([BASELINE_CELL], workloads.OutputCheck(expected, untrusted))
    assert stats.failed == 1


def test_committed_expectations_agree_with_baseline():
    expected = workloads.load_expected()
    baseline = workloads.baseline_sims()
    assert len(set(expected) & set(baseline)) >= 40
    assert workloads.baseline_disagreements(expected, baseline) == []
    every_cell = set(workloads.SERVE_KEYS) | {c for cells in workloads.SWEEPS.values() for c in cells}
    assert {workloads.label(cell) for cell in every_cell} == set(expected)


@pytest.mark.parametrize("workload", sorted(workloads.SWEEPS))
def test_sweep_schedule_is_a_pure_function_of_the_seed(workload):
    first = workloads.sweep_schedule(workload, 7)
    assert first == workloads.sweep_schedule(workload, 7)
    assert first != workloads.sweep_schedule(workload, 8)
    assert sorted(first) == sorted(workloads.SWEEPS[workload])


def test_serve_schedule_is_a_pure_function_of_the_seed():
    first = workloads.serve_schedule(7)
    assert first == workloads.serve_schedule(7)
    other = workloads.serve_schedule(8)
    assert first != other
    # Same work under every seed: every key, the same multiset.
    assert collections.Counter(first) == collections.Counter(other)
    assert set(first) == set(workloads.SERVE_KEYS)
    assert len(first) >= 200  # p95 keeps at least ten samples beyond it


def test_missing_site_is_reported_not_raised():
    tracer = layers.install(
        layers.LayerTracer(),
        {
            "gpu.device": [
                ("repro.gpu.device", "GpuDevice.no_such_method"),
                ("repro.no_such_module", "run"),
            ],
        },
    )
    tracer.uninstall()
    metrics = layers.layer_metrics(tracer.totals(), 1.0)
    assert metrics["gpu.device.missing"] == (2, "count")
    assert metrics["mem.locality.missing"] == (0, "count")


def test_nested_layers_report_self_time():
    tracer = layers.LayerTracer()
    inner = tracer.wrap("mem.locality", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    outer = tracer.wrap("gpu.device", outer_body)
    started = time.perf_counter()
    outer()
    wall = time.perf_counter() - started
    metrics = layers.layer_metrics(tracer.totals(), wall)
    assert metrics["mem.locality.self_s"][0] >= 0.02
    assert 0.01 <= metrics["gpu.device.self_s"][0] < 0.02
    assert metrics["gpu.device.calls"] == (1, "count")


def test_traced_pass_accounts_for_the_whole_wall():
    from repro.gpu.device import GpuDevice

    original = GpuDevice.__dict__["run"]
    check = workloads.OutputCheck.load()
    sweep.prepare([SMALL_CELL])
    tracer = layers.install(layers.LayerTracer())
    try:
        stats = _single_pass([SMALL_CELL], check)
    finally:
        tracer.uninstall()
    assert GpuDevice.__dict__["run"] is original
    assert stats.failed == 0
    metrics = layers.layer_metrics(tracer.totals(), stats.wall_s)
    covered = sum(metrics[f"{layer}.self_s"][0] for layer in layers.LAYERS)
    assert metrics["other.self_s"][0] >= 0
    assert covered + metrics["other.self_s"][0] == pytest.approx(stats.wall_s, rel=1e-9)
    for layer in ("algorithms", "gpu.device", "mem.coalescer", "mem.locality", "serve.protocol"):
        assert metrics[f"{layer}.calls"][1] == "count" and metrics[f"{layer}.calls"][0] > 0
    assert metrics["mem.coalescer.transactions"][0] == metrics["mem.locality.lines"][0]


def test_stage_median_from_bucket_deltas():
    text = "\n".join(
        [
            "# TYPE serve_latency_total_seconds histogram",
            'serve_latency_total_seconds_bucket{le="0.001"} 2',
            'serve_latency_total_seconds_bucket{le="0.002"} 6',
            'serve_latency_total_seconds_bucket{le="+Inf"} 8',
            'serve_requests{route="run"} 8',
            "runner_cache_hits 4",
        ]
    )
    metrics = serve_mixed.serve_metrics(serve_mixed.parse_metrics(text))
    # rank 4 of 8 falls halfway through the (1 ms, 2 ms] bucket
    assert metrics["serve.total_p50_ms"][0] == pytest.approx(1.5)
    assert metrics["serve.l1_hit_ratio"] == (0.5, "ratio")
    assert metrics["serve.simulated_ratio"] == (0.0, "ratio")


def test_quantile_estimates_order_statistics():
    samples = [float(v) for v in range(1, 102)]
    assert sweep.quantile(samples, 0.5) == pytest.approx(51.0)
    assert 94.0 < sweep.quantile(samples, 0.95) < 97.0
    assert sweep.quantile([4.0] * 12, 0.95) == pytest.approx(4.0)
