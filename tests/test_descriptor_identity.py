"""Stream descriptors and the stream log change no report.

Walks and gathers are priced without their addresses, a back-to-back
SCU expansion is read as a walk, and every run's streams are priced
from one log in segmented passes.  With every descriptor forced down
the materialized path, the expansion down its index path and every
launch down the test-built per-stream loop (reference coalescers,
per-stream ``process`` formulas, ``dram_time_s`` and ``merged``), the
``/run`` body of every cell of the grid must not change by a byte; and
PageRank's simulated metrics stay those of the committed quick baseline.
"""

import itertools
import json
from pathlib import Path

import pytest

from repro.algorithms import clear_run_cache, execute_request
from repro.backends import available_modes
from repro.bench.record import SimMetrics
from repro.core import ops
from repro.gpu import GPU_SYSTEMS
from repro.graph.datasets import DATASET_NAMES
from repro.mem.address_space import Allocation
from repro.request import RunRequest
from repro.serve.protocol import encode, run_response
from tests.test_launch_tally import price_launches_per_stream

BASELINE = Path(__file__).resolve().parent.parent / "benchmarks" / "baseline_quick.json"

ALGORITHMS = ["bfs", "sssp", "pagerank", "connected_components"]

#: The whole grid: every algorithm, dataset, GPU and mode.
CELLS = list(
    itertools.product(ALGORITHMS, DATASET_NAMES, ["GTX980", "TX1"], available_modes())
)


def run_body(cell) -> bytes:
    clear_run_cache()
    request = RunRequest.make(*cell)
    body = encode(run_response(request, execute_request(request).report))
    clear_run_cache()
    return body


def force_materialized(monkeypatch) -> None:
    walk, gather = Allocation.walk, Allocation.gather
    monkeypatch.setattr(
        Allocation,
        "walk",
        lambda self, start=0, count=None: walk(self, start, count).materialize(),
    )
    monkeypatch.setattr(
        Allocation, "gather", lambda self, indices: gather(self, indices).materialize()
    )
    monkeypatch.setattr(ops, "contiguous_expansion_start", lambda indexes, count: None)
    price_launches_per_stream(monkeypatch)


@pytest.mark.parametrize("cell", CELLS, ids=["-".join(cell) for cell in CELLS])
def test_run_body_matches_the_materialized_path(cell, monkeypatch):
    described = run_body(cell)
    force_materialized(monkeypatch)
    assert run_body(cell) == described


def test_pagerank_matches_committed_baseline():
    records = [
        record
        for record in json.loads(BASELINE.read_text())["records"]
        if record["algorithm"] == "pagerank"
        and record["mode"] in ("gpu", "scu-enhanced")
    ]
    assert len(records) == 12  # 3 datasets x 2 GPUs x 2 modes
    for record in records:
        clear_run_cache()
        request = RunRequest.make(
            "pagerank", record["dataset"], record["gpu"], record["mode"]
        )
        sim = SimMetrics.from_report(
            execute_request(request).report,
            gpu_clock_hz=GPU_SYSTEMS[record["gpu"]].clock_hz,
        ).as_dict()
        cell = (record["dataset"], record["gpu"], record["mode"])
        for name in ("mem_transactions", "dram_transactions", "dram_bytes", "instructions"):
            assert sim[name] == record["sim"][name], (cell, name)
        # the same tolerance as the CI bench gate for float sums
        pinned = record["sim"]["sim_time_s"]
        assert sim["sim_time_s"] == pytest.approx(pinned, rel=1e-6), cell
    clear_run_cache()
