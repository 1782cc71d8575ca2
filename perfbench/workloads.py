"""The benchmark's workloads: fixed operation lists, seeded schedules and
the output check.

Every workload is a fixed multiset of operations; the workload seed only
decides their order, so the work one run does is the same for every
seed while a claim can still be re-checked on a held-out schedule.
Dataset generation stays at seed 42, the registry default, so every
operation has one expected output.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
EXPECTED_PATH = Path(__file__).resolve().with_name("expected.json")
BASELINE_QUICK_PATH = ROOT / "benchmarks" / "baseline_quick.json"

#: Dataset-generation seed of every operation (the registry default).
DATASET_SEED = 42

MODES = ("gpu", "scu-basic", "scu-enhanced", "iru")
GPUS = ("GTX980", "TX1")

#: One operation: (algorithm, dataset, gpu, mode).
Cell = Tuple[str, str, str, str]


def _grid(algorithms: Iterable[str], datasets: Iterable[str], gpus: Iterable[str],
          modes: Iterable[str]) -> List[Cell]:
    return [
        (algorithm, dataset, gpu, mode)
        for algorithm in algorithms
        for dataset in datasets
        for gpu in gpus
        for mode in modes
    ]


SWEEP_DENSE: List[Cell] = _grid(
    ("pagerank", "connected_components"), ("human", "kron", "msdoor"),
    ("GTX980",), ("gpu", "scu-enhanced"),
)
SWEEP_FRONTIER: List[Cell] = _grid(
    ("bfs", "sssp"), ("ca", "cond", "delaunay"), GPUS, MODES
)
SERVE_KEYS: List[Cell] = _grid(
    ("bfs", "sssp"), ("ca", "cond", "delaunay", "human", "kron", "msdoor"), GPUS, MODES
)

SWEEPS: Dict[str, List[Cell]] = {
    "sweep-dense": SWEEP_DENSE,
    "sweep-frontier": SWEEP_FRONTIER,
}

#: serve-mixed request count; p95 then has ~20 samples beyond it.
SERVE_REQUESTS = 400
#: Zipf exponent of the serve key popularity.
SERVE_ZIPF_S = 1.0


def label(cell: Cell) -> str:
    return "/".join(cell)


def sweep_schedule(workload: str, seed: int) -> List[Cell]:
    """The sweep's cell order for ``seed`` (a permutation of its grid)."""
    cells = list(SWEEPS[workload])
    random.Random(seed).shuffle(cells)
    return cells


def serve_popularity() -> List[Tuple[Cell, int]]:
    """Each serve key with its request count, most popular first.

    Ranks follow a fixed hash order of the labels so the hot keys spread
    over datasets, GPUs and modes.  Counts are ``round(c / rank**s)``
    with a floor of one, so every key is requested (and simulated) in
    every run: the multiset of work does not depend on the seed.
    """
    ranked = sorted(SERVE_KEYS, key=lambda cell: hashlib.sha256(label(cell).encode()).hexdigest())
    weights = [1.0 / (rank ** SERVE_ZIPF_S) for rank in range(1, len(ranked) + 1)]
    scale = SERVE_REQUESTS / sum(weights)
    counts = [max(1, round(weight * scale)) for weight in weights]
    return list(zip(ranked, counts))


def serve_schedule(seed: int) -> List[Cell]:
    """The serve request sequence for ``seed`` (a shuffle of the multiset)."""
    sequence = [cell for cell, count in serve_popularity() for _ in range(count)]
    random.Random(seed).shuffle(sequence)
    return sequence


def datasets_of(cells: Sequence[Cell]) -> List[str]:
    return sorted({cell[1] for cell in cells})


# -- output check -------------------------------------------------------------


def digest(body: bytes) -> str:
    """SHA-256 of one exact ``/run`` response body."""
    return hashlib.sha256(body).hexdigest()


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, dict]:
    """label -> {"sha256": ..., "sim": {...}} for every benchmark operation."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["cells"]


def baseline_sims(path: Path = BASELINE_QUICK_PATH) -> Dict[str, dict]:
    """label -> SimMetrics dict from the committed quick-grid baseline.

    A record names the mode that was simulated as ``effective_mode``
    (PageRank runs scu-basic when scu-enhanced is asked for), so that is
    the mode its numbers belong to.
    """
    with open(path, encoding="utf-8") as handle:
        records = json.load(handle)["records"]
    return {
        label((r["algorithm"], r["dataset"], r["gpu"], r["effective_mode"])): r["sim"]
        for r in records
    }


def baseline_disagreements(expected: Dict[str, dict], baseline: Dict[str, dict]) -> List[str]:
    """Labels whose expected SimMetrics differ from the committed baseline."""
    return sorted(
        name
        for name, entry in expected.items()
        if name in baseline and entry["sim"] != baseline[name]
    )


class OutputCheck:
    """Judges one operation's response body against its expected digest.

    An operation is wrong when its digest differs, when it has no
    expected entry, or when its expected entry disagrees with the
    committed quick-grid baseline (the expectation itself is then not
    trusted).
    """

    def __init__(self, expected: Dict[str, dict], untrusted: Iterable[str] = ()) -> None:
        self.expected = expected
        self.untrusted = set(untrusted)

    @classmethod
    def load(cls) -> "OutputCheck":
        expected = load_expected()
        return cls(expected, baseline_disagreements(expected, baseline_sims()))

    def ok(self, cell: Cell, body: bytes) -> bool:
        name = label(cell)
        entry = self.expected.get(name)
        return (
            entry is not None
            and name not in self.untrusted
            and digest(body) == entry["sha256"]
        )
