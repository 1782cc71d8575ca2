"""Regenerate ``perfbench/expected.json`` after a deliberate model change.

    python3 perfbench/regen_expected.py

Simulates every benchmark operation once, in-process, and records the
SHA-256 of its exact ``/run`` body and its SimMetrics.  It refuses to
write (exit 1) when a cell that ``benchmarks/baseline_quick.json`` also
records has different SimMetrics there: regenerate that baseline first,
so the two agree.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import (  # noqa: E402
    DATASET_SEED,
    EXPECTED_PATH,
    SERVE_KEYS,
    SWEEP_DENSE,
    SWEEP_FRONTIER,
    baseline_disagreements,
    baseline_sims,
    digest,
    label,
)


def main() -> int:
    from repro.algorithms import execute_request
    from repro.request import RunRequest
    from repro.serve import protocol

    cells = sorted(set(SWEEP_DENSE) | set(SWEEP_FRONTIER) | set(SERVE_KEYS))
    expected = {}
    for cell in cells:
        request = RunRequest.make(*cell, seed=DATASET_SEED)
        response = protocol.run_response(request, execute_request(request).report)
        expected[label(cell)] = {
            "sha256": digest(protocol.encode(response)),
            "sim": response["report"]["sim"],
        }
    disagree = baseline_disagreements(expected, baseline_sims())
    if disagree:
        for name in disagree:
            print(f"SimMetrics differ from baseline_quick.json: {name}", file=sys.stderr)
        return 1
    previous = {}
    if EXPECTED_PATH.exists():
        previous = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))["cells"]
    changed = sorted(n for n in expected if previous.get(n, {}).get("sha256") != expected[n]["sha256"])
    partial = EXPECTED_PATH.with_suffix(".tmp")
    with open(partial, "w", encoding="utf-8") as handle:
        json.dump({"dataset_seed": DATASET_SEED, "cells": expected}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(partial, EXPECTED_PATH)
    print(f"wrote {len(expected)} cells to {EXPECTED_PATH.name}; {len(changed)} changed")
    for name in changed:
        print(f"  changed: {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
