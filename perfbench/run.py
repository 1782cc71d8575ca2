"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``sweep-dense``: PageRank and connected components on the large
  datasets, in-process, 12 cells;
* ``sweep-frontier``: BFS and SSSP on the frontier datasets, every mode
  and both GPUs, in-process, 48 cells;
* ``serve-mixed``: 2 closed-loop clients sending a zipf-shaped sequence
  over 96 keys to a real ``python -m repro serve`` subprocess.

A run measures whole passes over its workload until ``--seconds`` have
elapsed.  The seed decides the order of the operations, never the
operations themselves.  Every operation's exact ``/run`` body is
checked against ``perfbench/expected.json``.

``--trace 0`` prints the end-to-end metrics (tracing off):

* ``ops_per_s``: correct operations (cells or requests) per host second;
* ``sim_tx_per_s``: simulated memory transactions per host second (for
  serve, each key's transactions once per pass, as each is simulated once);
* ``p50_ms`` / ``p95_ms``: operation latency, a request's round trip for
  serve and a cell's wall for the sweeps (Harrell-Davis estimates);
* ``setup_s``: median of three set-ups, each a fresh process importing
  the simulator and generating the datasets (sweeps) or a fresh server
  from spawn until ``/healthz`` answers (serve);
* ``peak_rss_mb``: peak RSS of this process (sweeps) or VmHWM of the
  server (serve);
* ``ok_ratio``: correct over attempted operations, ``1 - error_ratio``.

``--trace 1`` repeats the untraced passes, then the same passes with
every layer wrapped (``perfbench/layers.py``), and prints per-layer
self time, share, calls and missing sites, the counts read at the
wrapped calls, the serve ``/metrics`` stage medians and outcome shares
(serve-mixed only; zero elsewhere) and ``trace.overhead_ratio``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import serve_mixed
import sweep
from workloads import ROOT, OutputCheck, serve_schedule, sweep_schedule

WORKLOADS = ("sweep-dense", "sweep-frontier", "serve-mixed")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    check = OutputCheck.load()
    for name in sorted(check.untrusted):
        print(f"expected output disagrees with baseline_quick.json: {name}", file=sys.stderr)
    if workload == "serve-mixed":
        sequence = serve_schedule(seed)
        if trace:
            return serve_mixed.traced(sequence, check, seconds)
        return serve_mixed.end_to_end(sequence, check, seconds)
    cells = sweep_schedule(workload, seed)
    if not trace:
        return sweep.measure(cells, check, seconds)
    metrics, attempted, failed = sweep.measure_traced(cells, check, seconds)
    # No server here: the serve stage and outcome metrics read zero.
    metrics.update(serve_mixed.serve_metrics({}))
    return metrics, attempted, failed


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Turn SIGTERM into SystemExit so every started server is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    metrics, attempted, failed = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>18.6f} {unit}")
    print(f"{'error_ratio':36s} {failed / attempted:>18.6f} ratio  ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
