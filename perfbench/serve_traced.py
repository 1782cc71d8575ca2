"""Start ``repro serve`` with the layer wrappers installed.

Usage: ``python3 perfbench/serve_traced.py --layers-out PATH serve [ARGS]``

The remaining arguments go to the repository's CLI unchanged.  When the
server has drained after SIGTERM, the per-layer totals (thread CPU
seconds) and the process CPU time spent serving are written to PATH.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import layers  # noqa: E402


def _process_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv: list) -> int:
    if len(argv) < 2 or argv[0] != "--layers-out":
        print("usage: serve_traced.py --layers-out PATH serve [ARGS]", file=sys.stderr)
        return 2
    out_path, cli_args = argv[1], argv[2:]
    from repro.cli import main as repro_main

    tracer = layers.install(layers.LayerTracer(time.thread_time))
    started = _process_cpu_s()
    try:
        code = repro_main(cli_args)
    finally:
        cpu_s = _process_cpu_s() - started
        tracer.uninstall()
    partial = f"{out_path}.tmp"
    with open(partial, "w", encoding="utf-8") as handle:
        json.dump({"cpu_s": cpu_s, "totals": tracer.totals()}, handle)
    os.replace(partial, out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
