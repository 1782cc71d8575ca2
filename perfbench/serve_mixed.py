"""The serve-mixed workload: a closed loop of client threads against a
real ``python -m repro serve`` subprocess.

Every pass starts a fresh server on a fresh ``--store-dir``, so each
serve key is simulated once per pass and the rest of the requests are
L1 hits, L2 store reads after L1 eviction, or single-flight followers.
The client is this file's own stdlib HTTP code.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import layers
from sweep import PassStats, end_to_end_metrics
from workloads import ROOT, Cell, OutputCheck, label

HERE = Path(__file__).resolve().parent
#: Client threads of the closed loop.
CLIENTS = 2
#: Fresh servers started to measure set-up; the median is reported.
SETUP_SAMPLES = 3
REQUEST_TIMEOUT_S = 120.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0

_LISTENING = re.compile(r"listening on http://[^\s:]+:(\d+)")
_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")

#: Stage histograms scraped from /metrics -> reported p50 name.
STAGE_HISTOGRAMS = {
    "serve_latency_queue_wait_seconds": "serve.queue_wait_p50_ms",
    "serve_latency_simulate_seconds": "serve.simulate_p50_ms",
    "serve_latency_total_seconds": "serve.total_p50_ms",
}
#: Outcome counters scraped from /metrics -> reported share of requests.
OUTCOME_COUNTERS = {
    "runner_cache_hits": "serve.l1_hit_ratio",
    "serve_store_hits": "serve.l2_hit_ratio",
    "serve_simulations": "serve.simulated_ratio",
    "serve_singleflight_coalesced_hits": "serve.coalesced_ratio",
}
RUN_REQUESTS = 'serve_requests{route="run"}'


class Server:
    """One ``repro serve`` child process on a free port."""

    def __init__(self, argv: List[str], workdir: Path) -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        self._out = open(workdir / "stdout.log", "w+", encoding="utf-8")
        self._err = open(workdir / "stderr.log", "w", encoding="utf-8")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv + ["--port", "0", "--store-dir", str(workdir / "store")],
            cwd=ROOT, env=env, stdout=self._out, stderr=self._err,
        )
        self.port = 0
        try:
            self.setup_s = self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self) -> float:
        deadline = self.started + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                log = (self.workdir / "stderr.log").read_text(encoding="utf-8")[-2000:]
                raise RuntimeError(f"server exited with {self.proc.returncode} during start:\n{log}")
            if not self.port:
                self._out.seek(0)
                match = _LISTENING.search(self._out.read())
                if match:
                    self.port = int(match.group(1))
            if self.port and self.get("/healthz")[0] == 200:
                return time.perf_counter() - self.started
            time.sleep(0.005)
        raise RuntimeError("server did not answer /healthz in time")

    def get(self, path: str) -> Tuple[Optional[int], bytes]:
        try:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
            try:
                conn.request("GET", path)
                response = conn.getresponse()
                return response.status, response.read()
            finally:
                conn.close()
        except (OSError, http.client.HTTPException):
            return None, b""

    def vm_hwm_mb(self) -> float:
        """Peak resident set of the server process."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGTERM (the server drains), then wait; kill if it hangs."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            return self.proc.returncode
        finally:
            self._out.close()
            self._err.close()


def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text exposition -> ``name{labels}`` -> value."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line.strip())
        if match:
            samples[match.group(1) + (match.group(2) or "")] = float(match.group(3))
    return samples


def bucket_p50_ms(deltas: Dict[str, float], family: str) -> float:
    """Median from cumulative-bucket deltas, interpolated within a bucket."""
    prefix = f"{family}_bucket{{le=\""
    bounds = []
    for key, value in deltas.items():
        if key.startswith(prefix):
            le = key[len(prefix):-2]
            upper = float("inf") if le == "+Inf" else float(le)
            bounds.append((upper, value))
    bounds.sort()
    total = bounds[-1][1] if bounds else 0.0
    if total <= 0:
        return 0.0
    rank = total / 2.0
    lower_bound, lower_count = 0.0, 0.0
    for upper, count in bounds:
        if count >= rank:
            if upper == float("inf"):
                return lower_bound * 1e3
            fraction = (rank - lower_count) / (count - lower_count)
            return (lower_bound + fraction * (upper - lower_bound)) * 1e3
        lower_bound, lower_count = upper, count
    return lower_bound * 1e3


def drive(port: int, sequence: List[Cell], check: OutputCheck, stats: PassStats) -> None:
    """Send ``sequence`` from :data:`CLIENTS` closed-loop threads."""
    results: List[Optional[Tuple[float, bool]]] = [None] * len(sequence)
    cursor = iter(range(len(sequence)))
    cursor_lock = threading.Lock()

    def client() -> None:
        while True:
            with cursor_lock:
                index = next(cursor, None)
            if index is None:
                return
            cell = sequence[index]
            payload = json.dumps(
                {"algorithm": cell[0], "dataset": cell[1], "gpu": cell[2], "mode": cell[3]}
            ).encode("utf-8")
            started = time.perf_counter()
            status, body = None, b""
            try:
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
                try:
                    conn.request("POST", "/run", payload, {"Content-Type": "application/json"})
                    response = conn.getresponse()
                    status, body = response.status, response.read()
                finally:
                    conn.close()
            except (OSError, http.client.HTTPException) as error:
                print(f"transport error on {label(cell)}: {error}", file=sys.stderr)
            elapsed = time.perf_counter() - started
            results[index] = (elapsed, status == 200 and check.ok(cell, body))

    started = time.perf_counter()
    threads = [threading.Thread(target=client, daemon=True) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(REQUEST_TIMEOUT_S * len(sequence))
        if thread.is_alive():
            raise RuntimeError("client thread did not finish")
    stats.wall_s += time.perf_counter() - started
    simulated = set()
    for cell, result in zip(sequence, results):
        stats.attempted += 1
        elapsed, ok = result
        stats.latencies_s.append(elapsed)
        if not ok:
            print(f"failed request: {label(cell)}", file=sys.stderr)
            stats.failed += 1
        elif cell not in simulated:
            simulated.add(cell)
            stats.mem_transactions += check.expected[label(cell)]["sim"]["mem_transactions"]


class ServeRun:
    """Owns the scratch directory and every server of one benchmark run."""

    def __init__(self) -> None:
        scratch = ROOT / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="serve-", dir=scratch))
        self._servers = 0

    def server(self, traced_layers: Optional[Path] = None) -> Server:
        self._servers += 1
        if traced_layers is None:
            argv = [sys.executable, "-m", "repro", "serve"]
        else:
            argv = [sys.executable, str(HERE / "serve_traced.py"),
                    "--layers-out", str(traced_layers), "serve"]
        return Server(argv, self.dir / f"server-{self._servers}")

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


def _stop_checked(server: Server, stats: PassStats) -> None:
    """Stop a server; a drain that does not exit 0 counts as a failure."""
    if server.stop() != 0:
        print(f"server exited with {server.proc.returncode}", file=sys.stderr)
        stats.attempted += 1
        stats.failed += 1


def measure(sequence: List[Cell], check: OutputCheck, seconds: float,
            run: ServeRun, scrape: Optional[Dict[str, float]] = None,
            setup_samples: int = 1) -> Tuple[PassStats, List[float], float, int]:
    """Whole passes, each on a fresh server, until ``seconds`` elapsed.

    Returns the pooled stats, set-up samples, peak server RSS and the
    number of passes.  With ``scrape`` the /metrics deltas of every pass
    are summed into it.
    """
    stats = PassStats()
    setups: List[float] = []
    peak_mb = 0.0
    done = 0
    for _ in range(setup_samples - 1):
        probe = run.server()
        setups.append(probe.setup_s)
        _stop_checked(probe, stats)
    while True:
        server = run.server()
        try:
            setups.append(server.setup_s)
            before = parse_metrics(server.get("/metrics")[1].decode("utf-8"))
            drive(server.port, sequence, check, stats)
            after = parse_metrics(server.get("/metrics")[1].decode("utf-8"))
            peak_mb = max(peak_mb, server.vm_hwm_mb())
        finally:
            _stop_checked(server, stats)
        if scrape is not None:
            for key, value in after.items():
                scrape[key] = scrape.get(key, 0.0) + value - before.get(key, 0.0)
        done += 1
        if stats.wall_s >= seconds:
            return stats, setups, peak_mb, done


def end_to_end(sequence: List[Cell], check: OutputCheck, seconds: float) -> tuple:
    run = ServeRun()
    try:
        stats, setups, peak_mb, _ = measure(
            sequence, check, seconds, run, setup_samples=SETUP_SAMPLES
        )
    finally:
        run.close()
    metrics = end_to_end_metrics(stats, statistics.median(setups), peak_mb)
    return metrics, stats.attempted, stats.failed


def serve_metrics(scrape: Dict[str, float]) -> Dict[str, tuple]:
    """Stage medians and outcome shares from summed /metrics deltas."""
    metrics: Dict[str, tuple] = {}
    for family, name in STAGE_HISTOGRAMS.items():
        metrics[name] = (bucket_p50_ms(scrape, family), "ms")
    requests = scrape.get(RUN_REQUESTS, 0.0)
    for counter, name in OUTCOME_COUNTERS.items():
        metrics[name] = (scrape.get(counter, 0.0) / requests if requests else 0.0, "ratio")
    return metrics


def _merge_totals(into: Dict[str, dict], more: Dict[str, dict]) -> None:
    """Sum two passes' layer totals; missing sites are the same each pass."""
    for group, values in more.items():
        for key, value in values.items():
            if group == "missing":
                into[group][key] = max(into[group].get(key, 0), value)
            else:
                into[group][key] = into[group].get(key, 0) + value


def traced(sequence: List[Cell], check: OutputCheck, seconds: float) -> tuple:
    """Untraced reference passes (with /metrics scrapes), then the same
    number of passes against servers started by the tracing launcher."""
    run = ServeRun()
    scrape: Dict[str, float] = {}
    totals = {"self_s": {}, "calls": {}, "counts": {}, "missing": {}}
    cpu_s = 0.0
    try:
        plain, _, _, passes = measure(sequence, check, seconds, run, scrape=scrape)
        traced_stats = PassStats()
        for index in range(passes):
            layers_path = run.dir / f"layers-{index}.json"
            server = run.server(traced_layers=layers_path)
            try:
                drive(server.port, sequence, check, traced_stats)
            finally:
                _stop_checked(server, traced_stats)
            with open(layers_path, encoding="utf-8") as handle:
                written = json.load(handle)
            cpu_s += written["cpu_s"]
            _merge_totals(totals, written["totals"])
    finally:
        run.close()
    # Layer times are thread CPU seconds inside the server, so the traced
    # interval they are shares of is the server's CPU time, not wall.
    metrics = layers.layer_metrics(totals, cpu_s)
    metrics.update(serve_metrics(scrape))
    metrics["trace.overhead_ratio"] = (traced_stats.wall_s / plain.wall_s, "ratio")
    attempted = plain.attempted + traced_stats.attempted
    return metrics, attempted, plain.failed + traced_stats.failed
