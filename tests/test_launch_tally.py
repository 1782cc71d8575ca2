"""The stream log prices every launch exactly like a per-stream loop.

Both engines record their launches in the hierarchy's
:class:`~repro.mem.hierarchy.StreamLog`, which prices all pending
streams at once in segmented passes.  :class:`PerStreamLog` is the
pricing it replaces, rebuilt here from single-stream pieces: each
stream's materialized addresses through the ``*_reference`` coalescer,
the per-stream ``process`` formulas (:func:`price_stream`), its
``dram_time_s`` added to the launch's, its stats ``merged`` in.  Every
``MemoryStats`` field, the DRAM time and the observed metrics must come
out the same, floats compared with ``==``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import run_algorithm
from repro.algorithms.common import SystemMode
from repro.core.config import SCU_CONFIGS
from repro.core.pipeline import ScuStream, observe_scu_streams, record_scu_streams
from repro.errors import ConfigError, SimulationError
from repro.gpu import GPU_SYSTEMS, GpuDevice, KernelSpec
from repro.graph.datasets import load_dataset
from repro.mem import GDDR5, AddressGather, AddressWalk, MemoryHierarchy, MemoryStats
from repro.mem import hierarchy as hierarchy_module
from repro.mem.coalescer import (
    coalesce_stream,
    coalesce_stream_reference,
    coalesce_warp,
    coalesce_warp_reference,
)
from repro.mem.hierarchy import StreamLog, StreamStats, row_hit_fraction
from repro.mem.locality import estimate_hit_rate, profile_lines_reference
from repro.obs import make_observability
from repro.phases import PhaseKind


def price_stream(hierarchy: MemoryHierarchy, result, l2_bypass: bool):
    """One coalesced stream's statistics and L2 hit rate, by the scalar
    formulas: distinct L2 lines by ``np.unique``, row hits over the
    sector ids, the reuse model, and the hierarchy's per-stream
    metrics."""
    transactions = result.transactions
    if transactions == 0:
        return MemoryStats(), None
    profile = profile_lines_reference(result.cache_line_ids(hierarchy.l2_line_bytes))
    row_hit = row_hit_fraction(
        result.line_ids, row_bytes=hierarchy.dram.row_bytes, sector_bytes=result.sector_bytes
    )
    hit_rate = 0.0
    if not l2_bypass:
        hit_rate = estimate_hit_rate(
            profile, hierarchy.l2_capacity_bytes, hierarchy.l2_line_bytes
        )
    l2_hits = int(round(hit_rate * transactions))
    dram_accesses = transactions - l2_hits
    dram_bytes = dram_accesses * result.sector_bytes
    if hierarchy.obs.enabled:
        metrics = hierarchy.obs.metrics
        metrics.counter("mem.accesses").inc(result.accesses)
        metrics.counter("mem.l2.transactions").inc(transactions)
        metrics.counter("mem.l2.hits").inc(l2_hits)
        metrics.counter("mem.l2.misses").inc(dram_accesses)
        metrics.counter("mem.dram.bytes").inc(dram_bytes)
        metrics.histogram("mem.l2.hit_rate").observe(hit_rate)
    stats = MemoryStats(
        accesses=result.accesses,
        transactions=transactions,
        l2_hits=l2_hits,
        dram_accesses=dram_accesses,
        dram_bytes=dram_bytes,
        row_hit_fraction=row_hit,
    )
    return stats, hit_rate


def coalesce_reference(coalesce, addresses, active_mask, params):
    """A stream through the reference twin of ``coalesce``."""
    if isinstance(addresses, (AddressWalk, AddressGather)):
        addresses = addresses.materialize()
    name = getattr(coalesce, "__name__", "")
    if name == "coalesce_warp":
        return coalesce_warp_reference(addresses, active_mask=active_mask, **params)
    assert name == "coalesce_stream" and active_mask is None
    return coalesce_stream_reference(addresses, **params)


class _Channel:
    def __init__(self, log, coalesce, params):
        self.log, self.coalesce, self.params = log, coalesce, params

    def record(self, addresses, *, active_mask=None, l2_bypass=False):
        if isinstance(addresses, np.ndarray):
            addresses = addresses.copy()  # the driver may reuse its buffer
        self.log.streams.append((self.coalesce, self.params, addresses, active_mask, l2_bypass))


class PerStreamLog:
    """The stream log's interface, priced stream by stream: each stream's
    reference coalescing and :func:`price_stream`, its ``dram_time_s``
    added to the launch's, its stats ``merged`` in."""

    def __init__(self, hierarchy: MemoryHierarchy) -> None:
        self.hierarchy = hierarchy
        self.streams = []
        self.launches = []

    def channel(self, coalesce, **params):
        return _Channel(self, coalesce, params)

    def end_launch(self, finish, report=None) -> None:
        self.launches.append((len(self.streams), finish))

    def flush(self) -> None:
        hierarchy = self.hierarchy
        streams, launches = self.streams, self.launches
        self.streams, self.launches = [], []
        priced = []
        for coalesce, params, addresses, active_mask, l2_bypass in streams:
            result = coalesce_reference(coalesce, addresses, active_mask, params)
            priced.append(price_stream(hierarchy, result, l2_bypass))
        stats = stream_stats([stream for stream, _ in priced], [rate for _, rate in priced])
        lo = 0
        for hi, finish in launches:
            memory = MemoryStats()
            dram_s = 0.0
            for stream, _ in priced[lo:hi]:
                dram_s += hierarchy.dram_time_s(stream)
                memory = memory.merged(stream)
            finish(memory, dram_s, stats, lo, hi)
            lo = hi


def stream_stats(streams, hit_rates) -> StreamStats:
    def column(name, dtype=np.int64):
        return np.array([getattr(stream, name) for stream in streams], dtype=dtype)

    return StreamStats(
        accesses=column("accesses"),
        transactions=column("transactions"),
        l2_hits=column("l2_hits"),
        dram_accesses=column("dram_accesses"),
        dram_bytes=column("dram_bytes"),
        row_hit_fraction=column("row_hit_fraction", np.float64),
        hit_rate=np.array([rate or 0.0 for rate in hit_rates]),
        unique_lines=np.zeros(len(streams), dtype=np.int64),
    )


def price_launches_per_stream(monkeypatch) -> None:
    """Give every hierarchy built from now on a :class:`PerStreamLog`."""
    monkeypatch.setattr(hierarchy_module, "StreamLog", PerStreamLog)


#: One stream of a launch: (kind, size, seed, l2_bypass).  Sizes follow
#: the frontier workloads: mostly tens of elements, some thousands.
stream_specs = st.tuples(
    st.sampled_from(["walk", "gather", "repeat-gather", "array", "sorted", "masked", "empty"]),
    st.one_of(st.integers(min_value=1, max_value=300), st.integers(min_value=300, max_value=3000)),
    st.integers(min_value=0, max_value=1 << 16),
    st.booleans(),
)


def build_stream(kind, size, seed, shared_gather):
    """The address stream and active mask of one drawn stream."""
    rng = np.random.default_rng(seed)
    base = 256 * int(rng.integers(0, 1 << 12))
    if kind == "walk":
        return AddressWalk(base + 4 * int(rng.integers(0, 64)), size, 4), None
    if kind == "gather":
        return AddressGather(base, 4, rng.integers(0, 4 * size, size=size)), None
    if kind == "repeat-gather":
        return shared_gather, None
    addresses = base + 4 * rng.integers(0, 8 * size, size=size)
    if kind == "sorted":
        return np.sort(addresses), None
    if kind == "masked":
        return addresses, rng.random(size) < 0.6
    if kind == "empty":
        return addresses[:0], None
    return addresses, None


def price(log, launches, warp: bool):
    """Record ``launches`` (lists of drawn streams) and price them;
    returns each launch's (memory, dram_s, per-stream stats)."""
    shared = AddressGather(1 << 20, 4, np.random.default_rng(1).integers(0, 500, size=300))
    out = []

    def finish(memory, dram_s, stats, lo, hi):
        out.append((memory, dram_s, [stats[i] for i in range(lo, hi)]))

    for specs in launches:
        for kind, size, seed, l2_bypass in specs:
            addresses, mask = build_stream(kind, size, seed, shared)
            if warp:
                channel = log.channel(coalesce_warp, warp_size=32)
                channel.record(addresses, active_mask=mask, l2_bypass=l2_bypass)
            else:
                if mask is not None:
                    addresses = addresses[mask]
                # both SCU windows, as an operation's hash probes use 1
                window = 1 if l2_bypass else 8
                log.channel(coalesce_stream, merge_window=window).record(addresses)
        log.end_launch(finish)
    log.flush()
    return out


class TestTallyMatchesPerStreamLoop:
    @given(
        st.lists(st.lists(stream_specs, max_size=8), min_size=1, max_size=4),
        st.booleans(),
        st.sampled_from([1 << 10, 1 << 14, 1 << 21]),
        st.sampled_from([256, 2048]),
        st.sampled_from([1, 4]),
        st.sampled_from([500, 1 << 20]),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_field_and_dram_time(
        self, launches, warp, capacity, row_bytes, sectors_per_line, cap
    ):
        def hierarchy():
            return MemoryHierarchy(
                l2_capacity_bytes=capacity,
                dram=dataclasses.replace(GDDR5, row_bytes=row_bytes),
                l2_line_bytes=32 * sectors_per_line,
            )

        # A small cap makes the log price what it holds mid-run.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hierarchy_module, "PENDING_IDS_LIMIT", cap)
            logged = price(hierarchy().log, launches, warp)
        looped = price(PerStreamLog(hierarchy()), launches, warp)
        assert len(logged) == len(launches)
        for launch_logged, launch_looped in zip(logged, looped):
            assert launch_logged[0] == launch_looped[0]  # every field, floats by ==
            assert launch_logged[1] == launch_looped[1]
            assert launch_logged[2] == launch_looped[2]

    def test_empty_launch(self):
        hierarchy = MemoryHierarchy(l2_capacity_bytes=1 << 14, dram=GDDR5)
        assert isinstance(hierarchy.log, StreamLog)
        (launch,) = price(hierarchy.log, [[]], warp=True)
        assert launch == (MemoryStats(), 0.0, [])

    def test_the_first_stream_is_reweighted_like_merged(self):
        # merged() computes the DRAM-byte-weighted row-hit average even
        # into an empty total, and 0.2 * 192 / 192 is 0.20000000000000004:
        # the log replays that rather than taking the stream's 0.2.
        one_row_hit = np.array([0, 1, 64, 128, 192, 256]) * 32  # 64 sectors a row
        priced = []
        for log in (
            MemoryHierarchy(l2_capacity_bytes=1 << 14, dram=GDDR5).log,
            PerStreamLog(MemoryHierarchy(l2_capacity_bytes=1 << 14, dram=GDDR5)),
        ):
            for addresses, window in ((one_row_hit[:0], 8), (one_row_hit, 1), (one_row_hit[:0], 8)):
                log.channel(coalesce_stream, merge_window=window).record(addresses)
            log.end_launch(lambda memory, dram_s, stats, lo, hi: priced.append((memory, stats[1])))
            log.flush()
        (logged, stream), (looped, _) = priced
        assert (stream.dram_bytes, stream.row_hit_fraction) == (192, 0.2)
        assert looped.row_hit_fraction == 0.20000000000000004
        assert logged == looped


class TestHierarchyConstruction:
    @pytest.mark.parametrize("capacity, line", [(0, 32), (-32, 32), (1 << 10, 0)])
    def test_rejects_an_empty_l2(self, capacity, line):
        with pytest.raises(ConfigError, match="cache capacity and line size"):
            MemoryHierarchy(l2_capacity_bytes=capacity, dram=GDDR5, l2_line_bytes=line)


#: Metric families a launch's pricing records (or derives from it).
LAUNCH_METRICS = ("mem.", "scu.", "gpu.")


def launch_metrics(obs):
    return {
        name: series
        for name, series in obs.metrics.snapshot().items()
        if name.startswith(LAUNCH_METRICS)
    }


class TestObservedMetricsMatchPerStreamLoop:
    """With observability on, the log records what the loop did."""

    def run_observed(self):
        obs = make_observability()
        outcome = run_algorithm(
            "bfs", load_dataset("human"), "TX1", SystemMode.SCU_ENHANCED, obs=obs
        )
        return launch_metrics(obs), outcome.report

    def test_bfs_run(self, monkeypatch):
        logged, report = self.run_observed()
        assert logged["mem.l2.transactions"]["series"][0]["value"] > 0
        assert "scu.stream.transactions" in logged
        price_launches_per_stream(monkeypatch)
        looped, looped_report = self.run_observed()
        assert logged == looped
        assert report == looped_report

    def run_engines(self):
        obs = make_observability()
        device = GpuDevice(GPU_SYSTEMS["GTX980"], obs=obs, memory_scale=16.0)
        rng = np.random.default_rng(9)
        spec = KernelSpec(name="mixed", kind=PhaseKind.PROCESSING, threads=4000)
        spec.load(AddressWalk(4, 4000, 4))
        spec.load(rng.integers(0, 1 << 20, size=700) * 4, l2_bypass=True)
        spec.load(np.arange(0, 4000, 3) * 8, active_mask=np.arange(1334) % 5 > 0)
        spec.atomic(AddressGather(1 << 22, 4, rng.integers(0, 900, size=500)))
        spec.load(np.empty(0, dtype=np.int64))
        report = device.run(spec)
        streams = [
            ScuStream("data", AddressWalk(1 << 12, 900, 4)),
            ScuStream("indexes", rng.integers(0, 1 << 16, size=300) * 4),
            ScuStream("hash", rng.integers(0, 1 << 16, size=200) * 8, random_access=True),
            ScuStream("output", AddressWalk(1 << 16, 0, 4), is_write=True),
        ]
        log = device.hierarchy.log
        record_scu_streams(streams, SCU_CONFIGS["GTX980"], log)
        priced = []

        def finish(memory, dram_s, stats, lo, hi):
            observe_scu_streams(obs, [stream.role for stream in streams], stats, lo, hi)
            priced.append((memory, dram_s))

        log.end_launch(finish)
        log.flush()
        return launch_metrics(obs), report, priced[0]

    def test_both_engines(self, monkeypatch):
        logged = self.run_engines()
        metrics, report, (memory, _) = logged
        assert "scu.stream.coalesce_factor" in metrics
        (requests,) = metrics["mem.dram.requests"]["series"]
        assert requests["value"] == report.memory.dram_accesses + memory.dram_accesses
        price_launches_per_stream(monkeypatch)
        assert self.run_engines() == logged


class TestPendingReports:
    """A launch's report settles when its log is priced."""

    def test_reading_a_cost_field_prices_the_log(self):
        device = GpuDevice(GPU_SYSTEMS["TX1"], memory_scale=16.0)
        spec = KernelSpec(name="walk", kind=PhaseKind.PROCESSING, threads=512)
        spec.load(AddressWalk(0, 512, 4))
        reports = [device.run(spec) for _ in range(3)]
        assert all("_log" in vars(report) for report in reports)
        assert reports[1].time_s > 0  # one read settles every pending launch
        assert not any("_log" in vars(report) for report in reports)
        assert reports[0] == reports[1] == reports[2]

    def test_a_finished_run_holds_no_log(self):
        import pickle

        outcome = run_algorithm("bfs", load_dataset("human"), "TX1", SystemMode.SCU_ENHANCED)
        assert not any("_log" in vars(phase) for phase in outcome.report)
        payload = pickle.dumps(outcome.report)
        assert b"StreamLog" not in payload and b"LogChannel" not in payload
        assert pickle.loads(payload).phases == outcome.report.phases

    def test_a_failed_flush_marks_the_reports_it_left_unsettled(self, monkeypatch):
        device = GpuDevice(GPU_SYSTEMS["TX1"], memory_scale=16.0)
        spec = KernelSpec(name="walk", kind=PhaseKind.PROCESSING, threads=512)
        spec.load(AddressWalk(0, 512, 4))
        first = device.run(spec)
        broken = device.run(dataclasses.replace(spec, name="broken"))
        last = device.run(spec)
        settle = type(first).settle

        def failing_settle(report, *costs):
            if report.name == "broken":
                raise RuntimeError("finish failed")
            settle(report, *costs)

        monkeypatch.setattr(type(first), "settle", failing_settle)
        with pytest.raises(RuntimeError, match="finish failed"):
            device.hierarchy.log.flush()
        assert first.time_s > 0  # settled before the failure
        for report in (broken, last):
            with pytest.raises(SimulationError, match="pricing its launch failed") as excinfo:
                report.memory
            assert isinstance(excinfo.value.__cause__, RuntimeError)
        # The log is empty again and prices new launches.
        monkeypatch.setattr(type(first), "settle", settle)
        assert device.run(spec).time_s == first.time_s
