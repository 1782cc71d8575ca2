"""A launch's tally prices its streams exactly like the per-stream loop.

Both engines price a launch through :meth:`MemoryHierarchy.launch`: a
:class:`LaunchTally` that keeps the launch's totals on plain numbers.
:class:`PerStreamLoop` is the pricing it replaces, rebuilt here from the
public per-stream calls (``process``, ``dram_time_s``, ``merged``); every
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
from repro.core.pipeline import ScuStream, streams_memory_stats
from repro.errors import ConfigError
from repro.gpu import GPU_SYSTEMS, GpuDevice, KernelSpec
from repro.graph.datasets import load_dataset
from repro.mem import GDDR5, AddressGather, AddressWalk, MemoryHierarchy, MemoryStats
from repro.mem.coalescer import coalesce_stream, coalesce_warp
from repro.mem.hierarchy import LaunchTally
from repro.obs import make_observability
from repro.phases import PhaseKind


class PerStreamLoop:
    """Launch pricing stream by stream: each stream's ``process``, its
    ``dram_time_s`` added to the launch's, its stats ``merged`` in."""

    def __init__(self, hierarchy: MemoryHierarchy) -> None:
        self.hierarchy = hierarchy
        self.memory = MemoryStats()
        self.dram_s = 0.0

    def add(self, result, *, l2_bypass: bool = False) -> MemoryStats:
        stats = self.hierarchy.process(result, l2_bypass=l2_bypass)
        self.dram_s += self.hierarchy.dram_time_s(stats)
        self.memory = self.memory.merged(stats)
        return stats

    def stats(self) -> MemoryStats:
        return self.memory


def price_launches_per_stream(monkeypatch) -> None:
    """Send every launch of both engines down :class:`PerStreamLoop`."""
    monkeypatch.setattr(MemoryHierarchy, "launch", lambda self: PerStreamLoop(self))


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


def price(launch, specs, warp: bool):
    shared = AddressGather(1 << 20, 4, np.random.default_rng(1).integers(0, 500, size=300))
    per_stream = []
    for kind, size, seed, l2_bypass in specs:
        addresses, mask = build_stream(kind, size, seed, shared)
        if warp:
            result = coalesce_warp(addresses, active_mask=mask)
        else:
            if mask is not None:
                addresses = addresses[mask]
            result = coalesce_stream(addresses, merge_window=8)
        per_stream.append(launch.add(result, l2_bypass=l2_bypass))
    return launch.stats(), launch.dram_s, per_stream


class TestTallyMatchesPerStreamLoop:
    @given(
        st.lists(stream_specs, max_size=12),
        st.booleans(),
        st.sampled_from([1 << 10, 1 << 14, 1 << 21]),
        st.sampled_from([256, 2048]),
        st.sampled_from([1, 4]),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_field_and_dram_time(self, specs, warp, capacity, row_bytes, sectors_per_line):
        hierarchy = MemoryHierarchy(
            l2_capacity_bytes=capacity,
            dram=dataclasses.replace(GDDR5, row_bytes=row_bytes),
            l2_line_bytes=32 * sectors_per_line,
        )
        tally = price(hierarchy.launch(), specs, warp)
        loop = price(PerStreamLoop(hierarchy), specs, warp)
        assert isinstance(hierarchy.launch(), LaunchTally)
        assert tally[0] == loop[0]  # every MemoryStats field, floats by ==
        assert tally[1] == loop[1]
        assert tally[2] == loop[2]

    def test_empty_launch(self):
        hierarchy = MemoryHierarchy(l2_capacity_bytes=1 << 14, dram=GDDR5)
        tally = hierarchy.launch()
        assert tally.stats() == MemoryStats() and tally.dram_s == 0.0

    def test_the_first_stream_is_reweighted_like_merged(self):
        # merged() computes the DRAM-byte-weighted row-hit average even
        # into an empty total, and 0.2 * 192 / 192 is 0.20000000000000004:
        # the tally replays that rather than taking the stream's 0.2.
        hierarchy = MemoryHierarchy(l2_capacity_bytes=1 << 14, dram=GDDR5)
        one_row_hit = np.array([0, 1, 64, 128, 192, 256]) * 32  # 64 sectors a row
        launches = (hierarchy.launch(), PerStreamLoop(hierarchy))
        for launch in launches:
            launch.add(coalesce_stream(one_row_hit[:0]))
            stats = launch.add(coalesce_stream(one_row_hit, merge_window=1), l2_bypass=True)
            launch.add(coalesce_stream(one_row_hit[:0]))
        assert (stats.dram_bytes, stats.row_hit_fraction) == (192, 0.2)
        tally, loop = (launch.stats() for launch in launches)
        assert loop.row_hit_fraction == 0.20000000000000004
        assert tally == loop


class TestHierarchyConstruction:
    @pytest.mark.parametrize("capacity, line", [(0, 32), (-32, 32), (1 << 10, 0)])
    def test_rejects_an_empty_l2(self, capacity, line):
        with pytest.raises(ConfigError, match="cache capacity and line size"):
            MemoryHierarchy(l2_capacity_bytes=capacity, dram=GDDR5, l2_line_bytes=line)


#: Metric families a launch's pricing records.
LAUNCH_METRICS = ("mem.", "scu.stream.", "gpu.kernel.", "gpu.warp.")


def launch_metrics(obs):
    return {
        name: series
        for name, series in obs.metrics.snapshot().items()
        if name.startswith(LAUNCH_METRICS)
    }


class TestObservedMetricsMatchPerStreamLoop:
    """With observability on, the tally records what the loop did."""

    def run_observed(self):
        obs = make_observability()
        outcome = run_algorithm(
            "bfs", load_dataset("human"), "TX1", SystemMode.SCU_ENHANCED, obs=obs
        )
        return launch_metrics(obs), outcome.report

    def test_bfs_run(self, monkeypatch):
        tallied, report = self.run_observed()
        assert tallied["mem.l2.transactions"]["series"][0]["value"] > 0
        assert "scu.stream.transactions" in tallied
        price_launches_per_stream(monkeypatch)
        looped, looped_report = self.run_observed()
        assert tallied == looped
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
        memory = streams_memory_stats(streams, SCU_CONFIGS["GTX980"], device.hierarchy, obs=obs)
        return launch_metrics(obs), report, memory

    def test_both_engines(self, monkeypatch):
        tallied = self.run_engines()
        metrics, report, (memory, _) = tallied
        assert "scu.stream.coalesce_factor" in metrics
        (requests,) = metrics["mem.dram.requests"]["series"]
        assert requests["value"] == report.memory.dram_accesses + memory.dram_accesses
        price_launches_per_stream(monkeypatch)
        assert self.run_engines() == tallied
