"""Tests for the GPU configs, timing, energy, and device models."""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.errors import ConfigError, SimulationError
from repro.gpu import (
    GPU_SYSTEMS,
    GTX980,
    TX1,
    GpuConfig,
    GpuDevice,
    KernelSpec,
    kernel_timing,
)
from repro.mem import (
    GDDR5,
    AddressGather,
    AddressWalk,
    MemoryStats,
    sequential_addresses,
)
from repro.phases import Engine, PhaseKind


class TestConfigs:
    def test_table3_gtx980(self):
        assert GTX980.num_sms == 16
        assert GTX980.max_threads == 16 * 2048
        assert GTX980.clock_hz == 1.27e9
        assert GTX980.l2_bytes == 2 * 1024 * 1024
        assert GTX980.dram.name == "GDDR5"

    def test_table4_tx1(self):
        assert TX1.num_sms == 2
        assert TX1.max_threads == 256
        assert TX1.clock_hz == 1.0e9
        assert TX1.l2_bytes == 256 * 1024
        assert TX1.dram.name == "LPDDR4"

    def test_registry(self):
        assert set(GPU_SYSTEMS) == {"GTX980", "TX1"}

    def test_describe_matches_paper_rows(self):
        rows = dict(GTX980.describe())
        assert rows["GPU, Frequency"] == "GTX980, 1.27GHz"
        assert rows["Streaming Multiprocessors"] == "16 (32768 threads), Maxwell"
        assert "224.0 GB/s" in rows["Main Memory"]

    def test_peak_ops(self):
        assert GTX980.peak_ops_per_s == pytest.approx(16 * 128 * 1.27e9)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            GpuConfig(
                name="bad",
                num_sms=0,
                cores_per_sm=128,
                clock_hz=1e9,
                max_threads_per_sm=2048,
                l1_bytes=1,
                l2_bytes=1,
                shared_bytes_per_sm=1,
                dram=GDDR5,
                l2_bandwidth_bps=1,
                kernel_launch_overhead_s=0,
                issue_efficiency=0.5,
                effective_mshrs_per_sm=8,
                energy_per_instruction_pj=1,
                energy_per_l1_access_pj=1,
                energy_per_l2_access_pj=1,
                energy_per_atomic_pj=1,
                active_power_w=1,
                static_power_w=1,
                die_area_mm2=1,
            )


class TestKernelSpec:
    def test_total_instructions(self):
        spec = KernelSpec("k", PhaseKind.PROCESSING, threads=100, instructions_per_thread=10)
        spec.extra_instructions = 50
        assert spec.total_instructions == 1050

    def test_atomic_count(self):
        spec = KernelSpec("k", PhaseKind.PROCESSING, threads=4)
        spec.atomic(np.array([0, 4, 8]))
        spec.load(np.array([0]))
        assert spec.atomic_count == 3

    def test_negative_threads_rejected(self):
        with pytest.raises(SimulationError):
            KernelSpec("k", PhaseKind.PROCESSING, threads=-1)

    def test_builder_chains(self):
        spec = (
            KernelSpec("k", PhaseKind.COMPACTION, threads=32)
            .load(sequential_addresses(32))
            .store(sequential_addresses(32))
        )
        assert len(spec.accesses) == 2
        assert spec.accesses[1].is_store


class TestTiming:
    def make_device(self, config=TX1):
        return GpuDevice(config)

    def test_zero_work_costs_only_overhead(self):
        device = self.make_device()
        timing = kernel_timing(
            device.config, device.hierarchy, instructions=0, memory=MemoryStats()
        )
        assert timing.total_s == pytest.approx(TX1.kernel_launch_overhead_s)

    def test_compute_bound_kernel(self):
        device = self.make_device()
        timing = kernel_timing(
            device.config,
            device.hierarchy,
            instructions=10**9,
            memory=MemoryStats(),
        )
        assert timing.bottleneck == "compute"
        assert timing.compute_s == pytest.approx(
            1e9 / (TX1.peak_ops_per_s * TX1.issue_efficiency)
        )

    def test_memory_bound_kernel(self):
        device = self.make_device()
        memory = MemoryStats(
            accesses=10**7,
            transactions=10**7,
            dram_accesses=10**7,
            dram_bytes=32 * 10**7,
            row_hit_fraction=0.0,
        )
        timing = kernel_timing(
            device.config, device.hierarchy, instructions=100, memory=memory
        )
        assert timing.bottleneck in ("dram", "latency")
        assert timing.total_s > 0.01

    def test_divergence_slows_kernel(self):
        """Same accesses, different coalescing -> different time."""
        device = self.make_device()
        coalesced = MemoryStats(
            accesses=2**20, transactions=2**15, dram_accesses=2**15,
            dram_bytes=32 * 2**15, row_hit_fraction=0.9,
        )
        divergent = MemoryStats(
            accesses=2**20, transactions=2**20, dram_accesses=2**20,
            dram_bytes=32 * 2**20, row_hit_fraction=0.1,
        )
        t_good = kernel_timing(device.config, device.hierarchy, instructions=0, memory=coalesced)
        t_bad = kernel_timing(device.config, device.hierarchy, instructions=0, memory=divergent)
        assert t_bad.total_s > 5 * t_good.total_s

    def test_atomics_add_time(self):
        device = self.make_device()
        t = kernel_timing(
            device.config, device.hierarchy, instructions=0,
            memory=MemoryStats(), atomics=10**7,
        )
        assert t.atomic_s > 0
        assert t.bottleneck == "atomic"


class TestDevice:
    def test_run_produces_gpu_phase(self):
        device = GpuDevice(TX1)
        spec = KernelSpec(
            "toy", PhaseKind.PROCESSING, threads=1024, instructions_per_thread=8
        )
        spec.load(sequential_addresses(1024, elem_bytes=4))
        report = device.run(spec)
        assert report.engine is Engine.GPU
        assert report.kind is PhaseKind.PROCESSING
        assert report.elements == 1024
        assert report.instructions == 8192
        assert report.time_s > 0
        assert report.dynamic_energy_j > 0
        assert report.memory.transactions == 1024 * 4 // 32

    def test_coalesced_cheaper_than_divergent(self):
        device = GpuDevice(TX1)
        rng = np.random.default_rng(3)
        n = 1 << 16
        good = KernelSpec("good", PhaseKind.PROCESSING, threads=n)
        good.load(sequential_addresses(n, elem_bytes=4))
        bad = KernelSpec("bad", PhaseKind.PROCESSING, threads=n)
        bad.load(rng.integers(0, 1 << 28, size=n) * 4)
        r_good = device.run(good)
        r_bad = device.run(bad)
        assert r_bad.time_s > r_good.time_s
        assert r_bad.dynamic_energy_j > r_good.dynamic_energy_j

    def test_gtx980_faster_than_tx1(self):
        n = 1 << 18
        spec = lambda: KernelSpec(
            "k", PhaseKind.PROCESSING, threads=n, instructions_per_thread=20
        ).load(sequential_addresses(n, elem_bytes=4))
        t_hp = GpuDevice(GTX980).run(spec()).time_s
        t_lp = GpuDevice(TX1).run(spec()).time_s
        assert t_hp < t_lp

    def test_empty_kernel(self):
        device = GpuDevice(TX1)
        report = device.run(KernelSpec("empty", PhaseKind.COMPACTION, threads=0))
        assert report.time_s == pytest.approx(TX1.kernel_launch_overhead_s)
        assert report.memory.transactions == 0

    @pytest.mark.parametrize("mode", ["gpu", "iru"])
    def test_walk_prices_like_its_addresses(self, mode):
        rng = np.random.default_rng(5)
        walks = [
            AddressWalk(256, 5000, 4),
            AddressWalk(1028, 777, 8),
            AddressWalk(0, 0, 4),
        ]
        gather = rng.integers(0, 1 << 20, size=3000) * 4

        def spec(as_walk):
            kernel = KernelSpec("k", PhaseKind.PROCESSING, threads=5000)
            for walk in walks:
                kernel.load(walk if as_walk else walk.materialize())
            kernel.load(gather)  # an irregular stream the IRU does reorder
            kernel.store(walks[0] if as_walk else walks[0].materialize())
            kernel.atomic(walks[1] if as_walk else walks[1].materialize())
            return kernel

        reports = [
            get_backend(mode).build_system("GTX980").gpu.run(spec(as_walk))
            for as_walk in (True, False)
        ]
        assert reports[0] == reports[1]
        assert reports[0].memory.transactions > 0

    @pytest.mark.parametrize("mode", ["gpu", "iru"])
    def test_gather_prices_like_its_addresses(self, mode):
        rng = np.random.default_rng(6)
        loaded = AddressGather(1 << 12, 4, rng.integers(0, 1 << 16, size=3000))
        updated = AddressGather(1 << 20, 8, rng.integers(0, 1 << 10, size=4000))

        def spec(as_gather):
            kernel = KernelSpec("k", PhaseKind.PROCESSING, threads=4000)
            # a load the IRU reorders, and an atomic it never sees
            kernel.load(loaded if as_gather else loaded.materialize())
            kernel.atomic(updated if as_gather else updated.materialize())
            return kernel

        gpu = get_backend(mode).build_system("GTX980").gpu
        expected = gpu.run(spec(False))
        assert expected.memory.transactions > 0
        for _ in range(2):  # the second launch prices from the memo
            assert gpu.run(spec(True)) == expected
        # the IRU takes the load as its addresses, so only the GPU memoizes it
        assert bool(loaded.memo) == (mode == "gpu")
        assert updated.memo
