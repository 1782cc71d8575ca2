"""Tests for the DRAM model and the memory hierarchy composition."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.mem import (
    GDDR5,
    LPDDR4,
    DramConfig,
    DramModel,
    DramTraffic,
    MemoryHierarchy,
    MemoryStats,
    coalesce_warp,
    row_hit_fraction,
    sequential_addresses,
)


class TestDramConfigs:
    def test_paper_bandwidths(self):
        assert GDDR5.peak_bandwidth_bps == 224e9  # Table 3
        assert LPDDR4.peak_bandwidth_bps == 25.6e9  # Table 4

    def test_paper_capacities(self):
        assert GDDR5.capacity_bytes == 4 << 30
        assert LPDDR4.capacity_bytes == 4 << 30

    def test_lpddr4_is_lower_energy(self):
        assert LPDDR4.energy_pj_per_bit < GDDR5.energy_pj_per_bit

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            DramConfig(
                name="bad",
                capacity_bytes=1,
                peak_bandwidth_bps=-1,
                access_latency_ns=10,
                row_hit_latency_ns=5,
                energy_pj_per_bit=1,
                activation_energy_pj=1,
                static_power_w=1,
            )


class TestDramModel:
    def test_streaming_faster_than_random(self):
        model = DramModel(GDDR5)
        streaming = DramTraffic(accesses=10_000, bytes_transferred=320_000, row_hit_fraction=1.0)
        random = DramTraffic(accesses=10_000, bytes_transferred=320_000, row_hit_fraction=0.0)
        assert model.transfer_time_s(streaming) < model.transfer_time_s(random)

    def test_effective_bandwidth_bounds(self):
        model = DramModel(GDDR5)
        assert model.effective_bandwidth(1.0) == pytest.approx(0.9 * 224e9)
        assert model.effective_bandwidth(0.0) == pytest.approx(0.35 * 224e9)

    def test_zero_traffic_costs_nothing(self):
        model = DramModel(LPDDR4)
        idle = DramTraffic(accesses=0, bytes_transferred=0)
        assert model.transfer_time_s(idle) == 0.0
        assert model.dynamic_energy_j(idle) == 0.0

    def test_latency_floor(self):
        model = DramModel(GDDR5)
        tiny = DramTraffic(accesses=1, bytes_transferred=32)
        assert model.transfer_time_s(tiny) >= GDDR5.access_latency_ns * 1e-9

    def test_row_misses_cost_activation_energy(self):
        model = DramModel(GDDR5)
        hit = DramTraffic(accesses=1000, bytes_transferred=32_000, row_hit_fraction=1.0)
        miss = DramTraffic(accesses=1000, bytes_transferred=32_000, row_hit_fraction=0.0)
        assert model.dynamic_energy_j(miss) > model.dynamic_energy_j(hit)

    def test_bad_row_hit_fraction_rejected(self):
        with pytest.raises(ConfigError):
            DramTraffic(accesses=1, bytes_transferred=32, row_hit_fraction=1.5)

    def test_static_energy_scales_with_time(self):
        model = DramModel(GDDR5)
        assert model.static_energy_j(2.0) == pytest.approx(2 * GDDR5.static_power_w)


class TestRowHitFraction:
    def test_sequential_lines_mostly_hit(self):
        lines = np.arange(1000)
        assert row_hit_fraction(lines) > 0.9

    def test_random_lines_mostly_miss(self):
        rng = np.random.default_rng(1)
        lines = rng.integers(0, 1 << 24, size=1000)
        assert row_hit_fraction(lines) < 0.1

    def test_short_streams_default(self):
        assert row_hit_fraction(np.array([3])) == 0.5


class TestMemoryHierarchy:
    def make(self, l2_kb=256):
        return MemoryHierarchy(l2_capacity_bytes=l2_kb * 1024, dram=LPDDR4)

    def test_fitting_stream_hits_l2_on_reuse(self):
        hierarchy = self.make()
        addrs = np.tile(sequential_addresses(1024, elem_bytes=4), 4)
        stats = hierarchy.process(coalesce_warp(addrs))[0]
        assert stats.l2_hits > 0
        assert stats.dram_accesses < stats.transactions

    def test_l2_bypass_sends_everything_to_dram(self):
        hierarchy = self.make()
        addrs = np.tile(sequential_addresses(1024, elem_bytes=4), 4)
        stats = hierarchy.process(coalesce_warp(addrs), l2_bypass=True)[0]
        assert stats.l2_hits == 0
        assert stats.dram_accesses == stats.transactions

    def test_empty_result(self):
        hierarchy = self.make()
        stats = hierarchy.process(coalesce_warp(np.empty(0, dtype=np.int64)))[0]
        assert stats == MemoryStats()

    def test_dram_bytes_are_sector_sized(self):
        hierarchy = self.make()
        stats = hierarchy.process(coalesce_warp(sequential_addresses(64)), l2_bypass=True)[0]
        assert stats.dram_bytes == stats.dram_accesses * 32

    def test_merged_accumulates(self):
        hierarchy = self.make()
        a = hierarchy.process(coalesce_warp(sequential_addresses(64)))[0]
        b = hierarchy.process(coalesce_warp(sequential_addresses(64, base=1 << 20)))[0]
        merged = a.merged(b)
        assert merged.transactions == a.transactions + b.transactions
        assert merged.accesses == 128

    def test_merged_weights_row_locality_by_bytes(self):
        a = MemoryStats(dram_bytes=100, dram_accesses=1, row_hit_fraction=1.0)
        b = MemoryStats(dram_bytes=300, dram_accesses=1, row_hit_fraction=0.0)
        assert a.merged(b).row_hit_fraction == pytest.approx(0.25)

    def test_coalescing_factor_reported(self):
        hierarchy = self.make()
        stats = hierarchy.process(coalesce_warp(sequential_addresses(32, elem_bytes=4)))[0]
        assert stats.coalescing_factor == 8.0

    def test_dram_time_positive_for_traffic(self):
        hierarchy = self.make()
        stats = hierarchy.process(coalesce_warp(sequential_addresses(4096)), l2_bypass=True)[0]
        assert hierarchy.dram_time_s(stats) > 0
