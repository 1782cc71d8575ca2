"""Tests for the unified run API (repro.request).

The contract under test: there is exactly ONE cache-key derivation in
the codebase — :meth:`RunRequest.cache_key` — and the experiment memo,
the run cache, the parallel sweep cells, and the service all agree on
it byte for byte.
"""

import numpy as np
import pytest

from repro import RunOutcome, RunRequest, build_system, run_algorithm
from repro.algorithms import execute_request
from repro.algorithms.common import SystemMode
from repro.errors import ConfigError, ExperimentError, ProtocolError
from repro.graph.datasets import load_dataset
from repro.harness import experiment_key
from repro.harness.parallel import SweepCell


class TestRunRequestConstruction:
    def test_make_normalizes_string_mode(self):
        request = RunRequest.make("bfs", "human", "TX1", "scu-enhanced")
        assert request.mode is SystemMode.SCU_ENHANCED

    def test_make_rejects_unknown_mode(self):
        with pytest.raises(ExperimentError, match="unknown system mode"):
            RunRequest.make("bfs", "human", "TX1", "warp-speed")

    def test_make_sorts_kwargs(self):
        a = RunRequest.make("bfs", "human", "TX1", SystemMode.GPU, source=3)
        b = RunRequest.make("bfs", "human", "TX1", SystemMode.GPU, **{"source": 3})
        assert a == b
        assert a.kwargs == (("source", 3),)

    def test_requests_are_hashable_and_frozen(self):
        request = RunRequest.make("bfs", "human", "TX1", SystemMode.GPU)
        assert hash(request) == hash(RunRequest.make("bfs", "human", "TX1", SystemMode.GPU))
        with pytest.raises(AttributeError):
            request.algorithm = "sssp"


class TestCacheKeyUnification:
    """Every caching layer derives its key from the same place."""

    def test_experiment_key_is_the_request_key(self):
        assert experiment_key("bfs", "human", "TX1", SystemMode.GPU) == (
            RunRequest.make("bfs", "human", "TX1", SystemMode.GPU).cache_key()
        )

    def test_experiment_key_with_kwargs(self):
        assert experiment_key(
            "bfs", "kron", "TX1", SystemMode.SCU_ENHANCED, enable_grouping=False
        ) == RunRequest.make(
            "bfs", "kron", "TX1", SystemMode.SCU_ENHANCED, enable_grouping=False
        ).cache_key()

    def test_sweep_cell_key_is_the_request_key(self):
        cell = SweepCell(
            algorithm="sssp",
            dataset="road",
            gpu="GTX980",
            mode=SystemMode.SCU_BASIC,
            kwargs=(("source", 5),),
        )
        assert cell.key == RunRequest.make(
            "sssp", "road", "GTX980", SystemMode.SCU_BASIC, source=5
        ).cache_key()

    def test_key_includes_seed(self):
        base = RunRequest.make("bfs", "human", "TX1", SystemMode.GPU)
        other = RunRequest.make("bfs", "human", "TX1", SystemMode.GPU, seed=7)
        assert base.cache_key() != other.cache_key()


class TestWireFormat:
    def test_round_trip(self):
        request = RunRequest.make(
            "bfs", "human", "TX1", SystemMode.SCU_ENHANCED, seed=7, source=0
        )
        assert RunRequest.from_dict(request.to_dict()) == request

    def test_defaults(self):
        request = RunRequest.from_dict(
            {"algorithm": "bfs", "dataset": "human", "gpu": "TX1", "mode": "gpu"}
        )
        assert request.seed == 42
        assert request.kwargs == ()

    @pytest.mark.parametrize(
        "payload, match",
        [
            ([], "must be a JSON object"),
            ({"algorithm": "bfs"}, "must be a non-empty string"),
            (
                {"algorithm": "bfs", "dataset": "human", "gpu": "TX1"},
                "must be a non-empty string",
            ),
            (
                {
                    "algorithm": "bfs",
                    "dataset": "human",
                    "gpu": "TX1",
                    "mode": "gpu",
                    "surprise": 1,
                },
                "unknown request fields",
            ),
            (
                {"algorithm": "zork", "dataset": "human", "gpu": "TX1", "mode": "gpu"},
                "unknown algorithm",
            ),
            (
                {"algorithm": "bfs", "dataset": "zork", "gpu": "TX1", "mode": "gpu"},
                "unknown dataset",
            ),
            (
                {"algorithm": "bfs", "dataset": "human", "gpu": "Z80", "mode": "gpu"},
                "unknown gpu",
            ),
            (
                {"algorithm": "bfs", "dataset": "human", "gpu": "TX1", "mode": "zork"},
                "unknown mode",
            ),
            (
                {
                    "algorithm": "bfs",
                    "dataset": "human",
                    "gpu": "TX1",
                    "mode": "gpu",
                    "seed": True,
                },
                "must be an integer",
            ),
            (
                {
                    "algorithm": "bfs",
                    "dataset": "human",
                    "gpu": "TX1",
                    "mode": "gpu",
                    "kwargs": {"source": [1]},
                },
                "must be a JSON scalar",
            ),
        ],
    )
    def test_from_dict_rejects_bad_payloads(self, payload, match):
        with pytest.raises(ProtocolError, match=match):
            RunRequest.from_dict(payload)

    @pytest.mark.parametrize(
        "scale, match",
        [
            (-1, "positive finite"),
            (0, "positive finite"),
            (float("nan"), "positive finite"),
            (float("inf"), "positive finite"),
            (True, "positive finite"),
            ("16", "positive finite"),
            (1e12, "less than one 32-byte line"),
            # TX1's 256 KB L2 over 2**14 is 16 bytes
            (2**14, "less than one 32-byte line"),
        ],
    )
    def test_from_dict_rejects_unbuildable_memory_scale(self, scale, match):
        payload = {
            "algorithm": "bfs",
            "dataset": "human",
            "gpu": "TX1",
            "mode": "gpu",
            "kwargs": {"memory_scale": scale},
        }
        with pytest.raises(ProtocolError, match=match):
            RunRequest.from_dict(payload)

    def test_from_dict_accepts_a_one_line_l2(self):
        # TX1's 256 KB L2 over 2**13 is exactly one 32-byte line
        payload = {
            "algorithm": "bfs",
            "dataset": "human",
            "gpu": "TX1",
            "mode": "gpu",
            "kwargs": {"memory_scale": 2**13},
        }
        request = RunRequest.from_dict(payload)
        assert dict(request.kwargs) == {"memory_scale": 2**13}
        system = build_system("TX1", mode="gpu", memory_scale=2**13)
        assert system.gpu.hierarchy.l2_capacity_bytes == 32


class TestRunOutcome:
    def test_tuple_unpacking_still_works_but_warns(self):
        graph = load_dataset("human")
        outcome = run_algorithm("bfs", graph, "TX1", SystemMode.GPU, source=0)
        with pytest.warns(DeprecationWarning, match="RunOutcome"):
            result, report, system = outcome
        assert report.algorithm == "bfs"
        assert system.config.name == "TX1"
        assert result.shape == (graph.num_nodes,)

    def test_attribute_access(self):
        outcome = execute_request(RunRequest.make("bfs", "human", "TX1", SystemMode.GPU))
        assert isinstance(outcome, RunOutcome)
        with pytest.warns(DeprecationWarning):
            as_tuple = tuple(outcome)
        assert outcome.report is as_tuple[1]
        assert outcome.system.has_scu is False

    def test_execute_request_matches_run_algorithm(self):
        request = RunRequest.make("bfs", "human", "TX1", SystemMode.SCU_ENHANCED)
        via_request = execute_request(request)
        graph = load_dataset("human", seed=42)
        direct = run_algorithm("bfs", graph, "TX1", SystemMode.SCU_ENHANCED)
        assert np.array_equal(via_request.result, direct.result)
        assert via_request.report.time_s() == direct.report.time_s()
        assert (
            via_request.report.total_energy_j() == direct.report.total_energy_j()
        )


class TestMemoryScaleConstruction:
    """build_system no longer mutates the hierarchy post-construction."""

    def test_scaled_capacity_set_at_construction(self):
        plain = build_system("TX1", mode="gpu")
        scaled = build_system("TX1", mode="gpu", memory_scale=16.0)
        expected = int(plain.gpu.config.l2_bytes / 16.0)
        assert scaled.gpu.hierarchy.l2_capacity_bytes == expected
        assert scaled.gpu.memory_scale == 16.0

    def test_unscaled_is_exact_hardware_size(self):
        system = build_system("GTX980", mode="gpu")
        assert system.gpu.hierarchy.l2_capacity_bytes == system.gpu.config.l2_bytes

    def test_empty_l2_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="cache capacity and line size"):
            build_system("TX1", mode="gpu", memory_scale=1e12)
