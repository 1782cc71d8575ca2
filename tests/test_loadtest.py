"""Tests for the loadtest harness (repro.bench.loadtest).

Unit-level: the zipf schedule is deterministic and skewed; artifacts
round-trip; the compare gate trips on rate/latency regressions and
refuses mismatched workloads; SLO parsing and evaluation.
Integration-level: one tiny closed-loop run against an in-process
server produces a coherent artifact.
"""

import json

import numpy as np
import pytest

from repro.bench.loadtest import (
    LoadtestConfig,
    ServeArtifact,
    build_population,
    build_schedule,
    compare_serve_artifacts,
    evaluate_slo,
    parse_slo,
    run_loadtest,
    summarize_results,
    summarize_server,
    zipf_weights,
    RequestResult,
    SERVE_KIND,
)
from repro.errors import BenchError


class TestConfig:
    def test_defaults_are_valid(self):
        config = LoadtestConfig()
        assert config.mode == "closed"
        assert config.requests == 120

    def test_invalid_mode_rejected(self):
        with pytest.raises(BenchError):
            LoadtestConfig(mode="sideways")

    def test_invalid_counts_rejected(self):
        with pytest.raises(BenchError):
            LoadtestConfig(requests=0)
        with pytest.raises(BenchError):
            LoadtestConfig(clients=0)
        with pytest.raises(BenchError):
            LoadtestConfig(zipf_s=-1.0)

    def test_round_trips_through_dict(self):
        config = LoadtestConfig(requests=10, keys=3, zipf_s=0.5)
        assert LoadtestConfig.from_dict(config.to_dict()) == config


class TestSchedule:
    def test_population_truncates_to_keys(self):
        config = LoadtestConfig(keys=4)
        population = build_population(config)
        assert len(population) == 4
        labels = [r.label() for r in population]
        assert len(set(labels)) == 4  # all distinct cells

    def test_keys_beyond_grid_rejected(self):
        # bfs x 3 datasets x 1 GPU x 4 modes = 12 cells.
        assert len(build_population(LoadtestConfig(keys=12))) == 12
        with pytest.raises(BenchError, match="13 exceeds the 12-cell grid"):
            build_population(LoadtestConfig(keys=13))

    def test_schedule_is_seed_deterministic(self):
        config = LoadtestConfig(requests=200, keys=5, seed=7)
        first = build_schedule(config, 5)
        second = build_schedule(config, 5)
        np.testing.assert_array_equal(first, second)
        different = build_schedule(
            LoadtestConfig(requests=200, keys=5, seed=8), 5
        )
        assert not np.array_equal(first, different)

    def test_zipf_skews_toward_low_ranks(self):
        weights = zipf_weights(10, 1.1)
        assert weights[0] > weights[-1]
        assert weights.sum() == pytest.approx(1.0)
        config = LoadtestConfig(requests=2000, keys=10, zipf_s=1.1, seed=1)
        schedule = build_schedule(config, 10)
        counts = np.bincount(schedule, minlength=10)
        assert counts[0] > counts[-1] * 2  # rank 0 clearly hottest

    def test_zipf_zero_is_uniform(self):
        weights = zipf_weights(8, 0.0)
        np.testing.assert_allclose(weights, np.full(8, 1 / 8))


class TestSummaries:
    def _result(self, status, latency_s):
        return RequestResult(
            index=0, key_index=0, status=status, latency_s=latency_s
        )

    def test_outcome_classification(self):
        results = [
            self._result(200, 0.01),
            self._result(200, 0.02),
            self._result(429, 0.001),
            self._result(504, 1.0),
            self._result(500, 0.1),
        ]
        totals, rates, latency_ms = summarize_results(results, elapsed_s=2.0)
        assert totals["ok"] == 2
        assert totals["rejected_429"] == 1
        assert totals["timeout_504"] == 1
        assert totals["errors"] == 1
        assert rates["throughput_rps"] == pytest.approx(2.5)
        assert rates["rejected_429_rate"] == pytest.approx(0.2)
        assert latency_ms["max_ms"] == pytest.approx(1000.0)
        assert latency_ms["p50_ms"] == pytest.approx(20.0)

    def test_empty_results(self):
        totals, rates, latency_ms = summarize_results([], elapsed_s=0.0)
        assert totals["requests"] == 0
        assert rates["throughput_rps"] == 0.0
        assert latency_ms["p99_ms"] == 0.0

    @staticmethod
    def _exposition(requests, simulations, coalesced, store_hits):
        lines = []
        for name, value in (
            ("serve_requests", requests),
            ("serve_simulations", simulations),
            ("serve_singleflight_coalesced_hits", coalesced),
            ("serve_rejected", 0.0),
            ("serve_store_hits", store_hits),
            ("serve_store_misses", 0.0),
        ):
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {value}")
        return "\n".join(lines) + "\n"

    def test_tiers_split_cached_hits_by_store_counter(self):
        before = self._exposition(0, 0, 0, 0)
        after = self._exposition(10, 2, 1, 3)
        summary = summarize_server(before, after)
        # cached = 10 - 2 simulated - 1 coalesced = 7; 3 of those came
        # from the disk tier, the remaining 4 from memory
        tiers = summary["tiers"]
        assert tiers["l2_hit_ratio"] == pytest.approx(0.3)
        assert tiers["l1_hit_ratio"] == pytest.approx(0.4)
        assert tiers["simulated_ratio"] == pytest.approx(0.2)
        assert tiers["coalesced_ratio"] == pytest.approx(0.1)
        assert tiers["l1_hit_ratio"] + tiers["l2_hit_ratio"] == (
            pytest.approx(summary["ratios"]["cached"])
        )

    def test_tiers_without_a_store_attribute_everything_to_l1(self):
        before = self._exposition(0, 0, 0, 0)
        after = self._exposition(8, 2, 0, 0)
        tiers = summarize_server(before, after)["tiers"]
        assert tiers["l2_hit_ratio"] == 0.0
        assert tiers["l1_hit_ratio"] == pytest.approx(0.75)


def _artifact(**overrides):
    config = LoadtestConfig(requests=10, keys=2).to_dict()
    payload = {
        "schema_version": 1,
        "kind": SERVE_KIND,
        "tag": "t",
        "provenance": {},
        "config": config,
        "totals": {"requests": 10.0, "ok": 10.0},
        "rates": {
            "throughput_rps": 50.0,
            "error_rate": 0.0,
            "rejected_429_rate": 0.0,
            "timeout_504_rate": 0.0,
        },
        "latency_ms": {
            "p50_ms": 10.0,
            "p95_ms": 20.0,
            "p99_ms": 30.0,
            "mean_ms": 12.0,
            "max_ms": 35.0,
        },
        "server": {},
    }
    payload.update(overrides)
    return ServeArtifact.from_dict(payload)


class TestArtifact:
    def test_round_trips_through_save_load(self, tmp_path):
        artifact = _artifact()
        path = artifact.save(tmp_path / "BENCH_serve_t.json")
        loaded = ServeArtifact.load(path)
        assert loaded.to_dict() == artifact.to_dict()

    def test_wrong_kind_rejected(self):
        with pytest.raises(BenchError):
            _artifact(kind="bench-micro")

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(BenchError):
            _artifact(schema_version=99)

    def test_missing_field_rejected(self):
        payload = _artifact().to_dict()
        del payload["rates"]
        with pytest.raises(BenchError):
            ServeArtifact.from_dict(payload)


class TestCompare:
    def test_identical_artifacts_are_clean(self):
        report = compare_serve_artifacts(_artifact(), _artifact())
        assert report.ok
        assert report.cells_compared == 1

    def test_rate_regression_trips(self):
        current = _artifact()
        current.rates = dict(current.rates, rejected_429_rate=0.25)
        report = compare_serve_artifacts(_artifact(), current)
        assert not report.ok
        assert any(
            f.metric == "rates.rejected_429_rate" for f in report.regressions
        )

    def test_rate_within_tolerance_passes(self):
        current = _artifact()
        current.rates = dict(current.rates, rejected_429_rate=0.04)
        report = compare_serve_artifacts(
            _artifact(), current, rate_tolerance=0.05
        )
        assert report.ok

    def test_latency_regression_trips_beyond_tolerance(self):
        current = _artifact()
        current.latency_ms = dict(current.latency_ms, p99_ms=300.0)  # 10x
        report = compare_serve_artifacts(
            _artifact(), current, latency_tolerance_pct=300.0
        )
        assert not report.ok
        assert any(f.metric == "latency.p99_ms" for f in report.regressions)

    def test_nonpositive_latency_tolerance_disables_gating(self):
        current = _artifact()
        current.latency_ms = dict(current.latency_ms, p99_ms=30000.0)
        report = compare_serve_artifacts(
            _artifact(), current, latency_tolerance_pct=0.0
        )
        assert report.ok

    def test_mismatched_workload_is_an_error_not_a_verdict(self):
        other = _artifact(
            config=LoadtestConfig(requests=11, keys=2).to_dict()
        )
        with pytest.raises(BenchError, match="different workloads"):
            compare_serve_artifacts(_artifact(), other)

    def test_sizing_fields_do_not_block_comparison(self):
        """workers/queue_depth are what a loadtest tunes — they compare."""
        resized = LoadtestConfig(
            requests=10, keys=2, workers=1, queue_depth=1
        ).to_dict()
        report = compare_serve_artifacts(
            _artifact(), _artifact(config=resized)
        )
        assert report.ok


class TestSlo:
    def test_parse_and_unknown_names(self):
        slo = parse_slo(["p99_ms=500", "error_rate=0.01"])
        assert slo == {"p99_ms": 500.0, "error_rate": 0.01}
        with pytest.raises(BenchError):
            parse_slo(["p37_ms=1"])
        with pytest.raises(BenchError):
            parse_slo(["p99_ms"])
        with pytest.raises(BenchError):
            parse_slo(["p99_ms=fast"])

    def test_ceiling_violation(self):
        violations = evaluate_slo(_artifact(), {"p99_ms": 25.0})
        assert len(violations) == 1
        assert violations[0].metric == "p99_ms"
        assert evaluate_slo(_artifact(), {"p99_ms": 30.0}) == []

    def test_throughput_is_a_floor(self):
        assert evaluate_slo(_artifact(), {"throughput_rps": 40.0}) == []
        violations = evaluate_slo(_artifact(), {"throughput_rps": 60.0})
        assert len(violations) == 1


class TestEndToEnd:
    def test_tiny_closed_loop_run(self, tmp_path):
        config = LoadtestConfig(
            requests=12,
            clients=2,
            keys=2,
            datasets=("delaunay",),
            modes=("gpu", "scu-basic"),
        )
        trace_path = tmp_path / "loadtest-trace.json"
        artifact = run_loadtest(config, tag="test", trace_out=str(trace_path))
        assert artifact.kind == SERVE_KIND
        assert artifact.totals["requests"] == 12
        assert artifact.totals["ok"] == 12
        assert artifact.rates["error_rate"] == 0.0
        assert artifact.latency_ms["p99_ms"] >= artifact.latency_ms["p50_ms"] > 0
        # server-side truth: both keys simulated once, the rest reused
        counters = artifact.server["counters"]
        assert counters["requests"] == 12
        assert counters["simulations"] == 2
        ratios = artifact.server["ratios"]
        assert ratios["simulated"] + ratios["coalesced"] + ratios[
            "cached"
        ] == pytest.approx(1.0)
        assert "total" in artifact.server["latency_ms"]
        # the artifact self-compares clean and serializes valid JSON
        assert compare_serve_artifacts(artifact, artifact).ok
        path = artifact.save(tmp_path / "BENCH_serve_test.json")
        assert json.loads(path.read_text())["kind"] == SERVE_KIND
        # offenders join client observations to server-minted IDs
        slowest = artifact.offenders["slowest"]
        assert 0 < len(slowest) <= 12
        assert all(row["request_id"].startswith("req-") for row in slowest)
        assert all(len(row["trace_id"]) == 32 for row in slowest)
        assert slowest == sorted(
            slowest, key=lambda row: -row["latency_ms"]
        )
        # every request succeeded, so no shed-load offender lists exist
        assert "rejected_429" not in artifact.offenders
        assert "timeout_504" not in artifact.offenders
        # the slowest successful request's stitched trace was written
        doc = json.loads(trace_path.read_text())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in slices}
        assert {"client.request", "serve.request"} <= names
        assert doc["otherData"]["trace_id"] == slowest[0]["trace_id"]

    def test_cluster_store_cold_start_shows_l2_hits(self, tmp_path):
        """The acceptance scenario: a warm store directory makes a
        cold-start cluster run serve from the disk tier — zero
        simulations, >0 L2 hits in the artifact's per-tier ratios."""
        store = str(tmp_path / "store")
        config = LoadtestConfig(
            requests=8,
            clients=2,
            keys=2,
            datasets=("delaunay",),
            modes=("gpu", "scu-basic"),
            cluster_workers=2,
            store_dir=store,
        )
        warm = run_loadtest(config, tag="warm")
        assert warm.totals["ok"] == 8
        assert warm.server["counters"]["simulations"] == 2
        # second run: run_loadtest wipes the in-memory L1, so every key
        # cold-starts from the shared store through the cluster front
        cold = run_loadtest(config, tag="cold")
        assert cold.totals["ok"] == 8
        assert cold.server["counters"]["simulations"] == 0
        assert cold.server["counters"]["store_hits"] > 0
        tiers = cold.server["tiers"]
        assert tiers["l2_hit_ratio"] > 0
        assert tiers["l1_hit_ratio"] + tiers["l2_hit_ratio"] == (
            pytest.approx(cold.server["ratios"]["cached"])
        )
        # the cluster run produced a normal, self-comparable artifact
        assert compare_serve_artifacts(warm, cold).ok


# ---------------------------------------------------------------------------
# Client trace identity and the offenders block
# ---------------------------------------------------------------------------

from repro.bench.loadtest import (  # noqa: E402
    OFFENDER_LIMIT,
    client_trace_context,
    collect_offenders,
)
from repro.obs.propagation import format_traceparent, parse_traceparent  # noqa: E402


class TestClientTraceContext:
    def test_deterministic_and_decodable(self):
        context = client_trace_context(seed=42, index=12)
        again = client_trace_context(seed=42, index=12)
        assert context == again
        # trace id = seed (high 64 bits) ++ 1-based index (low 64 bits)
        assert context.trace_id == f"{42:016x}{13:016x}"
        assert context.span_id == f"{13:016x}"

    def test_distinct_per_request_and_per_seed(self):
        ids = {
            client_trace_context(seed, index).trace_id
            for seed in (1, 2)
            for index in range(5)
        }
        assert len(ids) == 10

    def test_index_zero_is_never_an_all_zero_span(self):
        context = client_trace_context(seed=0x1234, index=0)
        assert context.span_id != "0" * 16
        # the wire form the loadtest sends parses back to the same context
        assert parse_traceparent(format_traceparent(context)) == context


class TestOffenders:
    def _result(self, index, status, latency_s):
        return RequestResult(
            index=index,
            key_index=index % 3,
            status=status,
            latency_s=latency_s,
            request_id=f"req-{index:06d}",
            trace_id=f"{index + 1:032x}",
        )

    def test_buckets_by_status_and_ranks_by_latency(self):
        results = [
            self._result(0, 200, 0.010),
            self._result(1, 504, 0.500),
            self._result(2, 429, 0.001),
            self._result(3, 200, 0.200),
            self._result(4, 504, 0.900),
        ]
        offenders = collect_offenders(results)
        assert [r["request_id"] for r in offenders["slowest"][:2]] == [
            "req-000004",
            "req-000001",
        ]
        assert [r["request_id"] for r in offenders["timeout_504"]] == [
            "req-000004",
            "req-000001",
        ]
        assert [r["request_id"] for r in offenders["rejected_429"]] == [
            "req-000002"
        ]
        row = offenders["slowest"][0]
        assert row["trace_id"] == f"{5:032x}"
        assert row["latency_ms"] == pytest.approx(900.0)
        assert row["status"] == 504

    def test_lists_are_bounded_and_empty_ones_pruned(self):
        results = [
            self._result(i, 200, float(i) / 1000) for i in range(25)
        ]
        offenders = collect_offenders(results)
        assert len(offenders["slowest"]) == OFFENDER_LIMIT
        assert "rejected_429" not in offenders
        assert "timeout_504" not in offenders
        assert collect_offenders([]) == {}

    def test_artifact_round_trips_offenders(self, tmp_path):
        offenders = collect_offenders([self._result(0, 504, 1.0)])
        artifact = _artifact(offenders=offenders)
        path = artifact.save(tmp_path / "BENCH_serve_off.json")
        loaded = ServeArtifact.load(path)
        assert loaded.offenders == offenders
        assert loaded.to_dict() == artifact.to_dict()

    def test_artifacts_without_offenders_still_load(self):
        # Pre-offenders artifacts (and hand-built payloads) stay readable.
        payload = _artifact().to_dict()
        payload.pop("offenders", None)
        assert ServeArtifact.from_dict(payload).offenders == {}
