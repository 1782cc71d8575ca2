"""Tests for the kernel-level microbenchmark suite (``bench --micro``)."""

import json

import numpy as np
import pytest

from repro.bench import (
    DRAM_TRACE_LEN,
    MICRO_KERNEL_NAMES,
    MICRO_SCHEMA_VERSION,
    MicroArtifact,
    compare_micro_artifacts,
    run_micro,
)
from repro.cli import EXIT_REGRESSION, main
from repro.errors import BenchError
from repro.obs.metrics import MetricsRegistry, global_metrics


@pytest.fixture(scope="module")
def quick_artifact():
    """One shared quick run (reps=1) for the read-only assertions."""
    return run_micro(quick=True, reps=1, tag="test")


class TestRunMicro:
    def test_covers_every_kernel(self, quick_artifact):
        assert [r.kernel for r in quick_artifact.records] == list(MICRO_KERNEL_NAMES)

    def test_dram_trace_is_pinned_at_100k_even_in_quick_mode(self, quick_artifact):
        record = quick_artifact.record_map()[("dram.replay", DRAM_TRACE_LEN)]
        assert record.size == 100_000

    def test_reference_kernels_report_speedup(self, quick_artifact):
        by_name = {r.kernel: r for r in quick_artifact.records}
        for name in MICRO_KERNEL_NAMES:
            record = by_name[name]
            assert record.reference_wall is not None, name
            assert record.speedup is not None and record.speedup > 0, name

    def test_checksums_deterministic_across_runs(self, quick_artifact):
        again = run_micro(quick=True, reps=1, tag="again")
        for a, b in zip(quick_artifact.records, again.records):
            assert a.sim == b.sim, a.kernel

    def test_records_kernel_histograms(self):
        registry = MetricsRegistry()
        run_micro(quick=True, reps=1, tag="metrics", registry=registry)
        names = registry.names()
        for kernel in MICRO_KERNEL_NAMES:
            assert f"scu.kernel.{kernel}.seconds" in names

    def test_feeds_global_metrics_for_serve(self):
        run_micro(quick=True, reps=1, tag="global")
        rendered = global_metrics().render_prometheus()
        assert "scu_kernel_dram_replay_seconds" in rendered

    def test_bad_reps_rejected(self):
        with pytest.raises(BenchError):
            run_micro(quick=True, reps=0)


class TestMicroArtifact:
    def test_round_trip(self, quick_artifact, tmp_path):
        path = quick_artifact.save(tmp_path / "micro.json")
        loaded = MicroArtifact.load(path)
        assert loaded.tag == quick_artifact.tag
        assert loaded.quick is True
        assert [r.kernel for r in loaded.records] == list(MICRO_KERNEL_NAMES)
        for original, restored in zip(quick_artifact.records, loaded.records):
            assert original.sim == restored.sim
            assert original.wall == restored.wall
            assert original.reference_wall == restored.reference_wall

    def test_rejects_wrong_kind(self, quick_artifact, tmp_path):
        payload = quick_artifact.to_dict()
        payload["kind"] = "bench"
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(BenchError, match="kind"):
            MicroArtifact.load(path)

    def test_rejects_unknown_schema_version(self, quick_artifact, tmp_path):
        payload = quick_artifact.to_dict()
        payload["schema_version"] = MICRO_SCHEMA_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(BenchError, match="schema version"):
            MicroArtifact.load(path)

    def test_rejects_malformed_record(self, quick_artifact, tmp_path):
        payload = quick_artifact.to_dict()
        del payload["records"][0]["wall"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(BenchError, match="record 0"):
            MicroArtifact.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(BenchError, match="no such artifact"):
            MicroArtifact.load(tmp_path / "absent.json")


class TestCompareMicro:
    def test_self_compare_clean(self, quick_artifact):
        report = compare_micro_artifacts(
            quick_artifact, quick_artifact, wall_tolerance_pct=0.0
        )
        assert report.ok
        assert report.cells_compared == len(MICRO_KERNEL_NAMES)

    def test_checksum_drift_is_a_regression_in_either_direction(self, quick_artifact):
        import copy

        for delta in (+1.0, -1.0):
            drifted = copy.deepcopy(quick_artifact)
            drifted.records[0].sim["cycles"] += delta
            report = compare_micro_artifacts(
                quick_artifact, drifted, wall_tolerance_pct=0.0
            )
            assert not report.ok
            assert report.regressions[0].metric == "cycles"

    def test_missing_kernel_is_a_regression(self, quick_artifact):
        import copy

        shrunk = copy.deepcopy(quick_artifact)
        shrunk.records = shrunk.records[1:]
        report = compare_micro_artifacts(quick_artifact, shrunk)
        assert not report.ok
        assert report.regressions[0].verdict == "MISSING"

    def test_wall_slowdown_gates_only_beyond_tolerance(self, quick_artifact):
        import copy
        import dataclasses

        slower = copy.deepcopy(quick_artifact)
        slow_wall = dataclasses.replace(
            slower.records[0].wall, median_s=slower.records[0].wall.median_s * 10
        )
        slower.records[0] = dataclasses.replace(slower.records[0], wall=slow_wall)
        gated = compare_micro_artifacts(
            quick_artifact, slower, wall_tolerance_pct=50.0
        )
        assert not gated.ok
        ungated = compare_micro_artifacts(
            quick_artifact, slower, wall_tolerance_pct=0.0
        )
        assert ungated.ok


class TestCommittedBaseline:
    """The committed quick baseline is itself an acceptance artifact."""

    def test_baseline_loads_and_proves_dram_speedup(self):
        baseline = MicroArtifact.load("benchmarks/baseline_micro.json")
        assert baseline.quick is True
        record = baseline.record_map()[("dram.replay", DRAM_TRACE_LEN)]
        assert record.size == 100_000
        assert record.speedup is not None and record.speedup >= 3.0

    @pytest.mark.parametrize(
        "kernel", ["coalesce.warp.seq", "coalesce.stream.seq", "locality.profile.seq"]
    )
    def test_baseline_proves_sequential_fast_path_speedup(self, kernel):
        baseline = MicroArtifact.load("benchmarks/baseline_micro.json")
        record = baseline.record_map()[(kernel, 50_000)]
        assert record.speedup is not None and record.speedup >= 2.0

    def test_baseline_proves_walk_closed_form_speedup(self):
        baseline = MicroArtifact.load("benchmarks/baseline_micro.json")
        record = baseline.record_map()[("hierarchy.walk", 50_000)]
        assert record.speedup is not None and record.speedup >= 2.0

    def test_baseline_proves_gather_memo_speedup(self):
        baseline = MicroArtifact.load("benchmarks/baseline_micro.json")
        record = baseline.record_map()[("hierarchy.gather", 50_000)]
        assert record.speedup is not None and record.speedup >= 5.0

    def test_baseline_proves_unsorted_warp_pass_beats_reference(self):
        # random addresses: the one-pass unsorted path, not a fallback
        baseline = MicroArtifact.load("benchmarks/baseline_micro.json")
        record = baseline.record_map()[("coalesce.warp", 50_000)]
        assert record.speedup is not None and record.speedup >= 1.0

    def test_baseline_proves_launch_pricing_speedup(self):
        baseline = MicroArtifact.load("benchmarks/baseline_micro.json")
        record = baseline.record_map()[("hierarchy.launch", 1600)]
        # the stream log prices all 200 launches in one flush
        assert record.speedup is not None and record.speedup >= 5.0

    def test_current_checksums_match_baseline(self, quick_artifact):
        baseline = MicroArtifact.load("benchmarks/baseline_micro.json")
        report = compare_micro_artifacts(
            baseline, quick_artifact, wall_tolerance_pct=0.0
        )
        assert report.ok, [f"{f.cell}:{f.metric}" for f in report.regressions]


class TestCli:
    def test_micro_flag_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "micro.json"
        code = main(
            [
                "bench", "--micro", "--quick", "--reps", "1",
                "--tag", "clitest", "--out", str(out), "--no-progress",
            ]
        )
        assert code == 0
        artifact = MicroArtifact.load(out)
        assert artifact.tag == "clitest"
        assert "artifact written" in capsys.readouterr().out

    def test_micro_compare_regression_exits_2(self, tmp_path, capsys):
        baseline_path = tmp_path / "base.json"
        artifact = run_micro(quick=True, reps=1, tag="base")
        artifact.records[0].sim["cycles"] += 1  # poison one checksum
        artifact.save(baseline_path)
        code = main(
            [
                "bench", "--micro", "--quick", "--reps", "1",
                "--out", str(tmp_path / "cur.json"),
                "--compare", str(baseline_path),
                "--wall-tolerance", "0", "--no-progress",
            ]
        )
        assert code == EXIT_REGRESSION
        assert "REGRESSION" in capsys.readouterr().err
