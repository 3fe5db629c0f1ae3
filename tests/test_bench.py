"""Tests for repro.bench (snapshots, gates, CLI wiring)."""

import json
import os

import pytest

from repro.bench import (
    BenchSnapshot,
    GateReport,
    canonical_json,
    compare_snapshots,
    config_fingerprint,
    load_snapshot,
    run_benches,
    snapshot_filename,
    write_snapshot,
)
from repro.bench.suite import BENCHES
from repro.cli import build_parser, main


def make_snapshot(**metric_overrides):
    metrics = {"ips": 100.0, "p99_ms": 2.0, "task_count": 50.0}
    metrics.update(metric_overrides)
    return BenchSnapshot(
        name="demo",
        config={"batch_size": 512, "cluster": "eflops:2"},
        metrics=metrics,
        monitors={"pulse": {"healthy": True}},
        tolerances={"task_count": 0.0})


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        snapshot = make_snapshot()
        path = write_snapshot(snapshot, str(tmp_path))
        assert os.path.basename(path) == snapshot_filename("demo")
        loaded = load_snapshot(path)
        assert loaded == snapshot

    def test_byte_determinism(self, tmp_path):
        snapshot = make_snapshot()
        first = write_snapshot(snapshot, str(tmp_path / "a"))
        second = write_snapshot(snapshot, str(tmp_path / "b"))
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()

    def test_canonical_json_is_stable(self):
        a = canonical_json({"b": 1, "a": {"z": 2, "y": 3}})
        b = canonical_json({"a": {"y": 3, "z": 2}, "b": 1})
        assert a == b
        assert a.endswith("\n")

    def test_fingerprint_tracks_config(self):
        base = {"batch_size": 512}
        assert config_fingerprint(base) == config_fingerprint(
            {"batch_size": 512})
        assert config_fingerprint(base) != config_fingerprint(
            {"batch_size": 1024})
        assert len(config_fingerprint(base)) == 16

    def test_schema_version_checked(self, tmp_path):
        snapshot = make_snapshot()
        payload = snapshot.as_dict()
        payload["schema_version"] = 999
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema"):
            load_snapshot(str(path))

    def test_tolerance_lookup(self):
        snapshot = make_snapshot()
        assert snapshot.tolerance_for("task_count") == 0.0
        assert snapshot.tolerance_for("ips") > 0.0


class TestCompare:
    def test_identical_passes(self):
        report = compare_snapshots(make_snapshot(), make_snapshot())
        assert isinstance(report, GateReport)
        assert report.passed
        assert report.fingerprint_match
        assert all(gate.status == "ok" for gate in report.gates)

    def test_within_tolerance_passes(self):
        report = compare_snapshots(make_snapshot(),
                                   make_snapshot(ips=103.0))
        assert report.passed

    def test_regression_fails_with_readable_report(self):
        report = compare_snapshots(make_snapshot(),
                                   make_snapshot(p99_ms=3.0))
        assert not report.passed
        failed = {gate.metric for gate in report.failures}
        assert failed == {"p99_ms"}
        text = report.format()
        assert "p99_ms" in text
        assert "fail" in text
        assert "+50.00%" in text

    def test_zero_tolerance_metric(self):
        report = compare_snapshots(make_snapshot(),
                                   make_snapshot(task_count=51.0))
        assert not report.passed

    def test_new_metric_does_not_fail(self):
        candidate = make_snapshot(extra=1.0)
        report = compare_snapshots(make_snapshot(), candidate)
        statuses = {gate.metric: gate.status for gate in report.gates}
        assert statuses["extra"] == "new"
        assert report.passed

    def test_missing_metric_fails(self):
        baseline = make_snapshot(extra=1.0)
        report = compare_snapshots(baseline, make_snapshot())
        statuses = {gate.metric: gate.status for gate in report.gates}
        assert statuses["extra"] == "missing"
        assert not report.passed

    def test_fingerprint_mismatch_fails(self):
        candidate = BenchSnapshot(
            name="demo", config={"batch_size": 99},
            metrics=make_snapshot().metrics)
        report = compare_snapshots(make_snapshot(), candidate)
        assert not report.fingerprint_match
        assert not report.passed
        assert "fingerprint" in report.format()


class TestSuite:
    def test_registry_names(self):
        assert set(BENCHES) == {"training", "interleaving", "serving",
                                "cache", "faults", "shards", "online",
                                "replay", "prefetch"}

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown bench"):
            run_benches(["nope"])

    def test_cache_bench_runs(self):
        snapshots = run_benches(["cache"])
        assert len(snapshots) == 1
        snap = snapshots[0]
        assert snap.name == "cache"
        assert snap.metrics["hit_ratio"] > 0.0
        assert snap.fingerprint == config_fingerprint(snap.config)


class TestCli:
    def test_parser_wiring(self):
        parser = build_parser()
        run_args = parser.parse_args(
            ["bench", "run", "--only", "cache", "--out", "x"])
        assert run_args.only == "cache"
        assert run_args.out == "x"
        compare_args = parser.parse_args(["bench", "compare"])
        assert compare_args.baseline == "benchmarks/baselines"

    def test_run_then_compare_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["bench", "run", "--only", "cache",
                     "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "BENCH_cache.json"))
        assert main(["bench", "compare", "--only", "cache",
                     "--baseline", out, "--candidate", out]) == 0
        assert "all bench gates passed" in capsys.readouterr().out

    def test_compare_fails_on_perturbed_metric(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        main(["bench", "run", "--only", "cache", "--out", out])
        path = os.path.join(out, "BENCH_cache.json")
        with open(path) as handle:
            payload = json.load(handle)
        payload["metrics"]["hit_ratio"] *= 1.5
        with open(path, "w") as handle:
            json.dump(payload, handle)
        baseline = "benchmarks/baselines"
        code = main(["bench", "compare", "--only", "cache",
                     "--baseline", baseline, "--candidate", out])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_compare_missing_candidate_fails(self, tmp_path, capsys):
        code = main(["bench", "compare", "--only", "cache",
                     "--baseline", "benchmarks/baselines",
                     "--candidate", str(tmp_path / "empty")])
        assert code == 1
        assert "candidate snapshot missing" in capsys.readouterr().out
