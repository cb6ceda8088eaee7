"""HistoryDB: ingestion from real lab runs, trends, regression gating.

The integration half runs genuine lab batches (serial backend, tiny
scenarios) into a tmp root and checks that ingesting the store yields
the metric rows the scenario actually produced.  The gating half
fabricates manifests with known values so the direction-aware
tolerance arithmetic can be pinned exactly.
"""

from __future__ import annotations

import json

import pytest

from repro.lab import ArtifactStore, run_jobs, scenario_job, write_run_artifacts
from repro.obs.history import (
    HISTORY_FILENAME,
    HistoryDB,
    current_git_commit,
    metric_direction,
)
from repro.scenarios import ScenarioSpec

SPEC = {
    "name": "hist-demo",
    "mapping": {"kind": "matched-xor", "params": {"t": 2, "s": 3}},
    "memory": {"t": 2},
    "workload": {
        "kind": "strided",
        "params": {"base": 0, "stride": 4, "length": 32},
    },
}


def run_once(root) -> str:
    store = ArtifactStore(root)
    report = run_jobs(
        [scenario_job(ScenarioSpec.from_dict(SPEC))],
        store=store,
        backend="serial",
    )
    write_run_artifacts(store, report)
    return report.run_id


def bench_payload(*, mean: float, created: str) -> dict:
    return {
        "benchmarks": [
            {
                "name": "test_kernel_two_streams_one_bus",
                "stats": {"mean": mean, "min": mean * 0.9, "max": mean * 1.2},
            }
        ],
        "repro_meta": {
            "git_commit": "feedc0ffee",
            "package_version": "1.5.0",
            "created_at": created,
        },
    }


def fake_manifest(run_id: str, created: str, elapsed: float) -> dict:
    return {
        "run_id": run_id,
        "created_at": created,
        "jobs": [
            {
                "job_id": "demo-job",
                "config_hash": "0" * 16,
                "elapsed_seconds": elapsed,
            }
        ],
    }


class TestMetricDirection:
    @pytest.mark.parametrize(
        "metric",
        ["latency", "total_cycles", "issue_stalls", "mean_seconds",
         "elapsed_seconds", "made_up_cycles", "queue_latency"],
    )
    def test_lower_is_better(self, metric):
        assert metric_direction(metric) == "lower"

    @pytest.mark.parametrize(
        "metric",
        ["efficiency", "conflict_free", "cache_hit_rate", "all_passed"],
    )
    def test_higher_is_better(self, metric):
        assert metric_direction(metric) == "higher"

    def test_unknown_metric_has_no_direction(self):
        assert metric_direction("made_up_thing") is None


class TestCurrentGitCommit:
    def test_env_sha_wins(self, monkeypatch):
        monkeypatch.setenv("GITHUB_SHA", "abc123")
        assert current_git_commit() == "abc123"

    def test_repo_commit_is_hex(self, monkeypatch):
        monkeypatch.delenv("GITHUB_SHA", raising=False)
        commit = current_git_commit()
        assert commit == "" or len(commit) == 40


class TestIngestStore:
    def test_real_lab_run_round_trips(self, tmp_path):
        run_id = run_once(tmp_path / "lab")
        store = ArtifactStore(tmp_path / "lab")
        db = HistoryDB(tmp_path / "lab" / HISTORY_FILENAME)
        counts = db.ingest_store(store)
        assert counts["manifests"] == 1
        assert counts["metrics"] > 0
        runs = db.runs()
        assert [entry["run_id"] for entry in runs] == [run_id]
        assert runs[0]["kind"] == "lab"
        assert runs[0]["job_count"] == 1
        names = dict(db.metric_names())
        assert "latency" in names
        assert "efficiency" in names
        assert "elapsed_seconds" in names
        # extra: prefixes from metric_rows() are stripped on the way in
        assert not any(name.startswith("extra:") for name in names)

    def test_trend_carries_run_identity_and_scenario(self, tmp_path):
        run_once(tmp_path / "lab")
        store = ArtifactStore(tmp_path / "lab")
        db = HistoryDB(tmp_path / "lab" / HISTORY_FILENAME)
        db.ingest_store(store)
        points = db.trend("latency")
        assert len(points) == 1
        point = points[0]
        assert point["scenario"] == "hist-demo"
        assert point["kind"] == "lab"
        assert point["value"] > 0
        assert point["git_commit"] == current_git_commit()
        assert db.trend("latency", scenario="hist-demo") == points
        assert db.trend("latency", scenario="no-such") == []

    def test_reingest_is_idempotent(self, tmp_path):
        run_once(tmp_path / "lab")
        store = ArtifactStore(tmp_path / "lab")
        db = HistoryDB(tmp_path / "lab" / HISTORY_FILENAME)
        first = db.ingest_store(store)
        second = db.ingest_store(store)
        assert first == second
        assert len(db.trend("latency")) == 1
        assert len(db.runs()) == 1

    def test_two_runs_make_a_two_point_trend(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        run_once(tmp_path / "lab")
        run_once(tmp_path / "lab")  # cached second run, distinct run_id
        db = HistoryDB(tmp_path / "lab" / HISTORY_FILENAME)
        db.ingest_store(store)
        points = db.trend("latency")
        assert len(points) == 2
        assert len({point["run_id"] for point in points}) == 2
        assert db.trend("latency", limit=1) == points[-1:]


class TestCommitStamping:
    """Manifests from outside a git checkout must still ingest.

    A tarball install (or a detached worker host) writes manifests
    whose ``git_commit`` is missing, empty, or JSON ``null``; the runs
    table column is NOT NULL, so ingest stamps ``"unknown"`` and keeps
    the row instead of crashing.
    """

    @pytest.mark.parametrize("commit", [None, "", 0], ids=["null", "empty", "nonstr"])
    def test_unstamped_manifest_ingests_as_unknown(self, tmp_path, commit):
        manifest = fake_manifest("r-unstamped", "2026-08-07T00:00:00Z", 1.5)
        manifest["git_commit"] = commit
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        db = HistoryDB(tmp_path / HISTORY_FILENAME)
        assert db.ingest_manifest(path) > 0
        [run] = db.runs()
        assert run["run_id"] == "r-unstamped"
        assert run["git_commit"] == "unknown"
        [point] = db.trend("elapsed_seconds")
        assert point["value"] == 1.5

    def test_missing_key_also_ingests_as_unknown(self, tmp_path):
        manifest = fake_manifest("r-nokey", "2026-08-07T00:00:00Z", 2.0)
        assert "git_commit" not in manifest
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        db = HistoryDB(tmp_path / HISTORY_FILENAME)
        db.ingest_manifest(path)
        [run] = db.runs()
        assert run["git_commit"] == "unknown"

    def test_stamped_manifest_keeps_its_commit(self, tmp_path):
        manifest = fake_manifest("r-stamped", "2026-08-07T00:00:00Z", 1.0)
        manifest["git_commit"] = "feedc0ffee"
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        db = HistoryDB(tmp_path / HISTORY_FILENAME)
        db.ingest_manifest(path)
        [run] = db.runs()
        assert run["git_commit"] == "feedc0ffee"


class TestIngestBench:
    def test_bench_rows_and_meta_stamp(self, tmp_path):
        bench = tmp_path / "BENCH_demo.json"
        bench.write_text(
            json.dumps(bench_payload(mean=0.5, created="2026-01-01T00:00:00Z"))
        )
        db = HistoryDB(tmp_path / HISTORY_FILENAME)
        assert db.ingest_bench(bench) == 3  # mean/min/max present
        (run,) = db.runs()
        assert run["kind"] == "bench"
        assert run["git_commit"] == "feedc0ffee"
        assert run["package_version"] == "1.5.0"
        (point,) = db.trend("mean_seconds")
        assert point["value"] == 0.5
        assert point["job_id"] == "test_kernel_two_streams_one_bus"

    def test_reingest_same_file_is_idempotent(self, tmp_path):
        bench = tmp_path / "BENCH_demo.json"
        bench.write_text(
            json.dumps(bench_payload(mean=0.5, created="2026-01-01T00:00:00Z"))
        )
        db = HistoryDB(tmp_path / HISTORY_FILENAME)
        db.ingest_bench(bench)
        db.ingest_bench(bench)
        assert len(db.runs()) == 1
        assert len(db.trend("mean_seconds")) == 1


class TestIngestPath:
    def test_dispatch_by_shape(self, tmp_path):
        run_once(tmp_path / "lab")
        bench = tmp_path / "BENCH_demo.json"
        bench.write_text(
            json.dumps(bench_payload(mean=0.2, created="2026-01-02T00:00:00Z"))
        )
        db = HistoryDB(tmp_path / HISTORY_FILENAME)
        assert db.ingest_path(tmp_path / "lab") > 0  # lab root dir
        assert db.ingest_path(bench) == 3  # bench JSON file
        assert db.ingest_path(tmp_path / "nope") == 0  # missing path
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json")
        assert db.ingest_path(garbage) == 0
        kinds = {run["kind"] for run in db.runs()}
        assert kinds == {"lab", "bench"}


class TestFlagRegressions:
    def ingest_pair(self, tmp_path, first: float, second: float) -> HistoryDB:
        db = HistoryDB(tmp_path / HISTORY_FILENAME)
        for index, elapsed in enumerate([first, second]):
            path = tmp_path / f"manifest_{index}.json"
            path.write_text(
                json.dumps(
                    fake_manifest(
                        f"r{index}", f"2026-01-0{index + 1}T00:00:00Z", elapsed
                    )
                )
            )
            db.ingest_manifest(path)
        return db

    def test_lower_is_better_regression_is_flagged(self, tmp_path):
        db = self.ingest_pair(tmp_path, 1.0, 1.5)
        (flag,) = db.flag_regressions(metric="elapsed_seconds")
        assert flag["job_id"] == "demo-job"
        assert flag["direction"] == "lower"
        assert flag["best"] == 1.0
        assert flag["latest"] == 1.5
        assert flag["run_id"] == "r1"
        assert flag["points"] == 2

    def test_within_tolerance_is_not_flagged(self, tmp_path):
        db = self.ingest_pair(tmp_path, 1.0, 1.04)
        assert db.flag_regressions(metric="elapsed_seconds") == []

    def test_tolerance_is_relative_to_best(self, tmp_path):
        # 2.0 -> 2.08 is a 4% slip: inside the default 5% band, outside
        # a 1% band.
        db = self.ingest_pair(tmp_path, 2.0, 2.08)
        assert db.flag_regressions(metric="elapsed_seconds") == []
        flagged = db.flag_regressions(metric="elapsed_seconds", tolerance=0.01)
        assert len(flagged) == 1

    def test_improvement_is_never_flagged(self, tmp_path):
        db = self.ingest_pair(tmp_path, 1.5, 1.0)
        assert db.flag_regressions(metric="elapsed_seconds") == []

    def test_zero_best_flags_any_strictly_worse_move(self, tmp_path):
        # Regression: a zero best has no scale for a relative band, so
        # earlier versions silently reused `tolerance` as an absolute
        # band — a value creeping from 0 to 0.04 passed the gate.
        db = self.ingest_pair(tmp_path, 0.0, 0.04)
        (flag,) = db.flag_regressions(metric="elapsed_seconds")
        assert flag["best"] == 0.0
        assert flag["latest"] == 0.04

    def test_zero_best_absolute_floor_gives_explicit_slack(self, tmp_path):
        db = self.ingest_pair(tmp_path, 0.0, 0.04)
        assert (
            db.flag_regressions(
                metric="elapsed_seconds", absolute_floor=0.1
            )
            == []
        )
        flagged = db.flag_regressions(
            metric="elapsed_seconds", absolute_floor=0.01
        )
        assert len(flagged) == 1

    def test_absolute_floor_is_ignored_for_nonzero_best(self, tmp_path):
        # The floor only substitutes when the relative band collapses;
        # a nonzero best keeps the relative tolerance untouched.
        db = self.ingest_pair(tmp_path, 1.0, 1.04)
        assert (
            db.flag_regressions(
                metric="elapsed_seconds", absolute_floor=0.001
            )
            == []
        )

    def test_single_point_series_cannot_regress(self, tmp_path):
        db = HistoryDB(tmp_path / HISTORY_FILENAME)
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps(fake_manifest("r0", "2026-01-01T00:00:00Z", 9.0))
        )
        db.ingest_manifest(path)
        assert db.flag_regressions() == []

    def test_directionless_metrics_are_skipped(self, tmp_path):
        # s (modules) shows up in scenario metric rows but has no
        # better/worse direction; gating must ignore it entirely.
        store = ArtifactStore(tmp_path / "lab")
        run_once(tmp_path / "lab")
        run_once(tmp_path / "lab")
        db = HistoryDB(tmp_path / "lab" / HISTORY_FILENAME)
        db.ingest_store(store)
        flagged = db.flag_regressions()
        for flag in flagged:
            assert metric_direction(flag["metric"]) is not None


class TestEmptyDb:
    def test_queries_on_missing_file_are_empty(self, tmp_path):
        db = HistoryDB(tmp_path / "never-created.sqlite")
        assert db.runs() == []
        assert db.metric_names() == []
        assert db.trend("latency") == []
        assert db.flag_regressions() == []
        assert not db.path.exists()


class TestRunLevelMetrics:
    """Run-level manifest metrics land as ``__run__`` rows.

    Manifests have always carried a run-level ``metrics`` block
    (cache-hit rate, queue latencies, backend worker counts), but
    ingestion used to drop it on the floor — ``lab history`` could trend
    a job's cycles yet never a run's backend sizing.
    """

    def test_backend_worker_counts_become_trendable(self, tmp_path):
        from repro.lab.backends import ProcessPoolBackend

        store = ArtifactStore(tmp_path / "lab")
        report = run_jobs(
            [scenario_job(ScenarioSpec.from_dict(SPEC))],
            store=store,
            backend=ProcessPoolBackend(workers=2),
        )
        run_dir = write_run_artifacts(store, report)
        db = HistoryDB(tmp_path / "lab" / HISTORY_FILENAME)
        db.ingest_manifest(run_dir / "manifest.json", store=store)
        [point] = db.trend("pool_workers")
        assert point["job_id"] == "__run__"
        assert point["value"] == 2.0
        assert db.trend("cache_hit_rate")  # present, whatever the rate

    def test_non_numeric_run_metrics_are_skipped(self, tmp_path):
        manifest = fake_manifest("rm0", "2026-01-01T00:00:00Z", 1.0)
        manifest["metrics"] = {
            "backend": "serial",
            "cache_hit_rate": 0.5,
            "all_jobs_cached": True,
            "note": "free-text must not become a row",
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        db = HistoryDB(tmp_path / HISTORY_FILENAME)
        db.ingest_manifest(path)
        run_rows = {
            point["metric"]: point["value"]
            for point in db.trend("cache_hit_rate")
        }
        assert run_rows == {"cache_hit_rate": 0.5}
        assert db.trend("all_jobs_cached")[0]["value"] == 1.0
        assert db.trend("backend") == []
        assert db.trend("note") == []

    def test_run_rows_are_idempotent_across_reingest(self, tmp_path):
        manifest = fake_manifest("rm1", "2026-01-02T00:00:00Z", 1.0)
        manifest["metrics"] = {"pool_workers": 3}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        db = HistoryDB(tmp_path / HISTORY_FILENAME)
        first = db.ingest_manifest(path)
        second = db.ingest_manifest(path)
        assert first == second > 0
        assert len(db.trend("pool_workers")) == 1
