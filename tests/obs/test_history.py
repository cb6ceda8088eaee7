"""Cross-run history: points read from real lab roots, trends, gating.

The integration half runs genuine lab batches (serial backend, tiny
scenarios) into a tmp root and checks that reading the root yields the
metric points the scenario actually produced.  The gating half files
fabricated manifests with known values so the direction-aware
tolerance arithmetic can be pinned exactly.
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import closing
from pathlib import Path

import pytest

from repro.lab import ArtifactStore, run_jobs, scenario_jobs
from repro.obs.history import (
    current_git_commit,
    ingest_bench,
    metric_direction,
    read_history,
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
    with ArtifactStore(root) as store:
        report = run_jobs(
            scenario_jobs([ScenarioSpec.from_dict(SPEC)]),
            store=store,
            backend="serial",
        )
    return report.run_id


def history_of(root):
    with ArtifactStore(root) as store:
        return read_history(store)


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


def file_manifest(root, manifest: dict) -> None:
    """Leave ``manifest`` under ``root`` as a finished run would."""
    path = Path(root) / "runs" / manifest["run_id"] / "manifest.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(manifest))


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

    @pytest.mark.parametrize(
        "metric", ["minimum_latency", "memory_ports", "register_length"]
    )
    def test_bounds_and_design_choices_have_no_direction(self, metric):
        # minimum_latency is the T+L+1 bound, not an outcome: its suffix
        # does not make it lower-is-better.
        assert metric_direction(metric) is None


class TestCurrentGitCommit:
    def test_env_sha_wins(self, monkeypatch):
        monkeypatch.setenv("GITHUB_SHA", "abc123")
        assert current_git_commit() == "abc123"

    def test_repo_commit_is_hex(self, monkeypatch):
        monkeypatch.delenv("GITHUB_SHA", raising=False)
        commit = current_git_commit()
        assert commit == "" or len(commit) == 40


class TestReadStore:
    def test_real_lab_run_round_trips(self, tmp_path):
        run_id = run_once(tmp_path / "lab")
        history = history_of(tmp_path / "lab")
        runs = history.runs()
        assert [entry["run_id"] for entry in runs] == [run_id]
        assert runs[0]["kind"] == "lab"
        assert runs[0]["job_count"] == 1
        names = dict(history.metric_names())
        assert "latency" in names
        assert "efficiency" in names
        assert "elapsed_seconds" in names
        # extra: prefixes from metric_rows() are stripped on the way in
        assert not any(name.startswith("extra:") for name in names)

    def test_trend_carries_run_identity_and_scenario(self, tmp_path):
        run_once(tmp_path / "lab")
        history = history_of(tmp_path / "lab")
        points = history.trend("latency")
        assert len(points) == 1
        point = points[0]
        assert point["scenario"] == "hist-demo"
        assert point["kind"] == "lab"
        assert point["value"] > 0
        # A run stamped with no commit (a tree outside git) is filed
        # under "unknown".
        assert point["git_commit"] == (current_git_commit() or "unknown")
        assert history.trend("latency", scenario="HIST-demo") == points
        assert history.trend("latency", scenario="no-such") == []

    def test_reading_changes_nothing(self, tmp_path):
        run_once(tmp_path / "lab")
        root = tmp_path / "lab"
        before = sorted(path.relative_to(root) for path in root.rglob("*"))
        first = history_of(root)
        second = history_of(root)
        assert first.runs() == second.runs()
        assert first.trend("latency") == second.trend("latency")
        assert len(second.trend("cache_hit_rate")) == 1
        assert sorted(path.relative_to(root) for path in root.rglob("*")) == before

    def test_two_runs_make_a_two_point_trend(self, tmp_path):
        run_once(tmp_path / "lab")
        run_once(tmp_path / "lab")  # cached second run, distinct run_id
        points = history_of(tmp_path / "lab").trend("latency")
        assert len(points) == 2
        assert len({point["run_id"] for point in points}) == 2
        assert history_of(tmp_path / "lab").trend("latency", limit=1) == points[-1:]

    def test_each_design_point_is_decoded_once_per_read(
        self, tmp_path, monkeypatch
    ):
        for _ in range(3):
            run_once(tmp_path / "lab")
        lookups = []
        load_many = ArtifactStore.load_many

        def counting_load_many(self, addresses):
            addresses = list(addresses)
            lookups.append(addresses)
            return load_many(self, addresses)

        monkeypatch.setattr(ArtifactStore, "load_many", counting_load_many)
        monkeypatch.delattr(ArtifactStore, "load")
        history = history_of(tmp_path / "lab")
        assert len(history.trend("latency")) == 3
        assert len(lookups) == 1
        assert len(set(lookups[0])) == 1


class TestCommitStamping:
    """Manifests from outside a git checkout must still be read.

    A tarball install (or a detached worker host) writes manifests
    whose ``git_commit`` is missing, empty, or JSON ``null``; their
    runs read as commit ``"unknown"``.
    """

    @pytest.mark.parametrize("commit", [None, "", 0], ids=["null", "empty", "nonstr"])
    def test_unstamped_manifest_ingests_as_unknown(self, tmp_path, commit):
        manifest = fake_manifest("r-unstamped", "2026-08-07T00:00:00Z", 1.5)
        manifest["git_commit"] = commit
        file_manifest(tmp_path, manifest)
        history = history_of(tmp_path)
        [run] = history.runs()
        assert run["run_id"] == "r-unstamped"
        assert run["git_commit"] == "unknown"
        [point] = history.trend("elapsed_seconds")
        assert point["value"] == 1.5

    def test_missing_key_also_ingests_as_unknown(self, tmp_path):
        manifest = fake_manifest("r-nokey", "2026-08-07T00:00:00Z", 2.0)
        assert "git_commit" not in manifest
        file_manifest(tmp_path, manifest)
        [run] = history_of(tmp_path).runs()
        assert run["git_commit"] == "unknown"

    def test_stamped_manifest_keeps_its_commit(self, tmp_path):
        manifest = fake_manifest("r-stamped", "2026-08-07T00:00:00Z", 1.0)
        manifest["git_commit"] = "feedc0ffee"
        file_manifest(tmp_path, manifest)
        [run] = history_of(tmp_path).runs()
        assert run["git_commit"] == "feedc0ffee"


class TestIngestBench:
    def test_bench_rows_and_meta_stamp(self, tmp_path):
        bench = tmp_path / "BENCH_demo.json"
        bench.write_text(
            json.dumps(bench_payload(mean=0.5, created="2026-01-01T00:00:00Z"))
        )
        store = ArtifactStore(tmp_path / "lab")
        assert ingest_bench(store, bench) == 3  # mean/min/max present
        # A verbatim copy, named after the run id.
        (copy,) = store.bench_dir.iterdir()
        assert copy.read_bytes() == bench.read_bytes()
        history = read_history(store)
        (run,) = history.runs()
        assert copy.name == f"{run['run_id']}.json"
        assert run["run_id"].startswith("bench-2026-01-01T00:00:00Z-")
        assert run["kind"] == "bench"
        assert run["git_commit"] == "feedc0ffee"
        assert run["package_version"] == "1.5.0"
        (point,) = history.trend("mean_seconds")
        assert point["value"] == 0.5
        assert point["job_id"] == "test_kernel_two_streams_one_bus"

    def test_reingest_same_file_is_idempotent(self, tmp_path):
        bench = tmp_path / "BENCH_demo.json"
        bench.write_text(
            json.dumps(bench_payload(mean=0.5, created="2026-01-01T00:00:00Z"))
        )
        store = ArtifactStore(tmp_path / "lab")
        ingest_bench(store, bench)
        ingest_bench(store, bench)
        assert len(list(store.bench_dir.iterdir())) == 1
        history = read_history(store)
        assert len(history.runs()) == 1
        assert len(history.trend("mean_seconds")) == 1


class TestFlagRegressions:
    def ingest_pair(self, tmp_path, first: float, second: float):
        for index, elapsed in enumerate([first, second]):
            file_manifest(
                tmp_path,
                fake_manifest(
                    f"r{index}", f"2026-01-0{index + 1}T00:00:00Z", elapsed
                ),
            )
        return history_of(tmp_path)

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
        file_manifest(
            tmp_path, fake_manifest("r0", "2026-01-01T00:00:00Z", 9.0)
        )
        assert history_of(tmp_path).flag_regressions() == []

    def test_directionless_metrics_are_skipped(self, tmp_path):
        # s (modules) shows up in scenario metric rows but has no
        # better/worse direction; gating must ignore it entirely.
        run_once(tmp_path / "lab")
        run_once(tmp_path / "lab")
        flagged = history_of(tmp_path / "lab").flag_regressions()
        for flag in flagged:
            assert metric_direction(flag["metric"]) is not None


class TestEmptyRoot:
    def test_queries_on_missing_root_create_nothing(self, tmp_path):
        history = history_of(tmp_path / "never-created")
        assert history.runs() == []
        assert history.metric_names() == []
        assert history.trend("latency") == []
        assert history.flag_regressions() == []
        assert not (tmp_path / "never-created").exists()


class TestRunLevelMetrics:
    """Run-level manifest metrics become ``__run__`` points.

    Manifests carry a run-level ``metrics`` block (cache-hit rate,
    queue latencies, backend worker counts), so ``lab history`` trends
    a run's backend sizing as well as its jobs' cycles.
    """

    def test_backend_worker_counts_become_trendable(self, tmp_path):
        from repro.lab.backends import ProcessPoolBackend

        with ArtifactStore(tmp_path / "lab") as store:
            run_jobs(
                scenario_jobs([ScenarioSpec.from_dict(SPEC)]),
                store=store,
                backend=ProcessPoolBackend(workers=2),
            )
            history = read_history(store)
        [point] = history.trend("pool_workers")
        assert point["job_id"] == "__run__"
        assert point["value"] == 2.0
        assert history.trend("cache_hit_rate")  # present, whatever the rate

    def test_non_numeric_run_metrics_are_skipped(self, tmp_path):
        manifest = fake_manifest("rm0", "2026-01-01T00:00:00Z", 1.0)
        manifest["metrics"] = {
            "backend": "serial",
            "cache_hit_rate": 0.5,
            "all_jobs_cached": True,
            "note": "free-text must not become a row",
        }
        file_manifest(tmp_path, manifest)
        history = history_of(tmp_path)
        run_rows = {
            point["metric"]: point["value"]
            for point in history.trend("cache_hit_rate")
        }
        assert run_rows == {"cache_hit_rate": 0.5}
        assert history.trend("all_jobs_cached")[0]["value"] == 1.0
        assert history.trend("backend") == []
        assert history.trend("note") == []


#: ``history.sqlite`` as ``lab history`` kept it before runs were read
#: from their manifests.
LEGACY_SCHEMA = """
CREATE TABLE runs (
    run_id TEXT PRIMARY KEY,
    created_at TEXT NOT NULL DEFAULT '',
    kind TEXT NOT NULL DEFAULT 'lab',
    git_commit TEXT NOT NULL DEFAULT '',
    package_version TEXT NOT NULL DEFAULT '',
    source_fingerprint TEXT NOT NULL DEFAULT '',
    backend TEXT NOT NULL DEFAULT '',
    job_count INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE metrics (
    run_id TEXT NOT NULL,
    job_id TEXT NOT NULL,
    metric TEXT NOT NULL,
    value REAL NOT NULL,
    scenario TEXT NOT NULL DEFAULT '',
    config_hash TEXT NOT NULL DEFAULT '',
    source_fingerprint TEXT NOT NULL DEFAULT '',
    created_at TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (run_id, job_id, metric)
);
CREATE INDEX idx_metrics_metric ON metrics (metric, created_at);
"""
BENCH_RUN = "bench-2026-01-01T00:00:00Z-0123456789"
STATS = {"mean": 0.5, "min": 0.45, "max": 0.6, "median": 0.52}


class TestOldHistoryDatabase:
    def legacy_root(self, tmp_path):
        """A root with one lab run and a history.sqlite in the old schema.

        The database holds the lab run (with a stale latency), a bench
        run, and a run ingested from another root's manifest.
        """
        root = tmp_path / "lab"
        run_id = run_once(root)
        created = "2026-01-01T00:00:00Z"
        with closing(sqlite3.connect(root / "history.sqlite")) as db, db:
            db.executescript(LEGACY_SCHEMA)
            db.executemany(
                "INSERT INTO runs VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    (run_id, created, "lab", "c0ffee", "1.0", "fp", "serial", 1),
                    (BENCH_RUN, created, "bench", "feedc0ffee", "1.5.0", "fp", "", 1),
                    ("r-other-root", created, "lab", "c0ffee", "1.0", "fp", "serial", 1),
                ],
            )
            db.executemany(
                "INSERT INTO metrics (run_id, job_id, metric, value, "
                "created_at) VALUES (?, ?, ?, ?, ?)",
                [
                    (run_id, "job", "latency", 999.0, created),
                    ("r-other-root", "job", "latency", 999.0, created),
                    *[
                        (BENCH_RUN, "test_kernel", f"{stat}_seconds", value, created)
                        for stat, value in STATS.items()
                    ],
                ],
            )
        return root, run_id

    def test_bench_runs_are_carried_over_once(self, tmp_path):
        root, run_id = self.legacy_root(tmp_path)
        history = history_of(root)
        assert {run["run_id"] for run in history.runs()} == {run_id, BENCH_RUN}
        assert history.trend("mean_seconds") == [
            {
                "run_id": BENCH_RUN,
                "job_id": "test_kernel",
                "metric": "mean_seconds",
                "value": 0.5,
                "scenario": "",
                "config_hash": "",
                "created_at": "2026-01-01T00:00:00Z",
                "git_commit": "feedc0ffee",
                "package_version": "1.5.0",
                "kind": "bench",
            }
        ]
        for stat, value in STATS.items():
            [point] = history.trend(f"{stat}_seconds")
            assert point["value"] == value
        # Lab runs come from their manifests, never from the database.
        [latency] = history.trend("latency")
        assert (latency["run_id"], latency["scenario"]) == (run_id, "hist-demo")
        assert latency["value"] != 999.0
        assert [path.name for path in (root / "bench").iterdir()] == [
            f"{BENCH_RUN}.json"
        ]
        assert (root / "history.sqlite").is_file()
        # Once: with bench/ in place the database is never read again.
        (root / "bench" / f"{BENCH_RUN}.json").unlink()
        assert history_of(root).trend("mean_seconds") == []

    def test_ingest_carries_the_old_bench_runs_over_first(self, tmp_path):
        root, _ = self.legacy_root(tmp_path)
        bench = tmp_path / "BENCH_new.json"
        bench.write_text(
            json.dumps(bench_payload(mean=0.4, created="2026-02-01T00:00:00Z"))
        )
        with ArtifactStore(root) as store:
            ingest_bench(store, bench)
            points = read_history(store).trend("mean_seconds")
        assert [point["value"] for point in points] == [0.5, 0.4]
        assert len(list((root / "bench").iterdir())) == 2
