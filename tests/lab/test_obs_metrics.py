"""Lab observability: batch metrics and manifest stamps.

``run_jobs`` summarises each batch (cache-hit rate, queue latency,
backend detail) on the report and writes that summary plus the git
commit into ``manifest.json``; ``recent_run_metrics`` reads them back.
"""

from __future__ import annotations

import json

from repro.lab import (
    ArtifactStore,
    recent_run_metrics,
    run_jobs,
    scenario_jobs,
)
from repro.obs.history import current_git_commit
from repro.scenarios import ScenarioSpec


def spec(name: str = "metrics-demo", stride: int = 4) -> ScenarioSpec:
    return ScenarioSpec.from_dict(
        {
            "name": name,
            "mapping": {"kind": "matched-xor", "params": {"t": 2, "s": 3}},
            "memory": {"t": 2},
            "workload": {
                "kind": "strided",
                "params": {"base": 0, "stride": stride, "length": 32},
            },
        }
    )


class TestBatchMetrics:
    def test_cold_batch_reports_executed_jobs(self, tmp_path):
        store = ArtifactStore(tmp_path)
        report = run_jobs(
            scenario_jobs([spec(), spec(stride=8)]),
            store=store,
            backend="serial",
        )
        metrics = report.metrics
        assert metrics["backend"] == "serial"
        assert metrics["jobs"] == 2
        assert metrics["cache_hits"] == 0
        assert metrics["executed"] == 2
        assert metrics["cache_hit_rate"] == 0.0
        assert metrics["wall_seconds"] >= 0.0
        assert metrics["queue_latency_mean_seconds"] >= 0.0
        assert (
            metrics["queue_latency_max_seconds"]
            >= metrics["queue_latency_mean_seconds"]
        )

    def test_warm_batch_is_all_cache_hits(self, tmp_path):
        store = ArtifactStore(tmp_path)
        jobs = scenario_jobs([spec()])
        run_jobs(jobs, store=store, backend="serial")
        report = run_jobs(jobs, store=store, backend="serial")
        metrics = report.metrics
        assert metrics["cache_hits"] == 1
        assert metrics["executed"] == 0
        assert metrics["cache_hit_rate"] == 1.0
        # Cached jobs never queue, so the latency stats stay zero.
        assert metrics["queue_latency_mean_seconds"] == 0.0

    def test_pool_backend_reports_worker_count(self, tmp_path):
        store = ArtifactStore(tmp_path)
        report = run_jobs(
            scenario_jobs([spec()]),
            store=store,
            backend="pool",
            workers=2,
        )
        # A one-job batch short-circuits to inline execution but the
        # backend identity and its worker detail still surface.
        assert report.metrics["jobs"] == 1
        assert "pool_workers" in report.metrics


class TestManifestStamp:
    def test_manifest_carries_metrics_commit_and_backend(self, tmp_path):
        store = ArtifactStore(tmp_path)
        report = run_jobs(
            scenario_jobs([spec()]), store=store, backend="serial"
        )
        run_dir = store.runs_dir / report.run_id
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["git_commit"] == current_git_commit()
        assert manifest["backend"] == "serial"
        assert manifest["metrics"] == report.metrics

    def test_recent_run_metrics_reads_back_newest_first(self, tmp_path):
        store = ArtifactStore(tmp_path)
        ids = []
        for _ in range(2):
            report = run_jobs(
                scenario_jobs([spec()]), store=store, backend="serial"
            )
            ids.append(report.run_id)
        # Back-date the first run so the newest-first sort is decided by
        # created_at, not by the same-second run-id tie-break.
        first_manifest = store.runs_dir / ids[0] / "manifest.json"
        manifest = json.loads(first_manifest.read_text())
        manifest["created_at"] = "2020-01-01T00:00:00Z"
        first_manifest.write_text(json.dumps(manifest))
        entries = recent_run_metrics(store)
        assert [entry["run_id"] for entry in entries] == ids[::-1]
        newest = entries[0]
        assert newest["backend"] == "serial"
        assert newest["job_count"] == 1
        assert newest["failures"] == 0
        assert newest["metrics"]["cache_hit_rate"] == 1.0

    def test_pre_metrics_manifests_still_listed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        report = run_jobs(
            scenario_jobs([spec()]), store=store, backend="serial"
        )
        run_dir = store.runs_dir / report.run_id
        manifest = json.loads((run_dir / "manifest.json").read_text())
        for key in ("metrics", "git_commit", "backend"):
            manifest.pop(key, None)
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        (entry,) = recent_run_metrics(store)
        assert entry["run_id"] == report.run_id
        assert entry["metrics"] == {}
        assert entry["backend"] == ""

    def test_limit_caps_the_listing(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for _ in range(3):
            run_jobs(scenario_jobs([spec()]), store=store, backend="serial")
        assert len(recent_run_metrics(store, limit=2)) == 2
