"""Tests for manifests, lab reports and the EXPERIMENTS.md renderer."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.lab.executor import new_run_id, run_jobs
from repro.lab.jobs import build_registry, scenario_job
from repro.lab.manifest import (
    render_experiments_markdown,
    render_lab_report,
    status_payload,
    summarize_cached,
)
from repro.lab.store import ArtifactStore
from repro.scenarios import ScenarioSpec


def run_subset(store, job_ids, workers=1):
    registry = build_registry()
    return run_jobs(
        [registry[job_id] for job_id in job_ids], store=store, workers=workers
    )


class TestWriteRunArtifacts:
    def test_manifest_and_report_files(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        report = run_subset(store, ["E01", "S-t"])
        run_dir = store.runs_dir / report.run_id
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["run_id"] == report.run_id
        assert manifest["job_count"] == 2
        assert manifest["failures"] == []
        assert [job["job_id"] for job in manifest["jobs"]] == ["E01", "S-t"]
        for job in manifest["jobs"]:
            assert store.load(job["config_hash"]) is not None
            assert "artifact" not in job
        text = (run_dir / "report.md").read_text()
        assert f"run `{report.run_id}`" in text
        assert "## E01" in text
        assert "## S-t" in text

    def test_report_marks_cache_hits(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        run_subset(store, ["E01"])
        report = run_subset(store, ["E01", "S-t"])
        text = render_lab_report(report.outcomes, report.run_id)
        assert "| E01 | experiment | pass" in text
        assert "cache" in text and "executed" in text

    def test_failed_manifest_write_records_no_run(
        self, tmp_path, monkeypatch, capsys
    ):
        spec = ScenarioSpec.from_dict(
            {
                "name": "atomic-demo",
                "mapping": {"kind": "matched-xor", "params": {"t": 2, "s": 3}},
                "memory": {"t": 2},
                "workload": {
                    "kind": "strided",
                    "params": {"base": 0, "stride": 4, "length": 32},
                },
            }
        )
        root = tmp_path / "lab"
        with ArtifactStore(root) as store:
            kept = run_jobs([scenario_job(spec)], store=store, backend="serial")
        replace = os.replace

        def failing_replace(source, target):
            if os.path.basename(target) == "manifest.json":
                raise OSError("disk full")
            replace(source, target)

        monkeypatch.setattr(os, "replace", failing_replace)
        lost = new_run_id()
        with ArtifactStore(root) as store, pytest.raises(OSError, match="disk full"):
            run_jobs([scenario_job(spec)], store=store, backend="serial", run_id=lost)
        monkeypatch.undo()
        # The manifest is written last and atomically: no manifest, and
        # no temp file left behind.
        assert sorted(path.name for path in (root / "runs" / lost).iterdir()) == [
            "report.md"
        ]
        capsys.readouterr()
        assert main(["lab", "status", "--root", str(root), "--json"]) == 0
        runs = json.loads(capsys.readouterr().out)["runs"]
        assert [run["run_id"] for run in runs] == [kept.run_id]
        assert main(
            ["lab", "history", "--root", str(root), "--metric", "latency", "--json"]
        ) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        assert {point["run_id"] for point in points} == {kept.run_id}


class TestStatusPayload:
    def test_runs_come_from_the_manifests(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        for index in range(7):
            run_dir = store.runs_dir / f"r{index}"
            run_dir.mkdir(parents=True)
            (run_dir / "manifest.json").write_text(
                json.dumps(
                    {
                        "run_id": f"r{index}",
                        "created_at": f"2026-07-2{index}T00:00:00Z",
                        "package_version": "1.0.0",
                        "job_count": 3,
                        "cache_hits": 1,
                        "failures": ["E05"],
                        "elapsed_seconds": 1.5,
                        "jobs": [],
                    }
                )
            )
        (store.runs_dir / "junk").mkdir()
        (store.runs_dir / "junk" / "manifest.json").write_text("[]")
        runs = status_payload(store, {})["runs"]
        assert [run["run_id"] for run in runs] == ["r6", "r5", "r4", "r3", "r2"]
        assert runs[0] == {
            "run_id": "r6",
            "created_at": "2026-07-26T00:00:00Z",
            "package_version": "1.0.0",
            "job_count": 3,
            "cache_hits": 1,
            "failures": 1,
            "elapsed_seconds": 1.5,
        }


class TestExperimentsMarkdown:
    def test_cached_render_is_byte_identical(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        fresh = run_subset(store, ["E01", "E02"], workers=2)
        fresh_text = render_experiments_markdown(
            [outcome.record for outcome in fresh.outcomes]
        )
        cached = run_subset(store, ["E01", "E02"])
        assert cached.cache_hits == 2
        cached_text = render_experiments_markdown(
            [outcome.record for outcome in cached.outcomes]
        )
        assert fresh_text == cached_text
        assert "## E01 — Figure 3" in fresh_text
        assert "| check | paper / expected | measured | status |" in fresh_text
        assert "**FAIL**" not in fresh_text


class TestSummarizeCached:
    def test_empty_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        markdown, missing = summarize_cached(store, build_registry())
        assert markdown is None
        assert len(missing) == len(build_registry())

    def test_partial_summary(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        run_subset(store, ["E01", "S-t"])
        markdown, missing = summarize_cached(store, build_registry())
        assert markdown is not None
        assert "## E01" in markdown
        assert "## S-t" in markdown
        assert "E02" in missing
