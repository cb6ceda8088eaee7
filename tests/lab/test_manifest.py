"""Tests for manifests, lab reports and the EXPERIMENTS.md renderer."""

from __future__ import annotations

import json

from repro.lab.executor import run_jobs
from repro.lab.jobs import build_registry
from repro.lab.manifest import (
    render_experiments_markdown,
    render_lab_report,
    summarize_cached,
    write_run_artifacts,
)
from repro.lab.store import ArtifactStore


def run_subset(store, job_ids, workers=1):
    registry = build_registry()
    return run_jobs(
        [registry[job_id] for job_id in job_ids], store=store, workers=workers
    )


class TestWriteRunArtifacts:
    def test_manifest_and_report_files(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        report = run_subset(store, ["E01", "S-t"])
        run_dir = write_run_artifacts(store, report)
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
