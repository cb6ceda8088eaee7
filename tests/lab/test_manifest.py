"""Tests for manifests, lab reports and the EXPERIMENTS.md renderer."""

from __future__ import annotations

import importlib.util
import json
import os
import re
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro.cli import main
from repro.lab.executor import new_run_id, run_jobs
from repro.lab.jobs import build_registry, scenario_jobs
from repro.lab.manifest import (
    read_manifests,
    render_experiments_markdown,
    render_lab_report,
    status_payload,
    summarize_cached,
)
from repro.lab.store import ArtifactStore, utc_now
from repro.obs.history import read_history
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
        # One table row per job, and no copy of a result: those live in
        # index.sqlite alone.
        text = (run_dir / "report.md").read_text()
        assert text == (
            f"# repro lab report — run `{report.run_id}`\n\n"
            "| job | kind | status | source |\n"
            "|---|---|---|---|\n"
            "| E01 | experiment | pass | executed |\n"
            "| S-t | sweep | pass | executed |\n"
        )

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
            kept = run_jobs(scenario_jobs([spec]), store=store, backend="serial")
        replace = os.replace

        def failing_replace(source, target):
            if os.path.basename(target) == "manifest.json":
                raise OSError("disk full")
            replace(source, target)

        monkeypatch.setattr(os, "replace", failing_replace)
        lost = new_run_id()
        with ArtifactStore(root) as store, pytest.raises(OSError, match="disk full"):
            run_jobs(scenario_jobs([spec]), store=store, backend="serial", run_id=lost)
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


class TestRunOrder:
    STAMP = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{6}Z")

    def test_stamps_carry_fixed_width_microseconds(self, tmp_path):
        spec = ScenarioSpec.from_dict(
            {
                "name": "stamp-demo",
                "mapping": {"kind": "matched-xor", "params": {"t": 2, "s": 3}},
                "memory": {"t": 2},
                "workload": {
                    "kind": "strided",
                    "params": {"base": 0, "stride": 4, "length": 32},
                },
            }
        )
        assert self.STAMP.fullmatch(utc_now())
        with ArtifactStore(tmp_path / "lab") as store:
            run_jobs(scenario_jobs([spec]), store=store, backend="serial")
            (manifest,) = read_manifests(store)
            (result,) = store.results()
        assert self.STAMP.fullmatch(manifest["created_at"])
        assert self.STAMP.fullmatch(result["created_at"])

    @pytest.mark.parametrize("microsecond", [0, 1, 999999])
    def test_stamp_spells_the_instant(self, monkeypatch, microsecond):
        instant = datetime(2024, 2, 29, 23, 59, 59, microsecond, timezone.utc)

        class FixedClock(datetime):
            @classmethod
            def now(cls, tz=None):
                return instant.astimezone(tz)

        monkeypatch.setattr("repro.lab.store.datetime", FixedClock)
        assert utc_now() == instant.strftime("%Y-%m-%dT%H:%M:%S.%fZ")
        assert self.STAMP.fullmatch(utc_now())

    def test_bench_files_carry_the_lab_stamp(self):
        """A bench run and a lab run of the same second sort in the
        order they were written."""
        conftest = Path(__file__).resolve().parents[2] / "benchmarks" / "conftest.py"
        found = importlib.util.spec_from_file_location("bench_conftest", conftest)
        module = importlib.util.module_from_spec(found)
        found.loader.exec_module(module)
        output_json: dict = {}
        module.pytest_benchmark_update_json(None, [], output_json)
        assert self.STAMP.fullmatch(output_json["repro_meta"]["created_at"])

    def test_runs_within_one_second_keep_their_order(self, tmp_path):
        """Run ids end in random hex, so two runs written within one
        second can sort backwards by id; their stamps' microseconds keep
        them in the order they were written, and the cached rerun is the
        latest point of every series."""
        run_ids = ["20260701T120000Z-p1-ffffffff", "20260701T120000Z-p1-00000000"]
        store = ArtifactStore(tmp_path / "lab")
        runs = zip(
            run_ids,
            ("2026-07-01T12:00:00.250000Z", "2026-07-01T12:00:00.750000Z"),
            ({"cache_hit_rate": 0.0, "wall_seconds": 2.0},
             {"cache_hit_rate": 1.0, "wall_seconds": 0.5}),
        )
        for run_id, created, metrics in runs:
            run_dir = store.runs_dir / run_id
            run_dir.mkdir(parents=True)
            (run_dir / "manifest.json").write_text(
                json.dumps(
                    {
                        "run_id": run_id,
                        "created_at": created,
                        "jobs": [{"job_id": "J", "config_hash": "0" * 16}],
                        "metrics": metrics,
                    }
                )
            )
        manifests = read_manifests(store)
        history = read_history(store)
        assert [manifest["run_id"] for manifest in manifests] == run_ids
        assert [run["run_id"] for run in history.runs()] == run_ids
        assert history.flag_regressions() == []


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
