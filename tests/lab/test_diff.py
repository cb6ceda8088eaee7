"""Cross-run diffing: regressions, benign changes, run-set drift.

Artifacts are content-addressed over params + package version + source
fingerprint, so two runs of identical code share artifacts and can
never diverge; the diff becomes interesting across *versions*.  The
tests simulate that by recording run B under a bumped package version
(distinct artifacts) and surgically rewriting its records — a flipped
check, a moved cycle count — then assert the diff classifies each case
(and that the CLI exits non-zero exactly on regressions).
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.cli import main
from repro.lab import (
    UnknownRunError,
    diff_runs,
    render_diff,
    run_jobs,
    scenario_jobs,
)
from repro.lab.store import ArtifactStore
from repro.scenarios import ComponentSpec, MemorySpec, ScenarioSpec


def demo_spec(q: int = 1) -> ScenarioSpec:
    return ScenarioSpec(
        mapping=ComponentSpec.of("matched-xor", t=3, s=4),
        memory=MemorySpec(t=3, q=q),
        workload=ComponentSpec.of("strided", base=16, stride=12, length=128),
        name="diff-demo",
    )


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "lab")


def record_run(store, jobs, monkeypatch=None, version=None) -> str:
    """Execute ``jobs`` as one recorded run, optionally under another
    package version (which gives the run its own records)."""
    if version is not None:
        monkeypatch.setattr(repro, "__version__", version)
    try:
        report = run_jobs(jobs, store=store, workers=1, force=True)
    finally:
        if version is not None:
            monkeypatch.undo()
    return report.run_id


@pytest.fixture
def rewrite_artifacts(tamper):
    """``rewrite_artifacts(store, run_id, mutate)``: apply ``mutate(record)``
    to every stored record of one run."""

    def rewrite(store: ArtifactStore, run_id: str, mutate) -> None:
        manifest = json.loads(
            (store.runs_dir / run_id / "manifest.json").read_text()
        )
        for job in manifest["jobs"]:
            record = store.load(job["config_hash"])
            mutate(record)
            tamper(store, job["config_hash"], json.dumps(record))

    return rewrite


def with_check(record, *, passed: bool, measured: str) -> None:
    record["checks"] = [
        {
            "claim": "latency reaches the minimum",
            "expected": "137",
            "measured": measured,
            "passed": passed,
        }
    ]
    record["all_passed"] = passed


class TestDiffRuns:
    def test_identical_runs_have_no_findings(self, store):
        [job] = scenario_jobs([demo_spec()])
        run_a = record_run(store, [job])
        run_b = record_run(store, [job])
        diff = diff_runs(store, run_a, run_b)
        assert not diff.has_regressions
        assert diff.identical == diff.compared == 1
        assert "identical" in render_diff(diff)

    def test_flipped_check_is_a_regression(
        self, store, monkeypatch, rewrite_artifacts
    ):
        [job] = scenario_jobs([demo_spec()])
        run_a = record_run(store, [job])
        run_b = record_run(store, [job], monkeypatch, version="1.0.1-test")
        rewrite_artifacts(
            store, run_a, lambda r: with_check(r, passed=True, measured="137")
        )
        rewrite_artifacts(
            store, run_b, lambda r: with_check(r, passed=False, measured="150")
        )
        diff = diff_runs(store, run_a, run_b)
        assert diff.has_regressions
        assert any("regressed" in item.detail for item in diff.regressions)
        assert "REGRESSION" in render_diff(diff)

    def test_moved_cycle_count_is_a_change_not_regression(
        self, store, monkeypatch, rewrite_artifacts
    ):
        [job] = scenario_jobs([demo_spec()])
        run_a = record_run(store, [job])
        run_b = record_run(store, [job], monkeypatch, version="1.0.1-test")

        def bump_latency(record):
            record["rows"] = [
                [cells[0], cells[1] + 1] if cells[0] == "latency" else cells
                for cells in record["rows"]
            ]

        rewrite_artifacts(store, run_b, bump_latency)
        diff = diff_runs(store, run_a, run_b)
        assert not diff.has_regressions
        assert any("table row" in item.detail for item in diff.changes)

    def test_passing_again_is_a_change_not_regression(
        self, store, monkeypatch, rewrite_artifacts
    ):
        [job] = scenario_jobs([demo_spec()])
        run_a = record_run(store, [job])
        run_b = record_run(store, [job], monkeypatch, version="1.0.1-test")
        rewrite_artifacts(
            store, run_a, lambda r: with_check(r, passed=False, measured="150")
        )
        rewrite_artifacts(
            store, run_b, lambda r: with_check(r, passed=True, measured="137")
        )
        diff = diff_runs(store, run_a, run_b)
        assert not diff.has_regressions
        assert any("now passes" in item.detail for item in diff.changes)

    def test_disjoint_job_sets_reported(self, store):
        run_a = record_run(store, scenario_jobs([demo_spec(q=1)]))
        run_b = record_run(store, scenario_jobs([demo_spec(q=2)]))
        diff = diff_runs(store, run_a, run_b)
        assert len(diff.removed) == 1 and len(diff.added) == 1
        assert not diff.has_regressions

    def test_unknown_run_raises(self, store):
        run_a = record_run(store, scenario_jobs([demo_spec()]))
        with pytest.raises(UnknownRunError, match="ghost"):
            diff_runs(store, run_a, "ghost")

    def test_missing_manifest_falls_back_to_sqlite_index(self, store):
        [job] = scenario_jobs([demo_spec()])
        run_a = record_run(store, [job])
        run_b = record_run(store, [job])
        # Prune run B's directory; its results stay in the index.
        (store.runs_dir / run_b / "manifest.json").unlink()
        (store.runs_dir / run_b / "report.md").unlink()
        (store.runs_dir / run_b).rmdir()
        diff = diff_runs(store, run_a, run_b)
        assert diff.compared == 1
        # The index only knows executed jobs, not cache hits — the diff
        # must say its fallback view may be partial.
        assert any("no manifest" in warning for warning in diff.warnings)
        assert "WARNING" in render_diff(diff)


class TestDiffCli:
    def test_identical_runs_exit_zero(self, store, capsys):
        [job] = scenario_jobs([demo_spec()])
        run_a = record_run(store, [job])
        run_b = record_run(store, [job])
        code = main(["lab", "diff", run_a, run_b, "--root", str(store.root)])
        assert code == 0
        assert "identical" in capsys.readouterr().out

    def test_regression_exits_one(
        self, store, capsys, monkeypatch, rewrite_artifacts
    ):
        [job] = scenario_jobs([demo_spec()])
        run_a = record_run(store, [job])
        run_b = record_run(store, [job], monkeypatch, version="1.0.1-test")

        def fail(record):
            record["all_passed"] = False

        rewrite_artifacts(store, run_b, fail)
        code = main(["lab", "diff", run_a, run_b, "--root", str(store.root)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_unknown_run_exits_two(self, store, capsys):
        run_a = record_run(store, scenario_jobs([demo_spec()]))
        code = main(["lab", "diff", run_a, "ghost", "--root", str(store.root)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["[1, 2]", "{}", "not json"])
    def test_a_manifest_that_records_no_run_exits_two(
        self, store, capsys, content
    ):
        """A manifest that is not a JSON object with a ``run_id`` records
        no run, for ``lab diff`` as for ``lab status`` and history."""
        [job] = scenario_jobs([demo_spec()])
        run_a = record_run(store, [job])
        run_b = record_run(store, [job])
        (store.runs_dir / run_b / "manifest.json").write_text(content)
        code = main(["lab", "diff", run_a, run_b, "--root", str(store.root)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"manifest for run {run_b!r} is unreadable: " in err
