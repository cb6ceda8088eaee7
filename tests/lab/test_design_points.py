"""A design point enters the lab once.

Each grid point is built with one ``ScenarioSpec.from_dict`` and parsed
once more where its job runs; a point a batch names twice runs once;
two different jobs under one id are refused.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.lab import ArtifactStore, JobSpec, run_jobs, scenario_jobs
from repro.scenarios import ComponentSpec, MemorySpec, ScenarioSpec, load_grid

PORTS_GRID = (
    Path(__file__).resolve().parents[2] / "examples" / "scenario_ports_grid.json"
)

#: One axis that repeats a value: q=2 is one design point named twice.
REPEATING_GRID = {
    "base": {
        "name": "d",
        "mapping": {"kind": "matched-xor", "params": {"t": 3, "s": 4}},
        "memory": {"t": 3},
        "workload": {
            "kind": "strided",
            "params": {"base": 16, "stride": 12, "length": 128},
        },
    },
    "axes": {"memory.q": [2, 2, 3]},
}


@pytest.fixture
def spec_calls(monkeypatch):
    """Counts ``ScenarioSpec.from_dict`` and ``ScenarioSpec.replace`` calls."""
    calls = {"from_dict": 0, "replace": 0}
    from_dict = ScenarioSpec.from_dict.__func__
    replace = ScenarioSpec.replace

    def counting_from_dict(cls, data):
        calls["from_dict"] += 1
        return from_dict(cls, data)

    def counting_replace(self, path, value):
        calls["replace"] += 1
        return replace(self, path, value)

    monkeypatch.setattr(ScenarioSpec, "from_dict", classmethod(counting_from_dict))
    monkeypatch.setattr(ScenarioSpec, "replace", counting_replace)
    return calls


class TestOneBuildPerPoint:
    def test_lab_sweep_builds_and_parses_each_point_once(
        self, tmp_path, capsys, spec_calls
    ):
        points = len(load_grid(PORTS_GRID.read_text()).expand())
        spec_calls.update(from_dict=0, replace=0)
        argv = ["lab", "sweep", str(PORTS_GRID), "--backend", "serial"]
        assert main([*argv, "--root", str(tmp_path / "lab")]) == 0
        assert f"{points} design points, 0 cache hits" in capsys.readouterr().out
        assert spec_calls["replace"] == 0
        # One build where the grid expands and one parse where the job
        # runs, plus the base and the first point the grid checks.
        assert spec_calls["from_dict"] <= 2 * points + 2


class TestRepeatedPoint:
    def test_sweep_runs_a_repeated_point_once(self, tmp_path, capsys):
        grid = tmp_path / "repeat.json"
        grid.write_text(json.dumps(REPEATING_GRID))
        root = tmp_path / "lab"
        argv = ["lab", "sweep", str(grid), "--backend", "serial"]
        assert main([*argv, "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert out.count("SC-d[q=2]-") == 1  # one progress line
        # The table keeps one row per grid point; the summary counts
        # distinct design points.
        table = [line for line in out.splitlines() if line[:2] in ("2 ", "3 ")]
        assert [line.split()[0] for line in table] == ["2", "2", "3"]
        assert "2 design points, 0 cache hits, 0 failed" in out
        assert "lint: DD401" in out and "simulates once" in out
        [manifest] = (root / "runs").glob("*/manifest.json")
        manifest = json.loads(manifest.read_text())
        job_ids = [job["job_id"] for job in manifest["jobs"]]
        assert len(job_ids) == len(set(job_ids)) == 2
        assert manifest["metrics"]["executed"] == 2

    def test_scenario_run_lab_runs_a_repeated_point_once(
        self, tmp_path, capsys
    ):
        grid = tmp_path / "repeat.json"
        grid.write_text(json.dumps(REPEATING_GRID))
        argv = ["scenario", "run", str(grid), "--lab"]
        assert main([*argv, "--root", str(tmp_path / "lab")]) == 0
        assert "2 scenarios, 0 cache hits, 2 executed" in capsys.readouterr().out


def spec(q=1) -> ScenarioSpec:
    return ScenarioSpec(
        mapping=ComponentSpec.of("matched-xor", t=3, s=4),
        memory=MemorySpec(t=3, q=q),
        workload=ComponentSpec.of("strided", base=16, stride=12, length=128),
        name="once",
    )


class TestOneJobPerId:
    def test_identical_jobs_run_once(self, tmp_path):
        jobs = scenario_jobs([spec(2), spec(1), spec(2)])
        with ArtifactStore(tmp_path / "lab") as store:
            report = run_jobs(jobs, store=store, backend="serial")
        assert [o.spec for o in report.outcomes] == sorted(
            set(jobs), key=lambda job: job.job_id
        )
        assert (report.executed, report.metrics["jobs"]) == (2, 2)

    def test_different_jobs_sharing_an_id_are_refused(self, tmp_path):
        [job] = scenario_jobs([spec()])
        impostor = JobSpec(job.job_id, job.kind, "another title", job.params)
        with ArtifactStore(tmp_path / "lab") as store:
            with pytest.raises(ConfigurationError, match=re.escape(job.job_id)):
                run_jobs([job, impostor], store=store, backend="serial")
            assert store.results() == []
