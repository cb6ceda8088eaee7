"""Submit-time static lint where scenario specs become lab jobs.

`scenario_jobs` lints a batch of specs before any job exists: error
findings abort the whole batch with a CheckError (nothing queued,
nothing cached), warnings surface through the progress hook.  Every
front door comes through it; `run_jobs` itself lints nothing.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.check import CheckError
from repro.cli import main
from repro.lab.executor import run_jobs
from repro.lab.jobs import _scenario_job, scenario_jobs
from repro.lab.store import ArtifactStore
from repro.scenarios import ComponentSpec, MemorySpec, ScenarioSpec

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def spec(name="gate", **mapping_params):
    params = dict(t=3, s=4)
    params.update(mapping_params)
    return ScenarioSpec(
        mapping=ComponentSpec.of("matched-xor", **params),
        memory=MemorySpec(t=3),
        workload=ComponentSpec.of("strided", base=16, stride=12, length=128),
        name=name,
    )


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "lab")


class TestLabSubmitGate:
    def test_bad_param_fails_the_batch_before_execution(self):
        with pytest.raises(CheckError, match="SL302") as info:
            scenario_jobs([spec(), spec("bad", warp=9)])
        [finding] = info.value.findings
        assert finding.rule_id == "SL302"
        assert finding.location == "lab submit:bad.mapping"

    def test_source_names_the_door(self):
        with pytest.raises(CheckError) as info:
            scenario_jobs([spec("bad", warp=9)], source="POST /v1/runs")
        assert info.value.findings[0].location == "POST /v1/runs:bad.mapping"

    def test_duplicate_specs_warn_via_progress(self, store):
        lines = []
        jobs = scenario_jobs([spec("a"), spec("b")], progress=lines.append)
        assert any(line.startswith("lint: DD401") for line in lines)
        assert run_jobs(jobs, store=store, backend="serial").all_passed

    def test_clean_scenario_batch_is_silent(self, store):
        lines = []
        jobs = scenario_jobs([spec()], progress=lines.append)
        report = run_jobs(
            jobs, store=store, backend="serial", progress=lines.append
        )
        assert report.all_passed
        assert not any(line.startswith("lint:") for line in lines)

    def test_one_job_per_spec_in_the_order_given(self):
        specs = [spec("b"), spec("a"), spec("b")]
        assert scenario_jobs(specs) == [_scenario_job(item) for item in specs]

    def test_lints_in_job_id_order(self):
        # Unnamed specs are located by their index in job-id order (the
        # order run_jobs runs them in), whatever order they came in.
        warp, zap = spec("", warp=9), spec("", zap=9)
        first = min((warp, zap), key=lambda item: _scenario_job(item).job_id)
        for order in ([warp, zap], [zap, warp]):
            with pytest.raises(CheckError) as info:
                scenario_jobs(order)
            located = {f.location: f.message for f in info.value.findings}
            assert set(located) == {
                "lab submit:spec[0].mapping",
                "lab submit:spec[1].mapping",
            }
            expected = "warp" if first is warp else "zap"
            assert expected in located["lab submit:spec[0].mapping"]

    def test_run_jobs_does_not_lint(self, store):
        # A hand-built job skips the gate; its bad parameter fails the
        # job where it runs, as a failed outcome, not a CheckError.
        report = run_jobs(
            [_scenario_job(spec("bad", warp=9))], store=store, backend="serial"
        )
        [failure] = report.failures
        assert "warp" in failure.record["checks"][0]["measured"]


BAD_GRID = {
    "base": {
        "name": "bad",
        "mapping": {"kind": "matched-xor", "params": {"t": 3, "s": 4, "warp": 9}},
        "memory": {"t": 3},
        "workload": {
            "kind": "strided",
            "params": {"base": 16, "stride": 12, "length": 128},
        },
    },
    "axes": {"memory.q": [1, 2]},
}


class TestCliDoors:
    @pytest.mark.parametrize(
        "command", [["lab", "sweep"], ["scenario", "run", "--lab"]]
    )
    def test_error_finding_runs_and_stores_nothing(
        self, tmp_path, capsys, command
    ):
        grid = tmp_path / "bad.json"
        grid.write_text(json.dumps(BAD_GRID))
        root = tmp_path / "lab"
        argv = [*command[:2], str(grid), *command[2:], "--root", str(root)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "SL302 · error · lab submit:bad[q=1]" in captured.err
        assert "PASS" not in captured.out and "FAIL" not in captured.out
        with ArtifactStore(root) as store:
            assert store.results() == []
        assert not (root / "runs").exists()


class TestOneGate:
    def test_executor_imports_neither_check_nor_scenarios(self):
        tree = ast.parse((SRC / "lab" / "executor.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not any(
            name.startswith(("repro.check", "repro.scenarios"))
            for name in imported
        )

    def test_only_scenario_jobs_calls_require_submittable(self):
        callers = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text())
            for function in ast.walk(tree):
                if not isinstance(function, ast.FunctionDef):
                    continue
                for node in ast.walk(function):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "require_submittable"
                    ):
                        callers.append(
                            f"{path.relative_to(SRC)}:{function.name}"
                        )
        assert callers == ["lab/jobs.py:scenario_jobs"]
