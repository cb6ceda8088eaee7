"""CLI tests for `repro scenario run|list` and `lab run --param`."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.scenarios import ComponentSpec, MemorySpec, ScenarioGrid, ScenarioSpec


@pytest.fixture
def spec_file(tmp_path):
    spec = ScenarioSpec(
        mapping=ComponentSpec.of("matched-xor", t=3, s=4),
        memory=MemorySpec(t=3),
        workload=ComponentSpec.of("strided", base=16, stride=12, length=128),
        name="cli-demo",
    )
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    return spec, path


class TestScenarioRun:
    def test_run_prints_normalised_metrics(self, spec_file, capsys):
        _spec, path = spec_file
        assert main(["scenario", "run", str(path)]) == 0
        output = capsys.readouterr().out
        assert "cli-demo" in output
        assert "latency" in output and "137" in output
        assert "conflict_free" in output

    def test_json_output_round_trips(self, spec_file, capsys):
        spec, path = spec_file
        assert main(["scenario", "run", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["spec"] == spec.to_dict()
        assert payload[0]["result"]["latency"] == 137

    def test_grid_file_expands_to_every_point(self, tmp_path, capsys):
        spec, _path = (
            ScenarioSpec(
                mapping=ComponentSpec.of("matched-xor", t=3, s=4),
                memory=MemorySpec(t=3),
                workload=ComponentSpec.of("strided", stride=12, length=128),
                name="grid",
            ),
            None,
        )
        grid = ScenarioGrid.of(spec, memory__q=(1, 2, 4))
        path = tmp_path / "grid.json"
        path.write_text(grid.to_json())
        assert main(["scenario", "run", str(path), "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 3

    def test_missing_file_exits_two(self, capsys):
        assert main(["scenario", "run", "/nonexistent/spec.json"]) == 2
        assert "no such scenario file" in capsys.readouterr().err

    def test_bad_spec_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"mapping": {"kind": "warp"}, "memory": {"t": 3}}')
        assert main(["scenario", "run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--json"], ["--trace", "t.json"]])
    def test_a_bad_spec_stops_the_run_before_any_simulates(
        self, spec_file, tmp_path, monkeypatch, capsys, extra
    ):
        from repro.errors import ReproError
        from repro.scenarios import simulate

        spec, _path = spec_file
        bad = ScenarioSpec.from_dict(
            {**spec.to_dict(), "name": "typo", "mapping": {
                "kind": "matched-xr", "params": {"t": 3, "s": 4}}}
        )
        with pytest.raises(ReproError) as refusal:
            simulate(bad)
        # A clean spec first, then the same with a close typo of a kind.
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        path = run_dir / "two.json"
        path.write_text(json.dumps([spec.to_dict(), bad.to_dict()]))
        monkeypatch.chdir(run_dir)
        assert main(["scenario", "run", str(path), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {refusal.value}\n"
        assert [entry.name for entry in run_dir.iterdir()] == ["two.json"]

    def test_a_clean_file_prints_no_lint_lines(self, spec_file, tmp_path, capsys):
        spec, _path = spec_file
        # The same point twice is a DD401 warning on the lab's path.
        path = tmp_path / "twice.json"
        path.write_text(json.dumps([spec.to_dict(), spec.to_dict()]))
        assert main(["scenario", "run", str(path)]) == 0
        captured = capsys.readouterr()
        assert "lint" not in captured.out + captured.err
        assert captured.out.count("== cli-demo") == 2

    def test_lab_mode_caches(self, spec_file, tmp_path, capsys):
        _spec, path = spec_file
        root = str(tmp_path / "lab")
        assert main(["scenario", "run", str(path), "--lab", "--root", root]) == 0
        assert "1 scenarios" in capsys.readouterr().out
        assert main(["scenario", "run", str(path), "--lab", "--root", root]) == 0
        assert "1 cache hits" in capsys.readouterr().out

    def test_committed_example_files_run(self, capsys):
        from pathlib import Path

        examples = sorted(
            str(path)
            for path in Path("examples").glob("scenario_*.json")
            # The bad-stride spec is deliberately unrunnable — it exists
            # for `repro check` to reject (see tests/check).
            if path.name != "scenario_bad_stride.json"
        )
        assert len(examples) >= 3
        assert main(["scenario", "run", *examples]) == 0


class TestScenarioList:
    def test_lists_every_category_and_kind(self, capsys):
        assert main(["scenario", "list"]) == 0
        output = capsys.readouterr().out
        for heading in ("mapping kinds:", "workload kinds:", "drive kinds:"):
            assert heading in output
        for kind in ("matched-xor", "section-xor", "bit-reversal", "decoupled"):
            assert kind in output
        assert "example params" in output


class TestLabRunParam:
    def test_param_override_runs_the_design_point(self, tmp_path, capsys):
        root = str(tmp_path / "lab")
        code = main(
            [
                "lab", "run",
                "--ids", "E03",
                "--param", "E03:lambda_exponent=6",
                "--root", root,
                "--jobs", "1",
            ]
        )
        assert code == 0
        assert "E03[lambda_exponent=6]" in capsys.readouterr().out

    def test_malformed_param_is_clean_error(self, tmp_path, capsys):
        code = main(
            ["lab", "run", "--ids", "E01", "--param", "garbage",
             "--root", str(tmp_path / "lab")]
        )
        assert code == 2
        assert "expected JOB:KEY=VALUE" in capsys.readouterr().err

    def test_unknown_param_name_is_clean_error(self, tmp_path, capsys):
        code = main(
            ["lab", "run", "--ids", "E01", "--param", "E01:warp=9",
             "--root", str(tmp_path / "lab")]
        )
        assert code == 2
        assert "does not accept" in capsys.readouterr().err

    def test_param_for_unselected_job_is_clean_error(self, tmp_path, capsys):
        # A typo'd job id must not silently run the default design point.
        code = main(
            ["lab", "run", "--ids", "E01", "--param", "E3:lambda_exponent=8",
             "--root", str(tmp_path / "lab")]
        )
        assert code == 2
        assert "not in the selected jobs" in capsys.readouterr().err


@pytest.fixture
def program_spec_file(tmp_path):
    spec = ScenarioSpec(
        mapping=ComponentSpec.of("matched-xor", t=3, s=4),
        memory=MemorySpec(t=3, q=2),
        program=ComponentSpec.of("daxpy", n=96, x_stride=4, y_stride=4),
        drive=ComponentSpec.of("decoupled", chaining=True),
        name="cli-daxpy",
    )
    path = tmp_path / "program.json"
    path.write_text(spec.to_json())
    return spec, path


class TestScenarioRunProgram:
    def test_program_spec_prints_timeline_and_metrics(
        self, program_spec_file, capsys
    ):
        _spec, path = program_spec_file
        assert main(["scenario", "run", str(path)]) == 0
        output = capsys.readouterr().out
        assert "extra:numerically_correct" in output
        assert "extra:chaining_speedup" in output
        assert "start_cycle" in output  # the per-instruction timeline
        assert "chained" in output

    def test_program_spec_json_round_trips(self, program_spec_file, capsys):
        spec, path = program_spec_file
        assert main(["scenario", "run", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["spec"] == spec.to_dict()
        assert payload[0]["result"]["extras"]["numerically_correct"] is True
        assert len(payload[0]["result"]["timeline"]) == 10

    def test_program_spec_runs_through_lab_cache(
        self, program_spec_file, tmp_path, capsys
    ):
        _spec, path = program_spec_file
        root = str(tmp_path / "lab")
        assert main(["scenario", "run", str(path), "--lab", "--root", root]) == 0
        capsys.readouterr()
        assert main(["scenario", "run", str(path), "--lab", "--root", root]) == 0
        assert "1 cache hits" in capsys.readouterr().out


class TestScenarioDiff:
    def write(self, tmp_path, name, spec):
        path = tmp_path / name
        path.write_text(spec.to_json())
        return str(path)

    def test_identical_points_exit_zero(self, spec_file, capsys):
        _spec, path = spec_file
        assert main(["scenario", "diff", str(path), str(path)]) == 0
        assert "metric-identical" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        base = ScenarioSpec(
            mapping=ComponentSpec.of("matched-xor", t=3, s=4),
            memory=MemorySpec(t=3),
            workload=ComponentSpec.of("strided", base=16, stride=12, length=128),
            name="auto",
        )
        ordered = base.replace("drive.params.mode", "ordered").replace(
            "name", "ordered"
        )
        file_a = self.write(tmp_path, "a.json", base)
        file_b = self.write(tmp_path, "b.json", ordered)
        assert main(["scenario", "diff", file_a, file_b]) == 1
        output = capsys.readouterr().out
        assert "[REGRESSION] latency" in output
        # the reverse direction is an improvement, not a regression
        assert main(["scenario", "diff", file_b, file_a]) == 0

    def test_missing_file_exits_two(self, spec_file, capsys):
        _spec, path = spec_file
        assert main(["scenario", "diff", str(path), "/nonexistent.json"]) == 2
        assert "no such scenario file" in capsys.readouterr().err

    def test_grid_file_rejected(self, tmp_path, spec_file, capsys):
        spec, path = spec_file
        grid = ScenarioGrid.of(spec, memory__q=(1, 2))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(grid.to_json())
        assert main(["scenario", "diff", str(path), str(grid_path)]) == 2
        assert "exactly one" in capsys.readouterr().err


class TestLabSweep:
    @pytest.fixture
    def grid_file(self, tmp_path):
        spec = ScenarioSpec(
            mapping=ComponentSpec.of("matched-xor", t=3, s=4),
            memory=MemorySpec(t=3, q=2),
            program=ComponentSpec.of("saxpy-chain", n=64),
            drive=ComponentSpec.of("decoupled", chaining=True),
            name="sweep",
        )
        grid = ScenarioGrid.of(
            spec,
            program__params__n=(64, 96),
            drive__params__chaining=(False, True),
        )
        path = tmp_path / "grid.json"
        path.write_text(grid.to_json())
        return path

    def test_sweep_renders_axes_as_columns(self, grid_file, tmp_path, capsys):
        root = str(tmp_path / "lab")
        assert main(["lab", "sweep", str(grid_file), "--root", root,
                     "--jobs", "1"]) == 0
        output = capsys.readouterr().out
        header = next(
            line for line in output.splitlines() if "latency" in line
        )
        assert "chaining" in header and "n" in header
        assert "numerically_correct" in header
        assert "4 design points" in output

    def test_sweep_is_cached_on_rerun(self, grid_file, tmp_path, capsys):
        root = str(tmp_path / "lab")
        assert main(["lab", "sweep", str(grid_file), "--root", root,
                     "--jobs", "1"]) == 0
        capsys.readouterr()
        assert main(["lab", "sweep", str(grid_file), "--root", root,
                     "--jobs", "1"]) == 0
        assert "4 cache hits" in capsys.readouterr().out

    def test_sweep_markdown_output_file(self, grid_file, tmp_path, capsys):
        root = str(tmp_path / "lab")
        out = tmp_path / "table.md"
        assert main(["lab", "sweep", str(grid_file), "--root", root,
                     "--jobs", "1", "--markdown", "--output", str(out)]) == 0
        assert out.read_text().startswith("### grid of 4 scenarios")
        assert "| chaining | n |" in out.read_text()

    def test_plain_spec_file_rejected(self, spec_file, tmp_path, capsys):
        _spec, path = spec_file
        code = main(
            ["lab", "sweep", str(path), "--root", str(tmp_path / "lab")]
        )
        assert code == 2
        assert "grid file" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(
            ["lab", "sweep", "/nonexistent/grid.json",
             "--root", str(tmp_path / "lab")]
        )
        assert code == 2
        assert "no such grid file" in capsys.readouterr().err
