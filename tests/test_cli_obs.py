"""CLI tests for the observability surface.

Covers `scenario run --trace`, `lab status --metrics`,
`lab history` (trend, ingest, exit codes, `--flag-regressions`,
`--absolute-floor`) and `lab index --prune-stale`.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.scenarios import ComponentSpec, MemorySpec, ScenarioGrid, ScenarioSpec


def demo_spec(name: str = "obs-cli-demo") -> ScenarioSpec:
    return ScenarioSpec(
        mapping=ComponentSpec.of("matched-xor", t=2, s=3),
        memory=MemorySpec(t=2),
        workload=ComponentSpec.of("strided", base=0, stride=4, length=32),
        name=name,
    )


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(demo_spec().to_json())
    return path


@pytest.fixture
def grid_file(tmp_path):
    grid = ScenarioGrid.of(demo_spec(), memory__q=(1,))
    path = tmp_path / "sweep-grid.json"
    path.write_text(grid.to_json())
    return path


def sweep(root, grid_path) -> None:
    assert main(["lab", "sweep", str(grid_path), "--root", str(root),
                 "--backend", "serial"]) == 0


class TestScenarioTrace:
    def test_trace_writes_chrome_json(self, spec_file, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(["scenario", "run", str(spec_file), "--trace", str(out)])
        assert code == 0
        output = capsys.readouterr().out
        assert f"trace: {out}" in output
        trace = json.loads(out.read_text())
        assert trace["traceEvents"]
        assert {event["ph"] for event in trace["traceEvents"]} >= {"M", "X"}

    def test_trace_with_json_keeps_stdout_parseable(
        self, spec_file, tmp_path, capsys
    ):
        out = tmp_path / "trace.json"
        code = main(
            ["scenario", "run", str(spec_file), "--json", "--trace", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout is pure JSON
        assert "trace:" in captured.err

    def test_grid_traces_get_numbered_suffixes(self, tmp_path, capsys):
        grid = ScenarioGrid.of(demo_spec("grid"), memory__q=(1, 2))
        path = tmp_path / "grid.json"
        path.write_text(grid.to_json())
        out = tmp_path / "grid-trace.json"
        assert main(["scenario", "run", str(path), "--trace", str(out)]) == 0
        for suffix in ("grid-trace-1.json", "grid-trace-2.json"):
            assert json.loads((tmp_path / suffix).read_text())["traceEvents"]
        assert not out.exists()

    def test_trace_conflicts_with_lab(self, spec_file, tmp_path, capsys):
        code = main(
            [
                "scenario", "run", str(spec_file),
                "--trace", str(tmp_path / "t.json"),
                "--lab", "--root", str(tmp_path / "lab"),
            ]
        )
        assert code == 2
        assert "--trace" in capsys.readouterr().err


class TestLabStatusMetrics:
    def test_metrics_table_after_sweep(self, grid_file, tmp_path, capsys):
        root = tmp_path / "lab"
        sweep(root, grid_file)
        capsys.readouterr()
        assert main(["lab", "status", "--root", str(root), "--metrics"]) == 0
        output = capsys.readouterr().out
        assert "backend" in output and "serial" in output
        assert "hit rate" in output

    def test_metrics_json_payload(self, grid_file, tmp_path, capsys):
        root = tmp_path / "lab"
        sweep(root, grid_file)
        capsys.readouterr()
        assert main(
            ["lab", "status", "--root", str(root), "--metrics", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload["run_metrics"]
        assert entry["metrics"]["backend"] == "serial"
        assert entry["metrics"]["jobs"] == 1


class TestLabHistory:
    def test_trend_after_two_sweeps(self, grid_file, tmp_path, capsys):
        root = tmp_path / "lab"
        sweep(root, grid_file)
        sweep(root, grid_file)
        capsys.readouterr()
        code = main(
            ["lab", "history", "--root", str(root), "--metric", "latency"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "latency" in output
        assert "obs-cli-demo" in output
        assert "(lower is better)" in output

    def test_json_points_span_both_runs(self, grid_file, tmp_path, capsys):
        root = tmp_path / "lab"
        sweep(root, grid_file)
        sweep(root, grid_file)
        capsys.readouterr()
        code = main(
            ["lab", "history", "--root", str(root), "--metric", "latency",
             "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metric"] == "latency"
        assert payload["direction"] == "lower"
        assert len(payload["points"]) == 2
        assert len({p["run_id"] for p in payload["points"]}) == 2

    def test_summary_without_metric_lists_names(
        self, grid_file, tmp_path, capsys
    ):
        root = tmp_path / "lab"
        sweep(root, grid_file)
        capsys.readouterr()
        assert main(["lab", "history", "--root", str(root)]) == 0
        output = capsys.readouterr().out
        assert "latency" in output
        assert "elapsed_seconds" in output

    def test_unknown_metric_exits_two(self, grid_file, tmp_path, capsys):
        root = tmp_path / "lab"
        sweep(root, grid_file)
        capsys.readouterr()
        code = main(
            ["lab", "history", "--root", str(root), "--metric", "nope"]
        )
        assert code == 2
        assert "no points" in capsys.readouterr().err

    def test_flag_regressions_clean_exits_zero(
        self, grid_file, tmp_path, capsys
    ):
        root = tmp_path / "lab"
        sweep(root, grid_file)
        sweep(root, grid_file)
        capsys.readouterr()
        code = main(
            ["lab", "history", "--root", str(root), "--metric", "latency",
             "--flag-regressions"]
        )
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_flag_regressions_exits_one_on_regression(
        self, tmp_path, capsys
    ):
        # Fabricated manifests with a 50% elapsed_seconds slip.
        def manifest(run_id, created, elapsed):
            return {
                "run_id": run_id,
                "created_at": created,
                "jobs": [
                    {
                        "job_id": "J",
                        "config_hash": "0" * 16,
                        "elapsed_seconds": elapsed,
                    }
                ],
            }

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(manifest("r0", "2026-01-01T00:00:00Z", 1.0)))
        b.write_text(json.dumps(manifest("r1", "2026-01-02T00:00:00Z", 1.5)))
        root = tmp_path / "lab"
        root.mkdir()
        code = main(
            ["lab", "history", "--root", str(root),
             "--ingest", str(a), "--ingest", str(b),
             "--metric", "elapsed_seconds", "--flag-regressions"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "regression" in err
        assert "1.5" in err

    def test_ingest_bench_artifact(self, tmp_path, capsys):
        bench = tmp_path / "BENCH_demo.json"
        bench.write_text(
            json.dumps(
                {
                    "benchmarks": [
                        {"name": "bench_a", "stats": {"mean": 0.25}}
                    ],
                    "repro_meta": {
                        "git_commit": "cafe",
                        "created_at": "2026-01-01T00:00:00Z",
                    },
                }
            )
        )
        root = tmp_path / "lab"
        root.mkdir()
        code = main(
            ["lab", "history", "--root", str(root), "--ingest", str(bench),
             "--metric", "mean_seconds", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        (point,) = payload["points"]
        assert point["value"] == 0.25
        assert point["git_commit"] == "cafe"


class TestLabIndexPrune:
    def delete_one_artifact(self, root) -> None:
        artifacts = sorted((root / "artifacts").rglob("*.json"))
        assert artifacts
        artifacts[0].unlink()

    def test_standalone_prune(self, grid_file, tmp_path, capsys):
        root = tmp_path / "lab"
        sweep(root, grid_file)
        self.delete_one_artifact(root)
        capsys.readouterr()
        assert main(
            ["lab", "index", "--root", str(root), "--prune-stale"]
        ) == 0
        assert "pruned 1" in capsys.readouterr().out
        assert main(
            ["lab", "index", "--root", str(root), "--prune-stale"]
        ) == 0
        assert "pruned 0" in capsys.readouterr().out

    def test_verify_with_prune(self, grid_file, tmp_path, capsys):
        root = tmp_path / "lab"
        sweep(root, grid_file)
        self.delete_one_artifact(root)
        capsys.readouterr()
        assert main(
            ["lab", "index", "--root", str(root), "--verify",
             "--prune-stale"]
        ) == 0
        assert "pruned 1" in capsys.readouterr().out


class TestHistoryFloor:
    def manifest(self, tmp_path, index, elapsed):
        path = tmp_path / f"manifest_{index}.json"
        path.write_text(
            json.dumps(
                {
                    "run_id": f"r{index}",
                    "created_at": f"2026-01-0{index + 1}T00:00:00Z",
                    "jobs": [
                        {
                            "job_id": "demo-job",
                            "config_hash": "0" * 16,
                            "elapsed_seconds": elapsed,
                        }
                    ],
                }
            )
        )
        return path

    def run_history(self, tmp_path, *extra):
        return main(
            [
                "lab",
                "history",
                "--root",
                str(tmp_path / "lab"),
                "--ingest",
                str(self.manifest(tmp_path, 0, 0.0)),
                "--ingest",
                str(self.manifest(tmp_path, 1, 0.04)),
                "--metric",
                "elapsed_seconds",
                "--flag-regressions",
                *extra,
            ]
        )

    def test_zero_best_slip_fails_the_gate_by_default(
        self, tmp_path, capsys
    ):
        assert self.run_history(tmp_path) == 1
        assert "regression(s) flagged" in capsys.readouterr().err

    def test_absolute_floor_grants_explicit_slack(self, tmp_path, capsys):
        assert (
            self.run_history(tmp_path, "--absolute-floor", "0.1") == 0
        )
        assert "no regressions" in capsys.readouterr().out
