"""CLI tests for the observability surface.

Covers `scenario run --trace`, `lab status --metrics`,
`lab history` (trend, ingest, exit codes, `--flag-regressions`,
`--absolute-floor`), that every view names the same runs, and the
removed `lab index --prune-stale` and `lab history --db`.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import sqlite3
from contextlib import closing
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.cli import main
from repro.lab import ArtifactStore
from repro.scenarios import ComponentSpec, MemorySpec, ScenarioGrid, ScenarioSpec
from repro.serve import ServeApp

PORTS_GRID = Path(__file__).resolve().parents[1] / "examples" / (
    "scenario_ports_grid.json"
)
PROGRAM_GRID = PORTS_GRID.with_name("scenario_program_grid.json")


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


def file_manifest(
    root, run_id, created, elapsed, job_id="J", metrics=None, job_ids=()
) -> None:
    """Leave a finished run's manifest under ``root`` with one job (or
    ``job_ids``) and, optionally, run-level ``metrics``."""
    path = Path(root) / "runs" / run_id / "manifest.json"
    path.parent.mkdir(parents=True)
    manifest = {
        "run_id": run_id,
        "created_at": created,
        "jobs": [
            {
                "job_id": name,
                "config_hash": "0" * 16,
                "elapsed_seconds": elapsed,
            }
            for name in job_ids or (job_id,)
        ],
    }
    if metrics is not None:
        manifest["metrics"] = metrics
    path.write_text(json.dumps(manifest))


def bench_file(path, mean=0.25) -> Path:
    path.write_text(
        json.dumps(
            {
                "benchmarks": [{"name": "bench_a", "stats": {"mean": mean}}],
                "repro_meta": {
                    "git_commit": "cafe",
                    "created_at": "2026-01-01T00:00:00Z",
                },
            }
        )
    )
    return path


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
        root = tmp_path / "lab"
        file_manifest(root, "r0", "2026-01-01T00:00:00Z", 1.0)
        file_manifest(root, "r1", "2026-01-02T00:00:00Z", 1.5)
        code = main(
            ["lab", "history", "--root", str(root),
             "--metric", "elapsed_seconds", "--flag-regressions"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "regression" in err
        assert "1.5" in err

    def test_direction_free_metric_says_so(self, grid_file, tmp_path, capsys):
        # minimum_latency, the T+L+1 bound, is known to have no better
        # side; a name the schema does not know has an unknown one.
        root = tmp_path / "lab"
        sweep(root, grid_file)
        file_manifest(
            root, "r-late", "2999-01-01T00:00:00Z", 1.0,
            metrics={"made_up_thing": 3},
        )
        labels = {}
        for metric in ("minimum_latency", "made_up_thing"):
            capsys.readouterr()
            assert main(
                ["lab", "history", "--root", str(root), "--metric", metric]
            ) == 0
            labels[metric] = capsys.readouterr().out.splitlines()[0]
            assert main(
                ["lab", "history", "--root", str(root), "--metric", metric,
                 "--json"]
            ) == 0
            assert json.loads(capsys.readouterr().out)["direction"] is None
        assert labels == {
            "minimum_latency": "minimum_latency — 1 point(s) (no direction)",
            "made_up_thing": "made_up_thing — 1 point(s) (direction unknown)",
        }

    def test_run_metrics_regress_only_against_their_own_batch(
        self, tmp_path, capsys
    ):
        # A cached rerun of one grid, then a cold sweep of another: each
        # batch's run-level metrics form their own series.
        root = tmp_path / "lab"
        sweep(root, PORTS_GRID)
        sweep(root, PORTS_GRID)
        sweep(root, PROGRAM_GRID)
        capsys.readouterr()
        code = main(["lab", "history", "--root", str(root), "--flag-regressions"])
        assert code == 0, capsys.readouterr().err
        assert "no regressions beyond tolerance" in capsys.readouterr().out
        assert main(
            ["lab", "history", "--root", str(root), "--metric",
             "cache_hit_rate", "--json"]
        ) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        assert [point["job_id"] for point in points] == ["__run__"] * 3
        batches = [point["scenario"] for point in points]
        assert batches[0] == batches[1] != batches[2]
        assert all(re.fullmatch(r"batch:[0-9a-f]{12}", b) for b in batches)

    def test_slower_rerun_of_a_batch_still_flags_wall_seconds(
        self, tmp_path, capsys
    ):
        root = tmp_path / "lab"
        for run_id, day, job_ids, wall in (
            ("r0", 1, ("B", "A"), 1.0),
            ("r1", 2, ("A", "B"), 2.0),
            ("r2", 3, ("C",), 1.5),
        ):
            file_manifest(
                root, run_id, f"2026-01-0{day}T00:00:00.000000Z", 1.0,
                metrics={"wall_seconds": wall}, job_ids=job_ids,
            )
        capsys.readouterr()
        code = main(
            ["lab", "history", "--root", str(root), "--flag-regressions",
             "--json"]
        )
        assert code == 1
        (flag,) = json.loads(capsys.readouterr().out)["regressions"]
        digest = hashlib.sha256(b"A\nB").hexdigest()[:12]
        assert flag == {
            "job_id": "__run__",
            "metric": "wall_seconds",
            "scenario": f"batch:{digest}",
            "direction": "lower",
            "best": 1.0,
            "latest": 2.0,
            "run_id": "r1",
            "created_at": "2026-01-02T00:00:00.000000Z",
            "points": 2,
        }

    def test_scenario_filter_matches_run_points_by_job_id(
        self, tmp_path, capsys
    ):
        # A run point's scenario is a batch digest, not a name: a needle
        # found only in "batch:<digest>" selects none of its points.
        root = tmp_path / "lab"
        for run_id, day, wall in (("r0", 1, 1.0), ("r1", 2, 2.0)):
            file_manifest(
                root, run_id, f"2026-01-0{day}T00:00:00.000000Z", 1.0,
                metrics={"wall_seconds": wall}, job_ids=("A", "B"),
            )
        digest = hashlib.sha256(b"A\nB").hexdigest()[:12]
        assert "c66" in digest
        for needle in ("batch", "c66"):
            capsys.readouterr()
            assert main(
                ["lab", "history", "--root", str(root), "--metric",
                 "wall_seconds", "--scenario", needle]
            ) == 2
            assert "no points" in capsys.readouterr().err
        assert main(
            ["lab", "history", "--root", str(root), "--metric",
             "wall_seconds", "--scenario", "RUN", "--flag-regressions",
             "--json"]
        ) == 1
        (flag,) = json.loads(capsys.readouterr().out)["regressions"]
        assert (flag["job_id"], flag["scenario"]) == (
            "__run__", f"batch:{digest}"
        )

    def test_ingest_bench_artifact(self, tmp_path, capsys):
        bench = bench_file(tmp_path / "BENCH_demo.json")
        root = tmp_path / "lab"
        root.mkdir()
        code = main(
            ["lab", "history", "--root", str(root), "--ingest", str(bench),
             "--metric", "mean_seconds", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["root"] == str(root)
        (point,) = payload["points"]
        assert point["value"] == 0.25
        assert point["git_commit"] == "cafe"
        # The file is copied in: later calls need no --ingest.
        (copy,) = (root / "bench").iterdir()
        assert copy.read_bytes() == bench.read_bytes()
        assert main(
            ["lab", "history", "--root", str(root), "--metric", "mean_seconds"]
        ) == 0

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--metric", "latncy"], "no points for metric 'latncy'"),
            (["--ingest", "no_such_BENCH.json", "--metric", "mean_seconds"],
             "no such bench file: no_such_BENCH.json"),
        ],
        ids=["misspelt-metric", "missing-bench"],
    )
    def test_nothing_to_check_exits_two(
        self, grid_file, tmp_path, capsys, monkeypatch, args, message
    ):
        root = tmp_path / "lab"
        sweep(root, grid_file)
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        code = main(
            ["lab", "history", "--root", str(root), *args, "--flag-regressions"]
        )
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "target", ["garbage", "manifest", "run-dir", "lab-root"]
    )
    def test_ingest_takes_only_bench_json(
        self, grid_file, tmp_path, capsys, target
    ):
        other = tmp_path / "other"
        sweep(other, grid_file)
        run_dir = next((other / "runs").iterdir())
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json")
        path = {
            "garbage": garbage,
            "manifest": run_dir / "manifest.json",
            "run-dir": run_dir,
            "lab-root": other,
        }[target]
        capsys.readouterr()
        code = main(
            ["lab", "history", "--root", str(tmp_path / "lab"),
             "--ingest", str(path)]
        )
        assert code == 2
        assert "lab merge" in capsys.readouterr().err
        assert not (tmp_path / "lab").exists()

    def test_scenario_filter_matches_every_character_literally(
        self, tmp_path, capsys
    ):
        # `_` and `%` are not wildcards: "a_b" does not select "aXb".
        root = tmp_path / "lab"
        for index, job_id in enumerate(["a_b", "aXb", "a%b", "aYYb"]):
            file_manifest(
                root, f"r{index}", f"2026-01-0{index + 1}T00:00:00Z", 1.0,
                job_id=job_id,
            )
        for needle, expected in (("A_B", ["a_b"]), ("a%b", ["a%b"])):
            code = main(
                ["lab", "history", "--root", str(root), "--metric",
                 "elapsed_seconds", "--scenario", needle, "--json"]
            )
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            assert [p["job_id"] for p in payload["points"]] == expected

    def test_db_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lab", "history", "--root", str(tmp_path), "--db", "h.sqlite"])
        assert excinfo.value.code == 2
        assert "--db" in capsys.readouterr().err


class TestOneRecordPerRun:
    def test_a_root_records_each_run_once(self, tmp_path, capsys):
        root = tmp_path / "lab"
        sweep(root, PORTS_GRID)
        sweep(root, PORTS_GRID)
        bench = bench_file(tmp_path / "BENCH_demo.json")
        assert main(
            ["lab", "history", "--root", str(root), "--ingest", str(bench)]
        ) == 0
        assert main(["lab", "status", "--root", str(root)]) == 0
        with closing(sqlite3.connect(root / "index.sqlite")) as db:
            tables = db.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            ).fetchall()
        assert tables == [("results",)]
        assert len(list(root.glob("runs/*/manifest.json"))) == 2
        assert len(list((root / "bench").iterdir())) == 1
        assert not (root / "history.sqlite").exists()

    def test_every_view_names_the_remaining_run(self, tmp_path, capsys):
        root = tmp_path / "lab"
        sweep(root, PORTS_GRID)
        sweep(root, PORTS_GRID)
        first, kept = sorted(path.name for path in (root / "runs").iterdir())
        shutil.rmtree(root / "runs" / first)
        capsys.readouterr()

        def cli_json(*args) -> dict:
            assert main(["lab", *args, "--root", str(root), "--json"]) == 0
            return json.loads(capsys.readouterr().out)

        status = cli_json("status")
        metrics = cli_json("status", "--metrics")
        history = cli_json("history", "--metric", "latency")
        with ServeApp(
            ArtifactStore(root), port=0, access_log=None
        ) as app:
            connection = HTTPConnection(app.host, app.port, timeout=60)
            try:
                connection.request("GET", "/v1/history/latency")
                served = json.loads(connection.getresponse().read())
            finally:
                connection.close()
        assert [run["run_id"] for run in status["runs"]] == [kept]
        assert [run["run_id"] for run in metrics["run_metrics"]] == [kept]
        assert {point["run_id"] for point in history["points"]} == {kept}
        assert {point["run_id"] for point in served["points"]} == {kept}
        assert served["point_count"] == len(history["points"]) == 3


class TestLabIndexPrune:
    def test_prune_stale_is_gone(self, tmp_path, capsys):
        # Results live in their index rows, so no row can lose its file.
        with pytest.raises(SystemExit) as excinfo:
            main(["lab", "index", "--root", str(tmp_path), "--prune-stale"])
        assert excinfo.value.code == 2
        assert "--prune-stale" in capsys.readouterr().err


class TestHistoryFloor:
    def run_history(self, tmp_path, *extra):
        root = tmp_path / "lab"
        file_manifest(root, "r0", "2026-01-01T00:00:00Z", 0.0, "demo-job")
        file_manifest(root, "r1", "2026-01-02T00:00:00Z", 0.04, "demo-job")
        return main(
            [
                "lab",
                "history",
                "--root",
                str(root),
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
