"""CLI tests for `repro lab ...`, `--version`, and failure exit codes.

The CLI docstring promises a non-zero exit status whenever an
experiment check fails; these tests pin that contract for `repro lab
run`, the command that runs the paper's experiments, by swapping in a
deliberately failing runner.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main, package_version
from repro.lab import ArtifactStore
from repro.report.experiments import ALL_EXPERIMENTS, ExperimentResult

PORTS_GRID = str(
    Path(__file__).resolve().parents[2] / "examples" / "scenario_ports_grid.json"
)
UNMATCHED_GRID = (
    Path(__file__).resolve().parents[2] / "examples" / "scenario_unmatched_grid.json"
)


def failing_e01() -> ExperimentResult:
    """A runner whose paper-vs-measured check always fails."""
    result = ExperimentResult("E01", "forced failure", ["value"], [[1]])
    result.check("paper claim that cannot hold", 1, 2)
    return result


class TestVersionFlag:
    def test_version_exits_zero_and_prints(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {package_version()}" in capsys.readouterr().out

    def test_package_version_matches_source_fallback(self):
        import repro

        assert package_version() in (repro.__version__, package_version())
        assert package_version()


class TestLabRun:
    def test_run_and_cached_rerun(self, tmp_path, capsys):
        root = str(tmp_path / "lab")
        assert (
            main(["lab", "run", "--ids", "E01,S-t", "--jobs", "1", "--root", root])
            == 0
        )
        first = capsys.readouterr().out
        assert "0 cache hits, 2 executed" in first
        assert "manifest:" in first
        assert (
            main(["lab", "run", "--ids", "E01,S-t", "--jobs", "1", "--root", root])
            == 0
        )
        second = capsys.readouterr().out
        assert "2 cache hits, 0 executed" in second
        # Results live in the index; no per-result files.
        assert not list(Path(root).rglob("result.json"))

    def test_ids_are_case_insensitive(self, tmp_path, capsys):
        root = str(tmp_path / "lab")
        exit_code = main(
            ["lab", "run", "--ids", "e01,s-t", "--jobs", "1", "--root", root]
        )
        assert exit_code == 0
        assert "2 jobs" in capsys.readouterr().out

    def test_all_and_ids_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "lab",
                    "run",
                    "--all",
                    "--ids",
                    "E01",
                    "--root",
                    str(tmp_path / "lab"),
                ]
            )
        assert excinfo.value.code == 2

    def test_unknown_id_exits_two(self, tmp_path, capsys):
        exit_code = main(
            [
                "lab",
                "run",
                "--ids",
                "E99",
                "--jobs",
                "1",
                "--root",
                str(tmp_path / "lab"),
            ]
        )
        assert exit_code == 2
        assert "unknown job ids: E99" in capsys.readouterr().err

    def test_failing_check_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(ALL_EXPERIMENTS, "E01", failing_e01)
        exit_code = main(
            [
                "lab",
                "run",
                "--ids",
                "E01",
                "--jobs",
                "1",
                "--root",
                str(tmp_path / "lab"),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "FAIL" in captured.out
        assert "failed jobs: E01" in captured.err


class TestLabStatusSummarizeIndex:
    def test_status_before_and_after_run(self, tmp_path, capsys):
        root = str(tmp_path / "lab")
        assert main(["lab", "status", "--root", root]) == 0
        empty = capsys.readouterr().out
        assert "cached:   0/" in empty
        main(["lab", "run", "--ids", "E01", "--jobs", "1", "--root", root])
        capsys.readouterr()
        assert main(["lab", "status", "--root", root]) == 0
        full = capsys.readouterr().out
        assert "cached:   1/" in full
        assert "E01" in full

    def test_summarize_without_cache_fails(self, tmp_path, capsys):
        root = str(tmp_path / "lab")
        assert main(["lab", "summarize", "--root", root]) == 1
        assert "no cached results" in capsys.readouterr().err

    def test_summarize_writes_markdown(self, tmp_path, capsys):
        root = str(tmp_path / "lab")
        main(["lab", "run", "--ids", "E01", "--jobs", "1", "--root", root])
        capsys.readouterr()
        output = tmp_path / "SUM.md"
        assert (
            main(["lab", "summarize", "--root", root, "--output", str(output)])
            == 0
        )
        assert "## E01" in output.read_text()

    def test_index_rebuild(self, tmp_path, capsys):
        root = str(tmp_path / "lab")
        main(["lab", "run", "--ids", "E01,S-t", "--jobs", "1", "--root", root])
        capsys.readouterr()
        # A root in the current layout has no artifact files to import,
        # and importing leaves its results alone.
        assert main(["lab", "index", "--root", root]) == 0
        assert "indexed 0 artifact file(s)" in capsys.readouterr().out
        with ArtifactStore(root) as store:
            assert [row["job_id"] for row in store.results()] == ["E01", "S-t"]


class TestLabStatusJson:
    def test_status_json_round_trips(self, tmp_path, capsys):
        import json

        root = str(tmp_path / "lab")
        main(["lab", "run", "--ids", "E01", "--jobs", "1", "--root", root])
        capsys.readouterr()
        assert main(["lab", "status", "--json", "--root", root]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cached"] == 1
        assert payload["root"] == root
        cached_jobs = [job for job in payload["jobs"] if job["cached"]]
        assert [job["job_id"] for job in cached_jobs] == ["E01"]
        assert cached_jobs[0]["all_passed"] is True
        assert "E02" in payload["missing"]
        assert len(payload["runs"]) == 1

    def test_status_json_on_empty_store(self, tmp_path, capsys):
        import json

        root = str(tmp_path / "lab")
        assert main(["lab", "status", "--json", "--root", root]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cached"] == 0
        assert payload["runs"] == []


class TestLabIndexVerify:
    def test_clean_store_exits_zero(self, tmp_path, capsys):
        root = str(tmp_path / "lab")
        main(["lab", "run", "--ids", "E01", "--jobs", "1", "--root", root])
        capsys.readouterr()
        assert main(["lab", "index", "--verify", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "1 ok" in out and "0 corrupt" in out

    def test_corrupt_artifact_exits_one(self, tmp_path, capsys, tamper):
        root = str(tmp_path / "lab")
        main(["lab", "run", "--ids", "E01", "--jobs", "1", "--root", root])
        capsys.readouterr()
        with ArtifactStore(root) as store:
            [row] = store.results()
            tamper(store, row["config_hash"], "GARBAGE{")
        assert main(["lab", "index", "--verify", "--root", root]) == 1
        assert "[corrupt]" in capsys.readouterr().out


class TestMissingRoot:
    def test_read_commands_create_nothing(self, tmp_path, capsys):
        root = tmp_path / "lab"
        assert main(["lab", "status", "--root", str(root)]) == 0
        assert main(["lab", "status", "--json", "--root", str(root)]) == 0
        assert main(["lab", "summarize", "--root", str(root)]) == 1
        assert main(["lab", "index", "--verify", "--root", str(root)]) == 0
        assert main(["lab", "diff", "a", "b", "--root", str(root)]) == 2
        assert not root.exists()


class TestInvalidBodies:
    """A stored body that is not a record under its hash is a cache miss."""

    @pytest.mark.parametrize(
        "body",
        ['{"truncated": ', "[]", "null", '"x"', '{"config_hash": 1}', "other"],
        ids=["truncated", "list", "null", "string", "wrong-hash", "other-record"],
    )
    def test_rerun_executes_only_the_bad_point(
        self, tmp_path, capsys, tamper, body
    ):
        root = str(tmp_path / "lab")
        sweep = ["lab", "sweep", PORTS_GRID, "--backend", "serial", "--root", root]
        assert main(sweep) == 0
        capsys.readouterr()
        with ArtifactStore(root) as store:
            victim, other = sorted(row["config_hash"] for row in store.results())[:2]
            if body == "other":
                # A valid record, filed under the wrong hash.
                body = store.artifact_bytes(other).decode()
            tamper(store, victim, body)
            assert store.artifact_bytes(victim) is None
            assert store.load(victim) is None
        assert main(sweep) == 0
        assert "3 design points, 2 cache hits, 0 failed" in capsys.readouterr().out
        with ArtifactStore(root) as store:
            # Re-executing the point overwrote the bad body.
            assert store.load(victim)["config_hash"] == victim
            assert len(store.results()) == 3


class TestLabRunBackends:
    def test_run_backend_serial(self, tmp_path, capsys):
        root = str(tmp_path / "lab")
        code = main(
            ["lab", "run", "--ids", "E01,S-t", "--backend", "serial",
             "--root", root]
        )
        assert code == 0
        assert "2 executed" in capsys.readouterr().out

    def test_run_backend_spool_with_worker(self, tmp_path, capsys):
        """Full CLI spool round trip: coordinator + one worker thread."""
        import threading

        from repro.lab import serve

        root = tmp_path / "lab"
        worker = threading.Thread(
            target=serve,
            args=(root / "spool",),
            kwargs={"poll": 0.01, "max_idle": 60, "heartbeat": 0.1},
        )
        worker.start()
        try:
            code = main(
                ["lab", "run", "--ids", "E01,S-t", "--backend", "spool",
                 "--spool-timeout", "120", "--root", str(root)]
            )
        finally:
            (root / "spool").mkdir(parents=True, exist_ok=True)
            (root / "spool" / "STOP").touch()
            worker.join(timeout=120)
        assert code == 0
        out = capsys.readouterr().out
        assert "spooled 2 job(s)" in out
        assert "2 executed" in out

    def test_run_backend_spool_timeout_exits_two(self, tmp_path, capsys):
        """No workers + a timeout = a clear error, not a hang."""
        root = str(tmp_path / "lab")
        code = main(
            ["lab", "run", "--ids", "E01", "--backend", "spool",
             "--spool-timeout", "0.2", "--root", root]
        )
        assert code == 2
        assert "timed out" in capsys.readouterr().err

    def test_run_backend_spool_participate_needs_no_workers(
        self, tmp_path, capsys
    ):
        root = str(tmp_path / "lab")
        code = main(
            ["lab", "run", "--ids", "E01,S-t", "--backend", "spool",
             "--participate", "--spool-timeout", "120", "--root", root]
        )
        assert code == 0
        assert "2 executed" in capsys.readouterr().out


class TestLabWorkerCli:
    def test_once_on_missing_dir_exits_two(self, tmp_path, capsys):
        code = main(
            ["lab", "worker", str(tmp_path / "nowhere"), "--once"]
        )
        assert code == 2
        assert "no such spool directory" in capsys.readouterr().err

    def test_once_drains_a_prepared_spool(self, tmp_path, capsys):
        from repro.lab import SpoolRun, build_registry

        spool = SpoolRun(tmp_path / "spool" / "run-1")
        spool.create()
        spool.publish([build_registry()["E01"]])
        code = main(["lab", "worker", str(tmp_path / "spool"), "--once"])
        assert code == 0
        out = capsys.readouterr().out
        assert "worker: executed E01" in out
        assert "1 job(s) executed" in out

    def test_once_on_empty_spool_exits_zero(self, tmp_path, capsys):
        (tmp_path / "spool").mkdir()
        assert main(["lab", "worker", str(tmp_path / "spool"), "--once"]) == 0
        assert "0 job(s) executed" in capsys.readouterr().out

    def test_max_jobs_bounds_the_worker(self, tmp_path, capsys):
        from repro.lab import SpoolRun, build_registry

        registry = build_registry()
        spool = SpoolRun(tmp_path / "spool" / "run-1")
        spool.create()
        spool.publish([registry["E01"], registry["E02"]])
        code = main(
            ["lab", "worker", str(tmp_path / "spool"),
             "--max-jobs", "1", "--poll", "0.01"]
        )
        assert code == 0
        assert "1 job(s) executed" in capsys.readouterr().out
        # One job left for the next bounded worker.
        assert len(list(spool.pending_dir.glob("*.json"))) == 1

    def test_max_jobs_rejects_zero(self, capsys):
        with pytest.raises(SystemExit):
            main(["lab", "worker", "spool", "--max-jobs", "0"])
        assert "must be >= 1" in capsys.readouterr().err


class TestLabMergeCli:
    def test_merge_missing_root_exits_two(self, tmp_path, capsys):
        code = main(
            ["lab", "merge", str(tmp_path / "nowhere"),
             "--root", str(tmp_path / "lab")]
        )
        assert code == 2
        assert "no lab root" in capsys.readouterr().err

    def test_merge_into_itself_exits_two(self, tmp_path, capsys):
        root = str(tmp_path / "lab")
        main(["lab", "run", "--ids", "E01", "--jobs", "1", "--root", root])
        capsys.readouterr()
        assert main(["lab", "merge", root, "--root", root]) == 2
        assert "into itself" in capsys.readouterr().err

    def test_merge_then_status_sees_the_artifacts(self, tmp_path, capsys):
        primary = str(tmp_path / "primary")
        detached = str(tmp_path / "detached")
        main(["lab", "run", "--ids", "E01", "--jobs", "1", "--root", detached])
        capsys.readouterr()
        assert main(["lab", "merge", detached, "--root", primary]) == 0
        out = capsys.readouterr().out
        assert "1 artifact(s) imported" in out
        assert main(["lab", "status", "--root", primary]) == 0
        assert "cached:   1/" in capsys.readouterr().out

    def test_diff_across_merged_runs(self, tmp_path, capsys):
        """The spool workflow end-to-end: two roots, merge, lab diff."""
        import re

        root_a = str(tmp_path / "a")
        root_b = str(tmp_path / "b")
        merged = str(tmp_path / "merged")
        run_ids = []
        for root in (root_a, root_b):
            main(["lab", "run", "--ids", "E01,S-t", "--backend", "serial",
                  "--force", "--root", root])
            match = re.search(r"^run (\S+):", capsys.readouterr().out, re.M)
            assert match is not None
            run_ids.append(match.group(1))
        assert main(["lab", "merge", root_a, "--root", merged]) == 0
        assert main(["lab", "merge", root_b, "--root", merged]) == 0
        capsys.readouterr()
        assert main(["lab", "diff", run_ids[0], run_ids[1],
                     "--root", merged]) == 0
        assert "runs are identical" in capsys.readouterr().out


class TestLabSweepOutput:
    def test_output_line_counts_rows_not_design_points(self, tmp_path, capsys):
        """A repeated axis value gives the table more rows than the run
        has design points; ``--output`` reports the rows it wrote."""
        grid = json.loads(UNMATCHED_GRID.read_text())
        grid["axes"]["workload.params.stride"] = [3, 3, 24]
        grid_path = tmp_path / "g.json"
        grid_path.write_text(json.dumps(grid))
        table = tmp_path / "t.md"
        assert main(["lab", "sweep", str(grid_path), "--backend", "serial",
                     "--output", str(table),
                     "--root", str(tmp_path / "lab")]) == 0
        out = capsys.readouterr().out
        assert f"wrote {table} (6 rows)\n" in out
        assert ": 4 design points, 0 cache hits, 0 failed" in out
        lines = table.read_text().splitlines()
        rule = next(
            index for index, line in enumerate(lines)
            if line and set(line) <= {"-", " "}
        )
        assert len(lines[rule + 1:]) == 6
