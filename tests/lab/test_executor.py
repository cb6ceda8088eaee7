"""Tests for the cache-aware parallel executor."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lab.executor import default_worker_count, run_jobs
from repro.lab.jobs import build_registry
from repro.lab.manifest import read_manifests
from repro.lab.store import ArtifactStore

FAST_JOBS = ("E01", "E02", "S-lambda", "S-t")
SRC = str(Path(__file__).resolve().parents[2] / "src")


def fast_specs():
    registry = build_registry()
    return [registry[job_id] for job_id in FAST_JOBS]


class TestRunJobs:
    def test_parallel_then_fully_cached(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        first = run_jobs(fast_specs(), store=store, workers=2)
        assert first.cache_hits == 0
        assert first.executed == len(FAST_JOBS)
        assert first.all_passed

        second = run_jobs(fast_specs(), store=store, workers=2)
        assert second.cache_hits == len(FAST_JOBS)
        assert second.executed == 0
        # Cached records carry the exact same tables.
        for before, after in zip(first.outcomes, second.outcomes):
            assert before.record["rows"] == after.record["rows"]
            assert before.record["config_hash"] == after.record["config_hash"]

    def test_deterministic_job_id_order(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        specs = list(reversed(fast_specs()))
        report = run_jobs(specs, store=store, workers=2)
        assert [o.spec.job_id for o in report.outcomes] == sorted(FAST_JOBS)

    def test_serial_matches_parallel(self, tmp_path):
        parallel_store = ArtifactStore(tmp_path / "parallel")
        serial_store = ArtifactStore(tmp_path / "serial")
        parallel = run_jobs(fast_specs(), store=parallel_store, workers=2)
        serial = run_jobs(fast_specs(), store=serial_store, workers=1)
        for left, right in zip(parallel.outcomes, serial.outcomes):
            assert left.record["rows"] == right.record["rows"]
            assert left.record["checks"] == right.record["checks"]

    def test_force_re_executes(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        run_jobs(fast_specs()[:1], store=store, workers=1)
        forced = run_jobs(fast_specs()[:1], store=store, workers=1, force=True)
        assert forced.cache_hits == 0
        assert forced.executed == 1

    def test_partial_cache_resumes(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        run_jobs(fast_specs()[:2], store=store, workers=1)
        report = run_jobs(fast_specs(), store=store, workers=2)
        assert report.cache_hits == 2
        assert report.executed == 2

    def test_progress_lines(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        lines: list[str] = []
        run_jobs(fast_specs()[:2], store=store, workers=1, progress=lines.append)
        assert len(lines) == 2
        assert all("PASS" in line for line in lines)
        cached_lines: list[str] = []
        run_jobs(
            fast_specs()[:2], store=store, workers=1, progress=cached_lines.append
        )
        assert all("[cached]" in line for line in cached_lines)

    def test_runs_are_recorded(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        report = run_jobs(fast_specs()[:2], store=store, workers=1)
        runs = read_manifests(store)
        assert len(runs) == 1
        assert runs[0]["run_id"] == report.run_id
        assert runs[0]["job_count"] == 2


class TestRaisingJobs:
    def test_raising_job_is_a_failed_outcome_not_a_crash(
        self, tmp_path, monkeypatch
    ):
        from repro.report.experiments import ALL_EXPERIMENTS

        def explode():
            raise RuntimeError("simulator blew up")

        explode.__doc__ = "Explodes."
        monkeypatch.setitem(ALL_EXPERIMENTS, "E01", explode)
        store = ArtifactStore(tmp_path / "lab")
        report = run_jobs(
            [build_registry()["E01"], build_registry()["E02"]],
            store=store,
            workers=1,
        )
        assert not report.all_passed
        assert [o.spec.job_id for o in report.failures] == ["E01"]
        failed = report.outcomes[0].record
        assert "RuntimeError: simulator blew up" in failed["checks"][0]["measured"]
        # The failure is not cached — and E02 still completed and cached.
        assert store.load(build_registry()["E01"].config_hash()) is None
        assert store.load(build_registry()["E02"].config_hash()) is not None
        # The run is still recorded despite the crash.
        assert len(read_manifests(store)) == 1

    def test_raising_job_retries_on_next_run(self, tmp_path, monkeypatch):
        from repro.report.experiments import ALL_EXPERIMENTS

        def explode():
            raise RuntimeError("transient")

        explode.__doc__ = "Explodes."
        monkeypatch.setitem(ALL_EXPERIMENTS, "E01", explode)
        store = ArtifactStore(tmp_path / "lab")
        spec = build_registry()["E01"]
        assert not run_jobs([spec], store=store, workers=1).all_passed
        monkeypatch.undo()
        healed = run_jobs([spec], store=store, workers=1)
        assert healed.all_passed
        assert healed.executed == 1


class TestDefaults:
    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1


class TestRunIds:
    def test_run_id_embeds_pid(self, tmp_path):
        """Concurrent coordinators can't collide: the PID is in the id."""
        import os

        store = ArtifactStore(tmp_path / "lab")
        report = run_jobs(fast_specs()[:1], store=store, workers=1)
        assert f"-p{os.getpid()}-" in report.run_id

    def test_run_ids_unique_within_process(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        ids = {
            run_jobs(fast_specs()[:1], store=store, workers=1).run_id
            for _ in range(3)
        }
        assert len(ids) == 3

    def test_caller_supplied_run_id_is_honoured(self, tmp_path):
        """Submit-without-block front ends name the run before executing."""
        from repro.lab.executor import new_run_id

        store = ArtifactStore(tmp_path / "lab")
        promised = new_run_id()
        report = run_jobs(
            fast_specs()[:1],
            store=store,
            backend="serial",
            run_id=promised,
        )
        assert report.run_id == promised
        assert report.outcomes[0].record["run_id"] == promised
        assert promised in {run["run_id"] for run in read_manifests(store)}


class TestBackendParameter:
    def test_serial_backend_by_name(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        report = run_jobs(fast_specs(), store=store, backend="serial")
        assert report.all_passed
        assert report.executed == len(FAST_JOBS)

    def test_backend_instance(self, tmp_path):
        from repro.lab.backends import SerialBackend

        store = ArtifactStore(tmp_path / "lab")
        report = run_jobs(fast_specs()[:2], store=store, backend=SerialBackend())
        assert report.all_passed

    def test_unknown_backend_name_raises(self, tmp_path):
        from repro.lab.backends import UnknownBackendError

        store = ArtifactStore(tmp_path / "lab")
        with pytest.raises(UnknownBackendError):
            run_jobs(fast_specs()[:1], store=store, backend="quantum")

    def test_fully_cached_batch_never_touches_the_backend(self, tmp_path):
        """A 100%-hit batch must not spin up (or hang on) any backend."""

        class ExplodingBackend:
            name = "exploding"

            def run(self, pending, *, run_id):
                raise AssertionError("backend invoked for a cached batch")
                yield  # pragma: no cover - makes this a generator

        store = ArtifactStore(tmp_path / "lab")
        run_jobs(fast_specs()[:2], store=store, workers=1)
        report = run_jobs(
            fast_specs()[:2], store=store, backend=ExplodingBackend()
        )
        assert report.cache_hits == 2


class TestIndexTransactions:
    """A store holds one connection to its index for its life."""

    def test_cold_run_connects_to_the_index_once(self, tmp_path, sqlite_connects):
        from repro.lab.jobs import scenario_jobs
        from repro.scenarios import load_grid

        grid = Path(__file__).resolve().parents[2] / "examples" / (
            "scenario_program_grid_64.json"
        )
        jobs = scenario_jobs(load_grid(grid.read_text()).expand())
        assert len(jobs) == 64
        store = ArtifactStore(tmp_path / "lab")
        report = run_jobs(jobs, store=store, backend="serial")
        assert report.executed == 64
        assert sqlite_connects.connects == 1
        assert len(store.results()) == 64
        assert [run["run_id"] for run in read_manifests(store)] == [report.run_id]


#: Sweeps the grid in its argv and stops its own process after three
#: results, by SIGKILL or by an interrupt: deterministic, no timer race.
DYING_SWEEP = """
import os, signal, sys
from pathlib import Path
from repro.lab import ArtifactStore, execute_job, run_jobs, scenario_jobs
from repro.scenarios import load_grid

grid, root, how = sys.argv[1:]
jobs = scenario_jobs(load_grid(Path(grid).read_text()).expand())

class DyingBackend:
    name = "dying"

    def run(self, pending, *, run_id):
        for spec in pending[:3]:
            yield spec, execute_job(spec)
        if how == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        raise KeyboardInterrupt

run_jobs(jobs, store=ArtifactStore(root), backend=DyingBackend())
"""


class TestKilledRun:
    @pytest.mark.parametrize("how", ["sigkill", "interrupt"])
    def test_killed_run_keeps_every_finished_result(self, tmp_path, how):
        from repro.cli import main
        from repro.lab.jobs import scenario_jobs
        from repro.scenarios import load_grid

        grid = Path(__file__).resolve().parents[2] / "examples" / (
            "scenario_unmatched_grid.json"
        )
        root = tmp_path / "lab"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.run(
            [sys.executable, "-c", DYING_SWEEP, str(grid), str(root), how],
            env=env,
            capture_output=True,
            timeout=120,
        )
        if how == "sigkill":
            assert process.returncode == -signal.SIGKILL
        else:
            assert process.returncode != 0
            assert b"KeyboardInterrupt" in process.stderr
        store = ArtifactStore(root)
        rows = store.results()
        assert len(rows) == 3
        for row in rows:
            assert store.load(row["config_hash"])["config_hash"] == row["config_hash"]
        assert read_manifests(store) == []
        assert main(["lab", "index", "--verify", "--root", str(root)]) == 0
        jobs = scenario_jobs(load_grid(grid.read_text()).expand())
        report = run_jobs(jobs, store=store, backend="serial")
        assert (report.cache_hits, report.executed) == (3, len(jobs) - 3)
        assert len(store.results()) == len(jobs)
        store.close()
