"""Tests for the filesystem-spool sharding protocol.

Covers the wire format (JobSpec JSON round-trips, including whole
program-scenario specs), atomic claiming, worker execution, the
coordinator's stale-claim requeue (crash injection: a worker that
claims a job and dies), and the worker serve loop.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.lab.backends import JobFailure
from repro.lab.executor import run_jobs
from repro.lab.jobs import build_registry, experiment_spec, scenario_jobs
from repro.lab.spool import (
    CLOSED_MARKER,
    SpoolBackend,
    SpoolError,
    SpoolRun,
    claim_next,
    execute_claim,
    job_from_json,
    job_to_json,
    serve,
)
from repro.lab.store import ArtifactStore

FAST_JOBS = ("E01", "E02", "S-lambda", "S-t")


def fast_specs():
    registry = build_registry()
    return [registry[job_id] for job_id in FAST_JOBS]


class TestWireFormat:
    def test_registry_specs_round_trip(self):
        for spec in build_registry().values():
            restored = job_from_json(job_to_json(spec))
            assert restored == spec
            assert restored.config_hash() == spec.config_hash()

    def test_parameterised_experiment_round_trips(self):
        spec = experiment_spec("E03", lambda_exponent=8, t=4)
        restored = job_from_json(job_to_json(spec))
        assert restored == spec
        assert restored.config_hash() == spec.config_hash()

    def test_program_scenario_spec_round_trips(self):
        from repro.scenarios import load_scenarios

        text = Path("examples/scenario_daxpy_program.json").read_text()
        [spec] = scenario_jobs(load_scenarios(text))
        restored = job_from_json(job_to_json(spec))
        assert restored == spec
        assert restored.config_hash() == spec.config_hash()
        # The embedded scenario JSON survives verbatim.
        assert dict(restored.params)["spec"] == dict(spec.params)["spec"]

    def test_restored_spec_executes_identically(self):
        from repro.lab.jobs import execute_job

        spec = build_registry()["S-t"]
        original = execute_job(spec)
        restored = execute_job(job_from_json(job_to_json(spec)))
        assert original["rows"] == restored["rows"]
        assert original["checks"] == restored["checks"]

    @pytest.mark.parametrize(
        "text",
        [
            "GARBAGE{",
            "[1,2,3]",
            '{"job_id": "E01"}',
            '{"job_id": "E01", "kind": "experiment", "title": "t", '
            '"params": [["k", {"nested": "dict"}]]}',
        ],
    )
    def test_junk_raises_spool_error(self, text):
        with pytest.raises(SpoolError):
            job_from_json(text)


class TestClaiming:
    def test_claim_moves_exactly_one_pending_file(self, tmp_path):
        spool = SpoolRun(tmp_path / "run")
        spool.create()
        published = spool.publish(fast_specs()[:2])
        assert len(published) == 2
        claim = claim_next(spool.root)
        assert claim is not None
        assert claim.parent == spool.claimed_dir
        assert len(list(spool.pending_dir.glob("*.json"))) == 1
        second = claim_next(spool.root)
        assert second is not None and second != claim
        assert claim_next(spool.root) is None

    def test_claim_on_missing_dir_is_none(self, tmp_path):
        assert claim_next(tmp_path / "nowhere") is None

    def test_execute_claim_writes_done_and_drops_claim(self, tmp_path):
        spool = SpoolRun(tmp_path / "run")
        spool.create()
        spool.publish([build_registry()["S-t"]])
        claim = claim_next(spool.root)
        job_id = execute_claim(spool.root, claim, heartbeat=0.05)
        assert job_id == "S-t"
        assert not claim.exists()
        done = list(spool.done_dir.glob("*.json"))
        assert len(done) == 1
        body = json.loads(done[0].read_text())
        assert body["job_id"] == "S-t"
        assert body["payload"]["all_passed"] is True

    def test_execute_claim_on_vanished_file_returns_none(self, tmp_path):
        spool = SpoolRun(tmp_path / "run")
        spool.create()
        missing = spool.claimed_dir / "0000__gone.json"
        assert execute_claim(spool.root, missing) is None

    def test_corrupt_spooled_job_becomes_failure_not_worker_crash(
        self, tmp_path
    ):
        spool = SpoolRun(tmp_path / "run")
        spool.create()
        (spool.pending_dir / "0000__bad.json").write_text("GARBAGE{")
        claim = claim_next(spool.root)
        assert execute_claim(spool.root, claim) is None
        body = json.loads((spool.done_dir / "0000__bad.json").read_text())
        assert "failure" in body


class TestStaleRequeue:
    def test_fresh_claims_stay_put(self, tmp_path):
        spool = SpoolRun(tmp_path / "run")
        spool.create()
        spool.publish(fast_specs()[:1])
        claim_next(spool.root)
        assert spool.requeue_stale(stale_after=60.0) == []
        assert len(list(spool.claimed_dir.glob("*.json"))) == 1

    def test_a_claim_is_fresh_however_long_its_job_waited(self, tmp_path):
        # Rename keeps mtime: a job that sat in pending/ for an hour (or
        # came back from a dead worker) must not be claimed stale.
        spool = SpoolRun(tmp_path / "run")
        spool.create()
        spool.publish(fast_specs()[:1])
        (pending,) = spool.pending_dir.glob("*.json")
        past = time.time() - 3600
        os.utime(pending, (past, past))
        claim = claim_next(spool.root)
        assert spool.requeue_stale(stale_after=60.0) == []
        assert claim.exists()

    def test_dead_claims_are_requeued(self, tmp_path):
        spool = SpoolRun(tmp_path / "run")
        spool.create()
        spool.publish(fast_specs()[:1])
        claim = claim_next(spool.root)
        past = time.time() - 3600
        os.utime(claim, (past, past))
        requeued = spool.requeue_stale(stale_after=1.0)
        assert requeued == [claim.name]
        assert not claim.exists()
        assert (spool.pending_dir / claim.name).is_file()

    def test_done_claims_are_never_requeued(self, tmp_path):
        spool = SpoolRun(tmp_path / "run")
        spool.create()
        spool.publish(fast_specs()[:1])
        claim = claim_next(spool.root)
        name = claim.name
        execute_claim(spool.root, claim)
        # Simulate the claim file lingering (crash after the done write).
        (spool.claimed_dir / name).write_text("leftover")
        past = time.time() - 3600
        os.utime(spool.claimed_dir / name, (past, past))
        assert spool.requeue_stale(stale_after=1.0) == []

    def test_coordinator_clock_ahead_does_not_requeue_live_claims(
        self, tmp_path, monkeypatch
    ):
        # Regression: claim ages were measured against the coordinator's
        # time.time(), so a coordinator clock running ahead of the spool
        # filesystem's clock (NFS server, drifted container) requeued
        # every live claim the moment it was made.
        import repro.lab.spool as spool_module

        spool = SpoolRun(tmp_path / "run")
        spool.create()
        spool.publish(fast_specs()[:1])
        claim = claim_next(spool.root)
        real_time = time.time
        monkeypatch.setattr(
            spool_module.time, "time", lambda: real_time() + 3600.0
        )
        assert spool.requeue_stale(stale_after=60.0) == []
        assert claim.exists()

    def test_coordinator_clock_behind_still_requeues_dead_claims(
        self, tmp_path, monkeypatch
    ):
        # The mirror failure: a coordinator clock running behind the
        # spool's clock computed negative ages and stranded dead
        # workers' claims forever.
        import repro.lab.spool as spool_module

        spool = SpoolRun(tmp_path / "run")
        spool.create()
        spool.publish(fast_specs()[:1])
        claim = claim_next(spool.root)
        past = time.time() - 120
        os.utime(claim, (past, past))
        real_time = time.time
        monkeypatch.setattr(
            spool_module.time, "time", lambda: real_time() - 3600.0
        )
        assert spool.requeue_stale(stale_after=60.0) == [claim.name]
        assert (spool.pending_dir / claim.name).is_file()

    def test_spool_now_falls_back_to_local_clock(self, tmp_path):
        # An unwritable spool root cannot host the probe; the local
        # clock is the only clock left.
        spool = SpoolRun(tmp_path / "gone")
        before = time.time()
        now = spool._spool_now()
        assert abs(now - before) < 60.0


class TestCrashInjection:
    def test_dead_worker_claim_is_requeued_and_batch_completes(self, tmp_path):
        """A worker claims a job and dies; the batch still converges.

        Deterministic sequence: the coordinator publishes but does not
        participate, so the "dead worker" (this test) is guaranteed to
        win the first claim.  It never heartbeats and never writes a
        result; the coordinator requeues the stale claim and a real
        worker — started only after the death — finishes the batch.
        """
        store = ArtifactStore(tmp_path / "lab")
        spool_dir = tmp_path / "spool"
        backend = SpoolBackend(
            spool_dir,
            participate=False,
            poll_interval=0.01,
            stale_after=0.3,
            timeout=120,
        )
        reports = {}

        def coordinate():
            reports["report"] = run_jobs(
                fast_specs(), store=store, backend=backend
            )

        thread = threading.Thread(target=coordinate)
        thread.start()
        try:
            # Act as the dying worker: claim the first published job.
            deadline = time.monotonic() + 30
            claim = None
            while claim is None and time.monotonic() < deadline:
                for run_root in spool_dir.glob("*"):
                    claim = claim_next(run_root)
                    if claim is not None:
                        break
                else:
                    time.sleep(0.01)
            assert claim is not None, "no job ever became claimable"
            # ...and die: no heartbeat, no done file.  Freeze the claim's
            # mtime in the past so it is immediately stale.
            past = time.time() - 3600
            os.utime(claim, (past, past))

            # Stop the real worker once the coordinator has collected
            # everything (instead of waiting out max_idle).
            def stop_when_collected():
                thread.join()
                (spool_dir / "STOP").touch()

            threading.Thread(target=stop_when_collected, daemon=True).start()
            # A real worker now serves the spool: it drains the three
            # still-pending jobs plus the requeued stale one.
            stats = serve(
                spool_dir, poll=0.01, max_idle=60, heartbeat=0.1
            )
            assert stats.executed == len(FAST_JOBS)
        finally:
            thread.join(timeout=120)
        assert not thread.is_alive()
        report = reports["report"]
        assert report.all_passed
        assert report.executed == len(FAST_JOBS)
        assert [o.spec.job_id for o in report.outcomes] == sorted(FAST_JOBS)

    def test_timeout_raises_instead_of_hanging(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        backend = SpoolBackend(
            tmp_path / "spool",
            participate=False,
            poll_interval=0.01,
            timeout=0.2,
        )
        with pytest.raises(SpoolError, match="timed out"):
            run_jobs(fast_specs()[:1], store=store, backend=backend)

    def test_unreadable_done_file_fails_the_job_not_the_batch(self, tmp_path):
        from repro.lab.spool import _completion

        assert _completion(None) == JobFailure(
            "worker wrote an unreadable done file"
        )
        assert _completion({"no": "payload"}) == JobFailure(
            "worker done file carries no payload"
        )


class TestWorkers:
    def test_two_workers_share_a_16_job_batch(self, tmp_path, stored_results):
        """Acceptance: 16 jobs, two concurrent workers, batch completes."""
        specs = [
            experiment_spec("E03", lambda_exponent=exp, t=t)
            for exp in (5, 6, 7, 8)
            for t in (1, 2, 3, 4)
        ]
        assert len(specs) == 16
        store = ArtifactStore(tmp_path / "lab")
        spool_dir = tmp_path / "spool"
        workers = [
            threading.Thread(
                target=serve,
                args=(spool_dir,),
                kwargs={"poll": 0.01, "max_idle": 60, "heartbeat": 0.1},
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        try:
            report = run_jobs(
                specs,
                store=store,
                backend=SpoolBackend(
                    spool_dir, poll_interval=0.01, timeout=120
                ),
            )
        finally:
            (spool_dir / "STOP").touch()
            for worker in workers:
                worker.join(timeout=120)
        assert report.all_passed
        assert report.executed == 16
        assert len({o.record["config_hash"] for o in report.outcomes}) == 16
        # Acceptance: the spooled batch's report is byte-identical to a
        # serial run of the same 16 jobs on a fresh store, and so are the
        # results both stores hold.
        from repro.lab.manifest import render_lab_report

        serial_store = ArtifactStore(tmp_path / "serial-lab")
        serial = run_jobs(specs, store=serial_store, backend="serial")
        assert render_lab_report(report.outcomes, "PINNED") == render_lab_report(
            serial.outcomes, "PINNED"
        )
        assert stored_results(store, report.outcomes) == stored_results(
            serial_store, serial.outcomes
        )

    def test_serve_once_on_empty_dir(self, tmp_path):
        stats = serve(tmp_path / "empty", once=True)
        assert stats.executed == 0

    def test_serve_once_drains_an_open_run(self, tmp_path):
        spool = SpoolRun(tmp_path / "spool" / "run-1")
        spool.create()
        spool.publish(fast_specs()[:2])
        lines: list[str] = []
        stats = serve(
            tmp_path / "spool", poll=0.01, once=True, progress=lines.append
        )
        assert stats.executed == 2
        assert len(lines) == 2
        assert len(list(spool.done_dir.glob("*.json"))) == 2

    def test_serve_exits_when_only_abandoned_runs_remain(self, tmp_path):
        """A lingering CLOSED run means a dead coordinator: don't serve it."""
        spool = SpoolRun(tmp_path / "spool" / "run-1")
        spool.create()
        spool.publish(fast_specs()[:2])
        spool.close()
        started = time.monotonic()
        stats = serve(tmp_path / "spool", poll=0.01)
        assert time.monotonic() - started < 30
        # Nothing was claimed: the results could never be collected.
        assert stats.executed == 0
        assert len(list(spool.pending_dir.glob("*.json"))) == 2

    def test_serve_max_idle_bounds_waiting(self, tmp_path):
        started = time.monotonic()
        stats = serve(tmp_path / "never-created", poll=0.01, max_idle=0.1)
        assert stats.executed == 0
        assert time.monotonic() - started < 5

    def test_serve_max_jobs_is_a_deterministic_bound(self, tmp_path):
        """`--max-jobs N` exits after exactly N executions, mid-run."""
        spool = SpoolRun(tmp_path / "spool" / "run-1")
        spool.create()
        spool.publish(fast_specs()[:3])
        stats = serve(tmp_path / "spool", poll=0.01, max_jobs=2)
        assert stats.executed == 2
        # The third job is still claimable for the next worker.
        assert len(list(spool.pending_dir.glob("*.json"))) == 1
        assert len(list(spool.done_dir.glob("*.json"))) == 2

    def test_serve_max_jobs_beats_the_idle_timeout(self, tmp_path):
        """The bound fires on the Nth execution, not on going idle."""
        spool = SpoolRun(tmp_path / "spool" / "run-1")
        spool.create()
        spool.publish(fast_specs()[:2])
        stats = serve(
            tmp_path / "spool", poll=0.01, max_idle=120, max_jobs=2
        )
        # With pending work exhausted exactly at the bound, the worker
        # exits immediately instead of idling out the 120 seconds.
        assert stats.executed == 2

    def test_worker_reports_failures_via_done_files(self, tmp_path, monkeypatch):
        from repro.report.experiments import ALL_EXPERIMENTS

        def explode():
            raise RuntimeError("worker-side crash")

        explode.__doc__ = "Explodes."
        monkeypatch.setitem(ALL_EXPERIMENTS, "E01", explode)
        spool = SpoolRun(tmp_path / "run")
        spool.create()
        spool.publish([build_registry()["E01"]])
        stats = serve(spool.root, poll=0.01, once=True)
        assert stats.executed == 1
        body = json.loads(next(spool.done_dir.glob("*.json")).read_text())
        assert body["failure"] == "RuntimeError: worker-side crash"

    def test_closed_marker(self, tmp_path):
        spool = SpoolRun(tmp_path / "run")
        spool.create()
        assert not spool.closed
        spool.close()
        assert spool.closed
        assert (spool.root / CLOSED_MARKER).exists()

    def test_successful_batch_destroys_its_spool_run(self, tmp_path):
        """Spool state is transient: a collected batch leaves no run dir,
        so the same workers can serve the next batch."""
        store = ArtifactStore(tmp_path / "lab")
        spool_dir = tmp_path / "spool"
        backend = SpoolBackend(
            spool_dir, participate=True, poll_interval=0.01, timeout=120
        )
        run_jobs(fast_specs()[:2], store=store, backend=backend)
        assert list(spool_dir.glob("*")) == []

    def test_worker_serves_two_consecutive_batches(self, tmp_path):
        """The regression the manual drive caught: a worker must survive
        batch 1 completing and go on to serve batch 2."""
        store = ArtifactStore(tmp_path / "lab")
        spool_dir = tmp_path / "spool"
        worker = threading.Thread(
            target=serve,
            args=(spool_dir,),
            kwargs={"poll": 0.01, "max_idle": 30, "heartbeat": 0.1},
        )
        worker.start()
        try:
            backend = SpoolBackend(spool_dir, poll_interval=0.01, timeout=120)
            first = run_jobs(
                fast_specs()[:2], store=store, backend=backend
            )
            second = run_jobs(
                fast_specs()[2:], store=store, backend=backend
            )
        finally:
            (spool_dir / "STOP").touch()
            worker.join(timeout=120)
        assert not worker.is_alive()
        assert first.all_passed and second.all_passed
        assert first.executed == 2 and second.executed == 2
