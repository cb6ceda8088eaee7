"""Backend-equivalence suite: serial, pool and spool are indistinguishable.

The executor's contract is that a backend decides *where* jobs run and
nothing else — same batch, same store state, byte-identical rendered
reports.  These tests pin that across all three shipped backends, plus
the resolution rules and the failure-reporting contract.
"""

from __future__ import annotations

import pytest

from repro.lab.backends import (
    BACKEND_NAMES,
    ExecutorBackend,
    JobFailure,
    ProcessPoolBackend,
    SerialBackend,
    UnknownBackendError,
    describe_error,
    resolve_backend,
)
from repro.lab.executor import run_jobs
from repro.lab.jobs import build_registry
from repro.lab.manifest import render_lab_report
from repro.lab.spool import SpoolBackend
from repro.lab.store import ArtifactStore

FAST_JOBS = ("E01", "E02", "S-lambda", "S-t")


def fast_specs():
    registry = build_registry()
    return [registry[job_id] for job_id in FAST_JOBS]


def make_backend(name: str, tmp_path):
    """One fresh instance of each shipped backend, spool self-serving."""
    if name == "serial":
        return SerialBackend()
    if name == "pool":
        return ProcessPoolBackend(2)
    return SpoolBackend(
        tmp_path / "spool", participate=True, poll_interval=0.01, timeout=60
    )


class TestBackendEquivalence:
    def test_reports_byte_identical_across_backends(
        self, tmp_path, stored_results
    ):
        rendered = {}
        records = {}
        for name in BACKEND_NAMES:
            store = ArtifactStore(tmp_path / name / "lab")
            report = run_jobs(
                fast_specs(),
                store=store,
                backend=make_backend(name, tmp_path / name),
            )
            assert report.all_passed, name
            assert report.cache_hits == 0
            assert report.executed == len(FAST_JOBS)
            assert [o.spec.job_id for o in report.outcomes] == sorted(FAST_JOBS)
            # Render with a pinned run id: everything else in the report
            # must be byte-identical no matter which backend executed.
            rendered[name] = render_lab_report(report.outcomes, "PINNED")
            # The results themselves live only in the store.
            records[name] = stored_results(store, report.outcomes)
        assert rendered["serial"] == rendered["pool"] == rendered["spool"]
        assert records["serial"] == records["pool"] == records["spool"]

    def test_written_report_md_identical_modulo_run_id(self, tmp_path):
        bodies = {}
        for name in ("serial", "spool"):
            store = ArtifactStore(tmp_path / name / "lab")
            report = run_jobs(
                fast_specs(),
                store=store,
                backend=make_backend(name, tmp_path / name),
            )
            run_dir = store.runs_dir / report.run_id
            lines = (run_dir / "report.md").read_text().splitlines()
            assert report.run_id in lines[0]
            bodies[name] = "\n".join(lines[1:])
        assert bodies["serial"] == bodies["spool"]

    def test_spool_artifacts_content_identical_to_serial(self, tmp_path):
        hashes = {}
        for name in ("serial", "spool"):
            store = ArtifactStore(tmp_path / name / "lab")
            run_jobs(
                fast_specs(),
                store=store,
                backend=make_backend(name, tmp_path / name),
            )
            hashes[name] = sorted(row["config_hash"] for row in store.results())
        # Content addressing: identical results => identical addresses.
        assert hashes["serial"] == hashes["spool"]

    def test_cross_backend_cache_hits(self, tmp_path):
        """Artifacts written by one backend are cache hits for another."""
        store = ArtifactStore(tmp_path / "lab")
        first = run_jobs(fast_specs(), store=store, backend="serial")
        assert first.executed == len(FAST_JOBS)
        second = run_jobs(
            fast_specs(),
            store=store,
            backend=SpoolBackend(
                tmp_path / "spool", participate=True, poll_interval=0.01
            ),
        )
        assert second.cache_hits == len(FAST_JOBS)
        assert second.executed == 0


class TestFailureContract:
    def test_serial_backend_yields_jobfailure(self, monkeypatch):
        from repro.report.experiments import ALL_EXPERIMENTS

        def explode():
            raise RuntimeError("simulator blew up")

        explode.__doc__ = "Explodes."
        monkeypatch.setitem(ALL_EXPERIMENTS, "E01", explode)
        completions = dict(
            SerialBackend().run(
                [build_registry()["E01"], build_registry()["E02"]], run_id="r"
            )
        )
        results = {spec.job_id: result for spec, result in completions.items()}
        assert results["E01"] == JobFailure("RuntimeError: simulator blew up")
        assert isinstance(results["E02"], dict)
        assert results["E02"]["all_passed"]

    def test_describe_error_is_the_canonical_rendering(self):
        assert describe_error(ValueError("bad")) == JobFailure("ValueError: bad")

    def test_run_jobs_failed_outcome_identical_across_backends(
        self, tmp_path, monkeypatch
    ):
        from repro.report.experiments import ALL_EXPERIMENTS

        def explode():
            raise RuntimeError("boom")

        explode.__doc__ = "Explodes."
        monkeypatch.setitem(ALL_EXPERIMENTS, "E01", explode)
        spec = build_registry()["E01"]
        measured = {}
        # pool is excluded: subprocess workers don't see the monkeypatch.
        for name in ("serial", "spool"):
            store = ArtifactStore(tmp_path / name / "lab")
            report = run_jobs(
                [spec], store=store, backend=make_backend(name, tmp_path / name)
            )
            assert not report.all_passed
            check = report.outcomes[0].record["checks"][0]
            measured[name] = check["measured"]
            # Failures are never cached, whichever backend reported them.
            assert store.load(spec.config_hash()) is None
        assert measured["serial"] == measured["spool"] == "RuntimeError: boom"


class TestResolveBackend:
    def test_none_is_the_pool_default(self):
        backend = resolve_backend(None, workers=3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.workers == 3

    def test_names_resolve(self, tmp_path):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("pool"), ProcessPoolBackend)
        spool = resolve_backend("spool", store=ArtifactStore(tmp_path / "lab"))
        assert isinstance(spool, SpoolBackend)
        assert spool.spool_dir == tmp_path / "lab" / "spool"

    def test_instances_pass_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownBackendError, match="unknown backend"):
            resolve_backend("carrier-pigeon")

    def test_spool_without_store_raises(self):
        with pytest.raises(UnknownBackendError, match="needs a store"):
            resolve_backend("spool")

    def test_pool_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ProcessPoolBackend(0)

    def test_all_shipped_backends_satisfy_the_protocol(self, tmp_path):
        for name in BACKEND_NAMES:
            assert isinstance(
                make_backend(name, tmp_path), ExecutorBackend
            ), name
