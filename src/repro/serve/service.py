"""The service layer: everything the HTTP routes can ask for.

:class:`LabService` owns the artifact store, the background
:class:`~repro.serve.queue.SubmissionQueue` and the request counters.
Routes call exactly one service method per request and serialize
whatever comes back; the service never sees a socket.

Execution rides the existing lab machinery end to end: specs become
jobs through :func:`~repro.lab.jobs.scenario_jobs` (the submit gate,
run once per request), batches run through
:func:`repro.lab.executor.run_jobs` (serial, process pool, or the
filesystem spool — with ``--backend spool`` this service is a thin
coordinator over any number of ``repro lab worker`` hosts), results
land in the content-addressed store, and every finished batch writes
the same ``runs/<run-id>/manifest.json`` a CLI run would.
``/v1/history/<metric>`` reads the store's manifests and results on
each request (:func:`repro.obs.history.read_history`), so its trends
include every run that has finished, from this service or any other
writer of the root.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.lab.executor import new_run_id, one_job_per_id, run_jobs
from repro.lab.jobs import scenario_jobs
from repro.lab.store import ArtifactStore
from repro.obs.history import metric_direction, read_history
from repro.serve import schemas
from repro.serve.errors import NotFoundError
from repro.serve.queue import Submission, SubmissionQueue

__all__ = ["LabService", "ServiceCounters"]


class ServiceCounters:
    """Thread-safe monotonic counters behind ``/v1/metrics``."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}

    def bump(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + amount

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(sorted(self._counts.items()))


class LabService:
    """Submissions, run state, cached results, history, metrics."""

    def __init__(
        self,
        store: ArtifactStore,
        *,
        backend_factory: Callable[[], object] | None = None,
        run_workers: int | None = None,
        queue_workers: int | None = None,
    ):
        self.store = store
        # A fresh backend per batch: spool backends carry per-run
        # counter state, so concurrent batches must never share one.
        self._backend_factory = backend_factory
        self._run_workers = run_workers
        self.counters = ServiceCounters()
        self.started_at = time.monotonic()
        self._runs: dict[str, Submission] = {}
        self._runs_lock = threading.Lock()
        self.queue = SubmissionQueue(self._execute, workers=queue_workers)

    # -- submission ------------------------------------------------------

    def submit(self, raw: bytes) -> dict:
        """``POST /v1/runs``: parse, enqueue, return the run's first state.

        The run id comes from the same generator CLI runs use, but is
        allocated *here* — before execution — so the response can name
        the run the background batch will record.  Parsing and static
        lint run first: a rejected submission counts in
        ``runs_rejected`` and never allocates (so never leaks) a run id.
        """
        try:
            specs = schemas.parse_run_request(raw)
            jobs = one_job_per_id(
                scenario_jobs(specs, source="POST /v1/runs")
            )
        except Exception:
            self.counters.bump("runs_rejected")
            raise
        hashes = {job.job_id: job.config_hash() for job in jobs}
        submission = Submission(
            run_id=new_run_id(),
            jobs=jobs,
            hashes=hashes,
            signature=tuple(sorted(hashes.values())),
            created_at=schemas.utc_now(),
        )
        with self._runs_lock:
            self._runs[submission.run_id] = submission
        try:
            self.queue.submit(submission)
        except Exception:
            with self._runs_lock:
                self._runs.pop(submission.run_id, None)
            raise
        self.counters.bump("runs_submitted")
        if submission.follows:
            self.counters.bump("runs_deduplicated")
        return schemas.run_payload(submission)

    def _execute(self, submission: Submission) -> None:
        """The queue's runner: one batch through the lab, plus bookkeeping."""
        backend = (
            self._backend_factory()
            if self._backend_factory is not None
            else None
        )
        try:
            report = run_jobs(
                submission.jobs,
                store=self.store,
                workers=self._run_workers,
                backend=backend,
                run_id=submission.run_id,
            )
        except Exception:
            self.counters.bump("runs_failed")
            raise
        submission.report = report
        self.counters.bump("runs_completed")
        self.counters.bump("jobs_total", len(report.outcomes))
        self.counters.bump("jobs_executed", report.executed)
        self.counters.bump("job_cache_hits", report.cache_hits)
        if report.failures:
            self.counters.bump("runs_with_failed_checks")

    # -- reads -----------------------------------------------------------

    def run_status(self, run_id: str) -> dict:
        """``GET /v1/runs/<id>``: state plus the report metrics when done."""
        with self._runs_lock:
            submission = self._runs.get(run_id)
        if submission is None:
            raise NotFoundError(
                f"no such run {run_id!r} (runs are tracked for the life of "
                "this service process)"
            )
        return schemas.run_payload(submission)

    def result(self, config_hash: str) -> tuple[bytes, str]:
        """``GET /v1/results/<hash>``: raw artifact bytes + strong ETag.

        The artifact is content-addressed, so the config hash itself is
        the strong validator: same hash, same bytes, forever.
        """
        body = self.store.artifact_bytes(config_hash)
        if body is None:
            raise NotFoundError(
                f"no cached artifact for config hash {config_hash!r}"
            )
        return body, f'"{config_hash}"'

    def history_trend(
        self,
        metric: str,
        *,
        scenario: str | None = None,
        limit: int | None = None,
    ) -> dict:
        """``GET /v1/history/<metric>``: the cross-run trend, read-only.

        Computed from the store on each request; its cost grows with the
        number of runs under the root.
        """
        points = read_history(self.store).trend(
            metric, scenario=scenario, limit=limit
        )
        return schemas.history_payload(
            metric, points, direction=metric_direction(metric)
        )

    def health(self) -> dict:
        return schemas.health_payload(self)

    def metrics(self) -> dict:
        return schemas.metrics_payload(self)

    def run_count(self) -> int:
        with self._runs_lock:
            return len(self._runs)

    # -- lifecycle -------------------------------------------------------

    def close(self, *, drain: bool = True) -> None:
        """Stop accepting submissions; with ``drain``, wait them out."""
        self.queue.close(drain=drain)
