"""Cache-aware batch execution over pluggable backends.

``run_jobs`` takes a batch of :class:`~repro.lab.jobs.JobSpec`, looks
up every config hash in the artifact store at once, hands the misses to an
:class:`~repro.lab.backends.ExecutorBackend` (in-process serial,
process pool, or the filesystem-spool sharding protocol), commits every
fresh payload's result to the store as it lands, and writes the run's
``runs/<run-id>/`` manifest and report when it ends.  Results are
reported in job-id order regardless of completion order, so the same
batch produces the same :class:`ExecutionReport` — and byte-identical
rendered reports — no matter which backend executed it.  It neither
parses nor lints specs: :func:`repro.lab.jobs.scenario_jobs` does that.

Only specs and JSON-safe payloads cross the executor/backend boundary,
so nothing unpicklable ever crosses a process (or host) boundary, and
an interrupted or killed run leaves behind exactly the results of the
jobs that finished, which the next run picks up as cache hits.
"""

from __future__ import annotations

import os
import time
import uuid
from dataclasses import dataclass, field
from typing import Callable, Sequence

import repro
from repro.errors import ConfigurationError
from repro.lab.backends import (
    ExecutorBackend,
    JobFailure,
    default_worker_count,
    resolve_backend,
)
from repro.lab.jobs import JobSpec
from repro.lab.store import ArtifactStore

__all__ = [
    "ExecutionReport",
    "JobOutcome",
    "default_worker_count",
    "new_run_id",
    "one_job_per_id",
    "run_jobs",
]


def new_run_id() -> str:
    """Timestamp + PID + random suffix: collision-free even when several
    coordinators (e.g. spool workers' own labs) start in the same second.

    Public because submit-without-block front ends (``repro lab
    serve``) must name a run *before* executing it: they allocate the
    id here, hand it back to the client immediately, and pass it into
    :func:`run_jobs` via ``run_id=`` when the batch actually runs.
    """
    return (
        time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        + f"-p{os.getpid()}-"
        + uuid.uuid4().hex[:8]
    )


@dataclass(frozen=True)
class JobOutcome:
    """One job's stored record plus how it was obtained."""

    spec: JobSpec
    record: dict
    cached: bool

    @property
    def all_passed(self) -> bool:
        return bool(self.record["all_passed"])

    @property
    def elapsed_seconds(self) -> float:
        return float(self.record["elapsed_seconds"])


@dataclass
class ExecutionReport:
    """Everything one batch produced, in deterministic job-id order.

    ``metrics`` carries the batch-level observability record (cache-hit
    rate, queue latencies, backend detail) that ``write_run_artifacts``
    persists into manifest.json and ``repro lab status --metrics``
    renders.
    """

    run_id: str
    outcomes: list[JobOutcome] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    metrics: dict = field(default_factory=dict)

    @property
    def cache_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def executed(self) -> int:
        return len(self.outcomes) - self.cache_hits

    @property
    def failures(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if not o.all_passed]

    @property
    def all_passed(self) -> bool:
        return not self.failures


def run_jobs(
    specs: Sequence[JobSpec],
    *,
    store: ArtifactStore,
    workers: int | None = None,
    force: bool = False,
    progress: Callable[[str], None] | None = None,
    backend: str | ExecutorBackend | None = None,
    run_id: str | None = None,
) -> ExecutionReport:
    """Execute a batch, reusing cached artifacts unless ``force``.

    ``backend`` picks the execution strategy: ``"serial"``, ``"pool"``
    (the default), ``"spool"``, or any :class:`ExecutorBackend`
    instance.  ``workers`` configures the pool backend (``None`` means
    one per CPU) and is ignored by backends that don't pool.
    ``progress`` receives one human-readable line per completed job.
    ``run_id`` lets a caller that already promised an id (the HTTP
    service returns one at submit time) execute under it; ``None``
    allocates a fresh one.  The run's manifest and report are written
    under ``store.runs_dir / run_id`` before this returns.  A job id the
    batch names twice runs once.
    """
    ordered = one_job_per_id(specs)
    executor = resolve_backend(backend, store=store, workers=workers)
    version = repro.__version__
    run_id = run_id or new_run_id()
    started = time.perf_counter()

    def emit(outcome: JobOutcome) -> None:
        if progress is None:
            return
        status = "PASS" if outcome.all_passed else "FAIL"
        suffix = " [cached]" if outcome.cached else ""
        progress(
            f"{outcome.spec.job_id}: {status} "
            f"({outcome.elapsed_seconds:.1f}s) "
            f"{outcome.record['title']}{suffix}"
        )

    outcomes: dict[str, JobOutcome] = {}
    pending: list[JobSpec] = []
    addresses = [spec.config_hash(version) for spec in ordered]
    cached = {} if force else store.load_many(addresses)
    for spec, address in zip(ordered, addresses):
        record = cached.get(address)
        if record is not None:
            outcomes[spec.job_id] = JobOutcome(spec, record, cached=True)
            emit(outcomes[spec.job_id])
        else:
            pending.append(spec)

    # Queue latency per executed job: time from batch start to the
    # completion landing back here, minus the job's own execution time
    # — i.e. how long the job sat waiting for a worker (plus transport,
    # for the spool backend).  Cached jobs never queue.
    queue_latencies: list[float] = []

    def complete(spec: JobSpec, payload: dict) -> None:
        record = store.save(spec, payload, run_id=run_id, package_version=version)
        turnaround = time.perf_counter() - started
        queue_latencies.append(
            max(0.0, turnaround - float(record.get("elapsed_seconds", 0.0)))
        )
        outcomes[spec.job_id] = JobOutcome(spec, record, cached=False)
        emit(outcomes[spec.job_id])

    def crash(spec: JobSpec, message: str) -> None:
        # A raising job becomes a failed outcome that is deliberately NOT
        # cached: caching it would pin the failure across re-runs.
        record = {
            "job_id": spec.job_id,
            "kind": spec.kind,
            "title": spec.title,
            "headers": [],
            "rows": [],
            "checks": [
                {
                    "claim": "job executed without raising",
                    "expected": "no exception",
                    "measured": message,
                    "passed": False,
                }
            ],
            "notes": [],
            "all_passed": False,
            "elapsed_seconds": 0.0,
            "config_hash": spec.config_hash(version),
            "package_version": version,
            "run_id": run_id,
        }
        outcomes[spec.job_id] = JobOutcome(spec, record, cached=False)
        queue_latencies.append(time.perf_counter() - started)
        emit(outcomes[spec.job_id])

    # Job-execution errors arrive as JobFailure completions and become
    # failed outcomes; store/save errors are infrastructure problems and
    # propagate, never misattributed to the job.  Whatever stops the
    # loop (an interrupt, a spool timeout, a store error), every result
    # saved so far is already committed; the run itself gets no
    # manifest.
    if pending:
        for spec, result in executor.run(pending, run_id=run_id):
            if isinstance(result, JobFailure):
                crash(spec, result.message)
            else:
                complete(spec, result)

    report = ExecutionReport(
        run_id=run_id,
        outcomes=[outcomes[spec.job_id] for spec in ordered],
        elapsed_seconds=time.perf_counter() - started,
        metrics=_batch_metrics(
            executor,
            job_count=len(ordered),
            cache_hits=len(ordered) - len(pending),
            wall_seconds=time.perf_counter() - started,
            queue_latencies=queue_latencies,
        ),
    )
    # Imported here: the manifest module imports this one.
    from repro.lab.manifest import write_run_artifacts

    write_run_artifacts(store, report)
    return report


def one_job_per_id(specs: Sequence[JobSpec]) -> list[JobSpec]:
    """The batch in job-id order, each job once; two *different* jobs
    under one id would share one outcome, so they are an error."""
    unique: dict[str, JobSpec] = {}
    for spec in sorted(specs, key=lambda spec: spec.job_id):
        if unique.setdefault(spec.job_id, spec) != spec:
            raise ConfigurationError(
                f"two different jobs share the job id {spec.job_id!r}"
            )
    return list(unique.values())


def _batch_metrics(
    executor: ExecutorBackend,
    *,
    job_count: int,
    cache_hits: int,
    wall_seconds: float,
    queue_latencies: Sequence[float],
) -> dict:
    """The batch-level observability record stored in manifest.json.

    Backends may expose a ``backend_metrics()`` method returning extra
    JSON-safe counters (the spool backend reports published/requeued
    jobs and worker activity); those merge in flat, prefixed by the
    backend so keys never collide with the batch-level ones.
    """
    metrics: dict = {
        "backend": getattr(executor, "name", "unknown"),
        "jobs": job_count,
        "cache_hits": cache_hits,
        "executed": job_count - cache_hits,
        "cache_hit_rate": (cache_hits / job_count) if job_count else 0.0,
        "wall_seconds": wall_seconds,
        "queue_latency_mean_seconds": (
            sum(queue_latencies) / len(queue_latencies)
            if queue_latencies
            else 0.0
        ),
        "queue_latency_max_seconds": (
            max(queue_latencies) if queue_latencies else 0.0
        ),
    }
    detail = getattr(executor, "backend_metrics", None)
    if callable(detail):
        extra = detail()
        if isinstance(extra, dict):
            metrics.update(extra)
    return metrics
