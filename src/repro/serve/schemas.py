"""Request parsing and response shapes for the serve API.

Every JSON body the service reads or writes is built here, so the
routes stay transport-only, the service stays logic-only, and the wire
format is greppable in one file.

``POST /v1/runs`` accepts exactly the document shapes
``repro scenario run`` accepts — a single :class:`ScenarioSpec`
object, a grid (``{"base": ..., "axes": ...}``), or a JSON array
mixing either — parsed by the same :func:`repro.scenarios.load_scenarios`
and linted by the same :func:`repro.lab.jobs.scenario_jobs`, so a file
that works on the CLI works over HTTP verbatim.
"""

from __future__ import annotations

import time

from repro.scenarios import ScenarioSpec, load_scenarios
from repro.scenarios.registry import validate_spec_kinds
from repro.serve.errors import BadRequestError, PayloadTooLargeError

__all__ = [
    "MAX_BODY_BYTES",
    "health_payload",
    "history_payload",
    "metrics_payload",
    "parse_run_request",
    "run_payload",
]

#: Hard ceiling on request bodies.  A grid of a few thousand design
#: points is well under 1 MB of JSON; anything bigger is a mistake,
#: not a workload.
MAX_BODY_BYTES = 8 * 1024 * 1024


def parse_run_request(raw: bytes) -> list[ScenarioSpec]:
    """A ``POST /v1/runs`` body to scenario specs.

    Raises :class:`BadRequestError` (empty / non-UTF-8 body) or lets
    the scenario layer's :class:`~repro.errors.ConfigurationError`
    propagate — both render as ``400`` with the canonical
    ``TypeName: message`` error body.  An unregistered kind is a ``400``
    now, not a failed run found by polling; the deeper lint runs once,
    where the service makes the jobs (:func:`repro.lab.jobs.scenario_jobs`).
    """
    if len(raw) > MAX_BODY_BYTES:
        raise PayloadTooLargeError(
            f"request body is {len(raw)} bytes; the limit is "
            f"{MAX_BODY_BYTES}"
        )
    if not raw:
        raise BadRequestError(
            "empty request body; POST a scenario spec, a grid "
            "({'base': ..., 'axes': ...}), or a list of either"
        )
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as error:
        raise BadRequestError(f"request body is not UTF-8: {error}") from None
    specs = load_scenarios(text)
    if not specs:
        raise BadRequestError("request body holds no scenarios")
    for spec in specs:
        validate_spec_kinds(spec)
    return specs


def run_payload(submission) -> dict:
    """One submission's full state — the ``/v1/runs/<id>`` body.

    ``POST /v1/runs`` returns the same shape (state ``queued``), so a
    client can treat the POST response as its first poll.  Jobs always
    list their config hash and ``result_url`` — the artifact address is
    known at submit time, and for already-cached design points the
    result is fetchable before (even without) the run executing.
    """
    payload: dict = {
        "run_id": submission.run_id,
        "state": submission.state,
        "created_at": submission.created_at,
        "job_count": len(submission.jobs),
        "url": f"/v1/runs/{submission.run_id}",
    }
    if submission.follows:
        payload["deduplicated_with"] = submission.follows
    if submission.error:
        payload["error"] = submission.error
    report = submission.report
    outcomes = (
        {outcome.spec.job_id: outcome for outcome in report.outcomes}
        if report is not None
        else {}
    )
    jobs = []
    for job in submission.jobs:
        address = submission.hashes[job.job_id]
        entry = {
            "job_id": job.job_id,
            "title": job.title,
            "config_hash": address,
            "result_url": f"/v1/results/{address}",
        }
        outcome = outcomes.get(job.job_id)
        if outcome is not None:
            entry["cached"] = outcome.cached
            entry["all_passed"] = outcome.all_passed
        jobs.append(entry)
    payload["jobs"] = jobs
    if report is not None:
        payload["metrics"] = report.metrics
        payload["all_passed"] = report.all_passed
        payload["cache_hits"] = report.cache_hits
        payload["executed"] = report.executed
        payload["elapsed_seconds"] = report.elapsed_seconds
    return payload


def health_payload(service) -> dict:
    """The ``/v1/healthz`` liveness body."""
    import repro

    return {
        "status": "ok",
        "version": repro.__version__,
        "store": str(service.store.root),
        "uptime_seconds": round(time.monotonic() - service.started_at, 3),
    }


def metrics_payload(service) -> dict:
    """The ``/v1/metrics`` body: request/error/run/job counters.

    ``cache_hit_rate`` aggregates over every job this process ran —
    the service-lifetime analogue of the per-run rate in each run's
    ``metrics`` block.
    """
    counters = service.counters.snapshot()
    executed = counters.get("jobs_executed", 0)
    hits = counters.get("job_cache_hits", 0)
    total = executed + hits
    return {
        "counters": counters,
        "cache_hit_rate": (hits / total) if total else 0.0,
        "runs_tracked": service.run_count(),
        "uptime_seconds": round(time.monotonic() - service.started_at, 3),
    }


def history_payload(
    metric: str, points: list[dict], *, direction: str | None
) -> dict:
    """The ``/v1/history/<metric>`` trend body."""
    return {
        "metric": metric,
        "direction": direction,
        "point_count": len(points),
        "points": points,
    }
