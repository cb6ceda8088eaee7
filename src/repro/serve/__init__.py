"""repro.serve — the persistent HTTP experiment service.

``repro lab serve`` puts a long-running front door on the lab: submit
a scenario spec, grid, or list over HTTP and get a run id back
immediately; poll the run; fetch any result by its config hash.
Content addressing does the heavy lifting — a design point simulates
at most once, ever, and every repeat query is one indexed row read from
``index.sqlite`` (or, with ``If-None-Match``, a ``304`` and zero body
bytes).  With ``--backend spool`` the service is a thin coordinator:
any number of ``repro lab worker`` processes on any host sharing the
spool directory execute the simulations.

API (all JSON)::

    POST /v1/runs                   spec | grid | list  ->  202 + run id
    GET  /v1/runs/<run-id>          state + ExecutionReport.metrics
    GET  /v1/results/<config-hash>  cached artifact; strong ETag = hash
    GET  /v1/history/<metric>       cross-run trend, read from the
                                    root per request (?scenario=&limit=)
    GET  /v1/healthz                liveness
    GET  /v1/metrics                request/error/run/cache counters

Module map
----------

* :mod:`repro.serve.app` — :class:`ServeApp` wiring + the
  signal-driven main loop (graceful SIGTERM/SIGINT drain);
* :mod:`repro.serve.routes` — the URL table and the
  ``ThreadingHTTPServer`` request handler (transport only);
* :mod:`repro.serve.service` — :class:`LabService`, the logic layer
  every route calls into;
* :mod:`repro.serve.queue` — background batch execution on a thread
  pool, with duplicate-submission collapsing by batch signature;
* :mod:`repro.serve.schemas` — request parsing + every response shape;
* :mod:`repro.serve.errors` — the centralized exception -> HTTP status
  mapping and the canonical ``TypeName: message`` error body.
"""

from repro.serve.app import ServeApp, run_until_signalled
from repro.serve.errors import (
    BadRequestError,
    MethodNotAllowedError,
    NotFoundError,
    PayloadTooLargeError,
    ServeError,
    ServiceUnavailableError,
    error_payload,
    error_status,
)
from repro.serve.queue import Submission, SubmissionQueue
from repro.serve.routes import LabHTTPServer, RequestHandler
from repro.serve.service import LabService, ServiceCounters

__all__ = [
    "BadRequestError",
    "LabHTTPServer",
    "LabService",
    "MethodNotAllowedError",
    "NotFoundError",
    "PayloadTooLargeError",
    "RequestHandler",
    "ServeApp",
    "ServeError",
    "ServiceCounters",
    "ServiceUnavailableError",
    "Submission",
    "SubmissionQueue",
    "error_payload",
    "error_status",
    "run_until_signalled",
]
