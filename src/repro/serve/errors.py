"""Centralized error vocabulary for the HTTP experiment service.

One place maps every exception to an HTTP status and one canonical
body shape, so routes and service code just ``raise`` and the handler
in :mod:`repro.serve.routes` renders the result.  The body's ``error``
field is rendered by the lab backends' one renderer,
:func:`repro.lab.backends.describe_error`, so a client sees one
``TypeName: message`` failure grammar whether a job crashed in a worker
or a request never made it past validation.

Status mapping:

* :class:`ServeError` subclasses carry their own ``status``;
* any other :class:`~repro.errors.ReproError` is a validation problem
  with the request's content (bad spec JSON, unknown scenario kind,
  inconsistent geometry) — ``400``;
* anything else is a bug — ``500``.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.lab.backends import describe_error

__all__ = [
    "BadRequestError",
    "MethodNotAllowedError",
    "NotFoundError",
    "PayloadTooLargeError",
    "ServeError",
    "ServiceUnavailableError",
    "error_payload",
    "error_status",
]


class ServeError(ReproError):
    """Base class for errors the service maps to a specific HTTP status."""

    status = 500


class BadRequestError(ServeError):
    """The request itself is malformed (empty body, bad encoding...)."""

    status = 400


class NotFoundError(ServeError):
    """No such run, artifact, or route."""

    status = 404


class MethodNotAllowedError(ServeError):
    """The path exists but not for this HTTP method."""

    status = 405


class PayloadTooLargeError(ServeError):
    """The request body exceeds the service's hard ceiling."""

    status = 413


class ServiceUnavailableError(ServeError):
    """The service is draining for shutdown and accepts no new runs."""

    status = 503


def error_status(error: BaseException) -> int:
    """The HTTP status an exception maps to (see module docstring)."""
    if isinstance(error, ServeError):
        return error.status
    if isinstance(error, ReproError):
        return 400
    return 500


def error_payload(error: BaseException) -> dict:
    """The JSON body every error response carries.

    Errors that carry static-check findings (a submission rejected by
    :func:`repro.check.require_submittable`) ship them structurally, so
    a 400 tells the client *which* rule fired where, not just the
    summary line.
    """
    payload = {
        "error": describe_error(error).message,
        "status": error_status(error),
    }
    findings = getattr(error, "findings", None)
    if findings:
        payload["findings"] = [finding.to_dict() for finding in findings]
    return payload
