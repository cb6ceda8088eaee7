"""HTTP routing: the URL table and transport glue, no business logic.

One regex-routed handler on the stdlib ``ThreadingHTTPServer`` (the
project has zero runtime dependencies and the service keeps it that
way).  Each route body is a few lines: parse path/query, call one
:class:`~repro.serve.service.LabService` method, serialize.  Every
exception — route-level or service-level — funnels through one error
handler that renders the canonical ``{"error": "TypeName: message"}``
body with the status :mod:`repro.serve.errors` maps it to.

The result endpoint implements conditional GET: the response carries a
strong ``ETag`` (the config hash — content addressing makes it exact
by construction) and an ``If-None-Match`` revalidation answers ``304``
with no body, so a hot design point costs the client zero body bytes
and the server one file stat.
"""

from __future__ import annotations

import json
import re
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from repro.serve import schemas
from repro.serve.errors import (
    BadRequestError,
    MethodNotAllowedError,
    NotFoundError,
    PayloadTooLargeError,
    error_payload,
    error_status,
)

__all__ = ["LabHTTPServer", "RequestHandler", "ROUTES"]


class LabHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` carrying the service and a log hook."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service,
        *,
        access_log: Callable[[str], None] | None = None,
    ):
        super().__init__(address, RequestHandler)
        self.service = service
        self.access_log = access_log

    def handle_error(self, request, client_address):
        # Clients hanging up mid-response are routine, not tracebacks.
        error = sys.exc_info()[1]
        if isinstance(error, (BrokenPipeError, ConnectionResetError)):
            return
        super().handle_error(request, client_address)


#: (method, path pattern, handler method name).  Named groups become
#: keyword arguments of the handler.
ROUTES: tuple[tuple[str, re.Pattern, str], ...] = (
    ("GET", re.compile(r"^/v1/healthz$"), "get_healthz"),
    ("GET", re.compile(r"^/v1/metrics$"), "get_metrics"),
    ("POST", re.compile(r"^/v1/runs$"), "post_runs"),
    ("GET", re.compile(r"^/v1/runs/(?P<run_id>[^/]+)$"), "get_run"),
    (
        "GET",
        re.compile(r"^/v1/results/(?P<config_hash>[^/]+)$"),
        "get_result",
    ),
    ("GET", re.compile(r"^/v1/history/(?P<metric>[^/]+)$"), "get_history"),
)


class RequestHandler(BaseHTTPRequestHandler):
    """Dispatch requests against :data:`ROUTES`; errors go to one place."""

    protocol_version = "HTTP/1.1"
    # Headers and body go out as two writes; with Nagle's algorithm on,
    # the body waits for the client's delayed ACK on a kept-alive
    # connection (about 40 ms per response on Linux).
    disable_nagle_algorithm = True

    @property
    def service(self):
        return self.server.service

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        self.service.counters.bump("requests_total")
        split = urlsplit(self.path)
        self._query = parse_qs(split.query)
        other_method = False
        try:
            for route_method, pattern, name in ROUTES:
                match = pattern.match(split.path)
                if match is None:
                    continue
                if route_method != method:
                    other_method = True
                    continue
                getattr(self, name)(**match.groupdict())
                return
            if other_method:
                raise MethodNotAllowedError(
                    f"{method} is not supported on {split.path}"
                )
            raise NotFoundError(f"no route matches {split.path}")
        except Exception as error:  # the centralized error handler
            self._send_failure(error)

    # -- routes ----------------------------------------------------------

    def get_healthz(self) -> None:
        self._send_json(200, self.service.health())

    def get_metrics(self) -> None:
        self._send_json(200, self.service.metrics())

    def post_runs(self) -> None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise BadRequestError("unreadable Content-Length header") from None
        if length > schemas.MAX_BODY_BYTES:
            # Refuse before reading: no point swallowing the body.
            self.close_connection = True
            raise PayloadTooLargeError(
                f"request body is {length} bytes; the limit is "
                f"{schemas.MAX_BODY_BYTES}"
            )
        raw = self.rfile.read(length) if length > 0 else b""
        # Everything a run needs travels in the body; a query parameter
        # (a stale engine or worker-count knob, say) would otherwise be
        # ignored without a word.
        query = urlsplit(self.path).query
        if query:
            self.service.counters.bump("runs_rejected")
            names = ", ".join(sorted(parse_qs(query, keep_blank_values=True)))
            raise BadRequestError(
                f"POST /v1/runs takes no query parameters (got "
                f"{names or query}); send the scenario spec or grid as "
                "the request body"
            )
        payload = self.service.submit(raw)
        self._send_json(
            202,
            payload,
            headers=(("Location", payload["url"]),),
        )

    def get_run(self, run_id: str) -> None:
        self._send_json(200, self.service.run_status(run_id))

    def get_result(self, config_hash: str) -> None:
        body, etag = self.service.result(config_hash)
        if self._etag_matches(etag):
            self.service.counters.bump("results_not_modified")
            self.send_response(304)
            self.send_header("ETag", etag)
            self.end_headers()
            return
        self.service.counters.bump("results_served")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("ETag", etag)
        # Content-addressed: the bytes behind this hash never change.
        self.send_header("Cache-Control", "max-age=31536000, immutable")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def get_history(self, metric: str) -> None:
        scenario = self._query_value("scenario")
        limit_text = self._query_value("limit")
        limit = None
        if limit_text is not None:
            try:
                limit = int(limit_text)
            except ValueError:
                limit = 0
            if limit < 1:
                raise BadRequestError(
                    f"limit must be a positive integer, got {limit_text!r}"
                )
        self._send_json(
            200,
            self.service.history_trend(metric, scenario=scenario, limit=limit),
        )

    # -- plumbing --------------------------------------------------------

    def _query_value(self, key: str) -> str | None:
        values = self._query.get(key)
        return values[-1] if values else None

    def _etag_matches(self, etag: str) -> bool:
        """``If-None-Match`` vs our strong ETag, leniently.

        Accepts the exact quoted tag, a weak ``W/`` prefix (content
        addressing makes weak and strong identical here), a bare
        unquoted hash (what shell one-liners tend to send), or ``*``.
        """
        header = self.headers.get("If-None-Match")
        if not header:
            return False
        if header.strip() == "*":
            return True
        bare = etag.strip('"')
        for candidate in header.split(","):
            candidate = candidate.strip()
            if candidate.startswith("W/"):
                candidate = candidate[2:].strip()
            if candidate == etag or candidate.strip('"') == bare:
                return True
        return False

    def _send_failure(self, error: BaseException) -> None:
        status = error_status(error)
        self.service.counters.bump("errors_total")
        if status >= 500:
            self.service.counters.bump("errors_internal")
        # An error mid-write (broken pipe) cannot be answered.
        try:
            self._send_json(status, error_payload(error))
        except OSError:
            self.close_connection = True

    def _send_json(
        self,
        status: int,
        payload: dict,
        *,
        headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        body = (
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        ).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        for key, value in headers:
            self.send_header(key, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:
        """Per-request access logging through the server's hook.

        ``send_response`` calls this for every request, so the access
        log is automatic; a ``None`` hook silences it (tests).
        """
        log = getattr(self.server, "access_log", None)
        if log is not None:
            log(f"{self.address_string()} {format % args}")
