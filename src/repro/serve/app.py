"""Process wiring: build the service, serve until signalled, drain.

:class:`ServeApp` assembles one running instance — store, history DB,
:class:`~repro.serve.service.LabService`, submission queue, HTTP
server — and owns its lifecycle.  Tests start one on an ephemeral port
inside the process (``ServeApp(..., port=0).start()``); the CLI calls
:func:`run_until_signalled`, which installs SIGTERM/SIGINT handlers
and performs the graceful shutdown sequence:

1. stop accepting new HTTP connections (``server.shutdown``);
2. stop accepting new submissions and **drain** every in-flight batch
   (``service.close(drain=True)``) — a run accepted with ``202`` is a
   promise, so its artifacts land even when the signal arrives while
   it is still queued;
3. close the listening socket and exit 0.
"""

from __future__ import annotations

import signal
import threading
from typing import Callable

from repro.lab.store import ArtifactStore
from repro.serve.routes import LabHTTPServer
from repro.serve.service import LabService

__all__ = ["ServeApp", "run_until_signalled"]

#: How often the serve loop checks for a shutdown request.  The stdlib
#: default (0.5 s) makes every stop wait up to half a second.
_SHUTDOWN_POLL_SECONDS = 0.02


def _print_flushed(message: str) -> None:
    """Default log sink: stdout, flushed so pipes/files see lines live."""
    print(message, flush=True)


class ServeApp:
    """One assembled service instance plus its HTTP server."""

    def __init__(
        self,
        store: ArtifactStore,
        *,
        host: str = "127.0.0.1",
        port: int = 8642,
        backend_factory: Callable[[], object] | None = None,
        run_workers: int | None = None,
        queue_workers: int | None = None,
        access_log: Callable[[str], None] | None = None,
        history=None,
    ):
        self.service = LabService(
            store,
            history=history,
            backend_factory=backend_factory,
            run_workers=run_workers,
            queue_workers=queue_workers,
        )
        self.server = LabHTTPServer(
            (host, port), self.service, access_log=access_log
        )
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self.server.server_address[0]

    @property
    def port(self) -> int:
        """The bound port — the real one, even when constructed with 0."""
        return self.server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServeApp":
        """Serve in a background thread; returns immediately."""
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": _SHUTDOWN_POLL_SECONDS},
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, *, drain: bool = True) -> None:
        """The graceful shutdown sequence (see module docstring)."""
        self.server.shutdown()
        self.service.close(drain=drain)
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def __enter__(self) -> "ServeApp":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def run_until_signalled(
    app: ServeApp, *, log: Callable[[str], None] = _print_flushed
) -> int:
    """The ``repro lab serve`` main loop: serve, wait, drain, exit 0.

    The signal handler only sets an event — the serve loop runs on a
    background thread, so the main thread is free to wait and then
    perform the blocking drain outside handler context.
    """
    stop = threading.Event()
    received: dict[str, str] = {}

    def _handle(signum, frame) -> None:
        received["signal"] = signal.Signals(signum).name
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _handle)

    app.start()
    log(
        f"repro lab serve: listening on {app.url} "
        f"(store {app.service.store.root})"
    )
    log(
        "endpoints: POST /v1/runs, GET /v1/runs/<id>, "
        "GET /v1/results/<config-hash>, GET /v1/history/<metric>, "
        "GET /v1/healthz, GET /v1/metrics"
    )
    stop.wait()
    log(
        f"repro lab serve: {received.get('signal', 'stop')} received; "
        "draining in-flight runs"
    )
    app.stop(drain=True)
    log("repro lab serve: drained cleanly")
    return 0
