"""Pluggable execution backends for the lab executor.

A backend owns exactly one concern: given the cache-miss subset of a
batch, execute every job and yield ``(spec, result)`` completions in
whatever order they finish, where ``result`` is either the job's
JSON-safe payload dict or a :class:`JobFailure` describing the
exception it raised.  Everything else — cache lookups, artifact
persistence, deterministic job-id ordering, run bookkeeping — stays in
:func:`repro.lab.executor.run_jobs`, so every backend produces
byte-identical reports for the same batch.

Three implementations ship:

* :class:`SerialBackend` — in-process, zero dependencies, the one to
  reach for in tests and debuggers (``--backend serial``);
* :class:`ProcessPoolBackend` — the historical behaviour: fan out over
  a ``ProcessPoolExecutor``, falling back to in-process execution for
  single-job batches or ``workers=1`` (``--backend pool``, the
  default);
* :class:`repro.lab.spool.SpoolBackend` — the filesystem-spool
  sharding protocol: the coordinator publishes jobs as JSON files and
  any number of ``repro lab worker`` processes (on this host or any
  host sharing the directory) claim and execute them
  (``--backend spool``).

Backends are duck-typed against :class:`ExecutorBackend`; pass an
instance straight to ``run_jobs(backend=...)`` to plug in your own.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Protocol, Sequence, runtime_checkable

from repro.errors import ReproError
from repro.lab.jobs import JobSpec, execute_job

#: The names ``resolve_backend`` (and the CLI's ``--backend``) accept.
BACKEND_NAMES = ("serial", "pool", "spool")


class UnknownBackendError(ReproError):
    """A backend name that names no known implementation."""


def default_worker_count() -> int:
    """One worker per CPU, as ``repro lab run --jobs`` defaults to."""
    return os.cpu_count() or 1


@dataclass(frozen=True)
class JobFailure:
    """A job that raised instead of returning a payload.

    Carries only the formatted ``TypeName: message`` string, never the
    exception object — failures must survive a process (or host)
    boundary byte-identically, so every backend reports them the same
    way and crash records diff cleanly across backends.
    """

    message: str


def describe_error(error: BaseException) -> JobFailure:
    """The canonical failure rendering every backend agrees on."""
    return JobFailure(f"{type(error).__name__}: {error}")


@runtime_checkable
class ExecutorBackend(Protocol):
    """What ``run_jobs`` needs from an execution strategy."""

    #: Short name used in CLI flags and progress lines.
    name: str

    def run(
        self, pending: Sequence[JobSpec], *, run_id: str
    ) -> Iterator[tuple[JobSpec, dict | JobFailure]]:
        """Execute every pending spec, yielding completions as they land."""
        ...


class SerialBackend:
    """Run every job in this process, in the order given."""

    name = "serial"

    def run(
        self, pending: Sequence[JobSpec], *, run_id: str
    ) -> Iterator[tuple[JobSpec, dict | JobFailure]]:
        for spec in pending:
            try:
                payload = execute_job(spec)
            except Exception as error:
                yield spec, describe_error(error)
            else:
                yield spec, payload


class ProcessPoolBackend:
    """Fan jobs out over a ``ProcessPoolExecutor``.

    Workers receive the full :class:`JobSpec` (strings and ints only,
    so it pickles trivially) and hand back a JSON-safe payload.  A
    single pending job, or ``workers=1``, short-circuits to in-process
    execution — spawning a pool for one job costs more than the job.
    """

    name = "pool"

    def __init__(self, workers: int | None = None):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def backend_metrics(self) -> dict:
        """Pool sizing for the run manifest's metrics block."""
        return {"pool_workers": self.workers or default_worker_count()}

    def run(
        self, pending: Sequence[JobSpec], *, run_id: str
    ) -> Iterator[tuple[JobSpec, dict | JobFailure]]:
        workers = self.workers or default_worker_count()
        if len(pending) <= 1 or workers == 1:
            yield from SerialBackend().run(pending, run_id=run_id)
            return
        # Imported here: the process pool (multiprocessing, pickle,
        # sockets) loads only when a batch fans out.
        from concurrent.futures import (
            FIRST_COMPLETED,
            ProcessPoolExecutor,
            wait,
        )

        with ProcessPoolExecutor(
            max_workers=min(workers, len(pending))
        ) as pool:
            futures = {
                pool.submit(execute_job, spec): spec for spec in pending
            }
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    try:
                        payload = future.result()
                    except Exception as error:
                        yield futures[future], describe_error(error)
                    else:
                        yield futures[future], payload


def resolve_backend(
    backend: str | ExecutorBackend | None,
    *,
    store=None,
    workers: int | None = None,
) -> ExecutorBackend:
    """A backend name (or instance, or None) to a ready instance.

    ``None`` keeps the historical default (process pool).  ``"spool"``
    needs a store to anchor the spool directory under the lab root;
    callers wanting a custom spool location construct
    :class:`repro.lab.spool.SpoolBackend` themselves and pass the
    instance.
    """
    if backend is None:
        return ProcessPoolBackend(workers)
    if isinstance(backend, str):
        if backend == "serial":
            return SerialBackend()
        if backend == "pool":
            return ProcessPoolBackend(workers)
        if backend == "spool":
            from repro.lab.spool import SpoolBackend

            if store is None:
                raise UnknownBackendError(
                    "the spool backend needs a store (its spool directory "
                    "lives under the lab root); pass store= or construct "
                    "SpoolBackend yourself"
                )
            return SpoolBackend(store.root / "spool")
        raise UnknownBackendError(
            f"unknown backend {backend!r} (known: {', '.join(BACKEND_NAMES)})"
        )
    return backend
