"""Background batch execution: a bounded thread pool that collapses
duplicate submissions.

``POST /v1/runs`` must return a run id immediately, so batches execute
on a :class:`~concurrent.futures.ThreadPoolExecutor` owned by this
queue and polling handlers never block behind a simulation.  The queue
knows nothing about HTTP or the lab — it runs an opaque
``runner(submission)`` callable and tracks lifecycle state on the
:class:`Submission`.

Duplicate collapsing: a submission's *signature* is the sorted tuple
of its jobs' config hashes — the full content address of the batch.
Two in-flight submissions with the same signature never simulate
concurrently: the later one ("follower") waits until the earlier one
("leader") finishes, then runs — by which time every job is a pure
cache hit, so the expensive simulation happened exactly once.  The
follower still gets its own run id, manifest and metrics (with
``cache_hit_rate`` 1.0), which is what makes the collapse observable
rather than magical.

No deadlock is possible: the pool is FIFO and a follower is always
enqueued *after* its leader, so a leader is never starved of a worker
slot by its own followers.

Shutdown: ``close(drain=True)`` stops accepting new submissions and
waits for every in-flight batch — the graceful SIGTERM path.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from repro.serve.errors import ServiceUnavailableError, error_message

__all__ = [
    "DEFAULT_QUEUE_WORKERS",
    "DONE",
    "FAILED",
    "QUEUED",
    "RUNNING",
    "Submission",
    "SubmissionQueue",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Concurrent batches by default.  Submissions queue beyond this, which
#: is the point — the HTTP threads never execute simulations themselves.
DEFAULT_QUEUE_WORKERS = 2


@dataclass
class Submission:
    """One accepted batch and its lifecycle state.

    ``jobs`` is the deduplicated, job-id-ordered list of
    :class:`~repro.lab.jobs.JobSpec`; ``hashes`` maps job id to config
    hash (computed once, at submit time); ``signature`` is the sorted
    hash tuple the duplicate collapse keys on.  ``report`` lands when
    the runner finishes; ``error`` when it raises.
    """

    run_id: str
    jobs: list
    hashes: dict[str, str]
    signature: tuple[str, ...]
    created_at: str
    state: str = QUEUED
    report: object | None = None
    error: str | None = None
    follows: str | None = None
    finished: threading.Event = field(default_factory=threading.Event)


class SubmissionQueue:
    """Run submissions through ``runner`` on a fixed thread pool."""

    def __init__(
        self,
        runner: Callable[[Submission], None],
        *,
        workers: int | None = None,
    ):
        self._runner = runner
        self._lock = threading.Lock()
        self._leaders: dict[tuple[str, ...], Submission] = {}
        self._closed = False
        self._pool = ThreadPoolExecutor(
            max_workers=workers or DEFAULT_QUEUE_WORKERS,
            thread_name_prefix="repro-serve-run",
        )

    def submit(self, submission: Submission) -> None:
        """Enqueue one submission; returns immediately.

        Raises :class:`ServiceUnavailableError` once the queue is
        closing — a drain must not accept work it would then wait on.
        """
        with self._lock:
            if self._closed:
                raise ServiceUnavailableError(
                    "service is draining for shutdown; not accepting new runs"
                )
            leader = self._leaders.get(submission.signature)
            if leader is not None and not leader.finished.is_set():
                submission.follows = leader.run_id
            else:
                self._leaders[submission.signature] = submission
                leader = None
        self._pool.submit(self._run, submission, leader)

    def _run(self, submission: Submission, leader: Submission | None) -> None:
        if leader is not None:
            # Collapse: let the identical in-flight batch finish first,
            # then run against a warm cache (zero simulations).
            leader.finished.wait()
        submission.state = RUNNING
        try:
            self._runner(submission)
        except Exception as error:
            submission.error = error_message(error)
            submission.state = FAILED
        else:
            submission.state = DONE
        finally:
            submission.finished.set()
            with self._lock:
                if self._leaders.get(submission.signature) is submission:
                    del self._leaders[submission.signature]

    def close(self, *, drain: bool = True) -> None:
        """Stop accepting submissions; optionally wait for in-flight ones."""
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=drain, cancel_futures=not drain)
