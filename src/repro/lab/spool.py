"""Filesystem-spool sharding: ship lab jobs to any worker on any host.

The spool turns a shared directory (NFS mount, synced checkout, plain
local tmpdir) into a job queue with no broker and no sockets::

    <spool-dir>/<run-id>/
        pending/<seq>__<job>.json   published JobSpecs nobody owns yet
        claimed/<seq>__<job>.json   owned by a worker; mtime is its heartbeat
        done/<seq>__<job>.json      payload (or failure), written atomically
        CLOSED                      coordinator marker: run abandoned

The coordinator (:class:`SpoolBackend`) publishes every pending job as
canonical JSON, then polls ``done/`` and requeues stale claims.  Any
number of ``repro lab worker <spool-dir>`` processes claim jobs by
atomically renaming ``pending/X`` to ``claimed/X`` — exactly one
claimant can win a POSIX rename, so no job runs twice concurrently —
execute them, and write results into ``done/`` via temp-file +
``os.replace`` so a crash can never leave a truncated result behind.

Spool state is transient: once every result is collected the
coordinator *destroys* its run directory (results live in the
store), so workers keep serving batch after batch against a clean
spool.  A ``CLOSED`` marker that lingers means the coordinator gave up
(timeout, crash, store error); workers never claim from closed runs —
nobody would collect the results — and exit when only abandoned runs
remain.

Crash safety: a worker that dies mid-job leaves its claim file behind
with a frozen mtime.  Live workers heartbeat by touching their claim
every few seconds, so the coordinator can tell dead from slow: claims
older than ``stale_after`` are renamed back into ``pending/`` and the
next worker (or the coordinator itself with ``participate=True``)
picks them up.  Jobs are deterministic and results are written
atomically, so the rare double-execution after a requeue race is
harmless — the second ``done`` write replaces the first with the same
content.

Nothing in a spool file is host-specific — job specs are ids + JSON
params (whole scenario design points travel inside them) — so the
directory can live on any shared or synced filesystem.  Workers own no
result store: results travel back as ``done`` files and only the
coordinator persists them.  (Detached stores — the ``repro lab merge``
workflow — come from running whole *coordinators* against separate lab
roots, e.g. ``repro lab run`` on another machine.)
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.errors import ReproError
from repro.lab.backends import JobFailure, describe_error
from repro.lab.hashing import canonical_json
from repro.lab.jobs import JobSpec, execute_job
from repro.lab.store import atomic_write

PENDING_DIR = "pending"
CLAIMED_DIR = "claimed"
DONE_DIR = "done"
CLOSED_MARKER = "CLOSED"
STOP_MARKER = "STOP"
#: Touched and stat'ed to read the spool filesystem's clock, so claim
#: ages are measured by the clock that stamped the claim mtimes.
CLOCK_PROBE = ".clock-probe"

DEFAULT_POLL_INTERVAL = 0.05
DEFAULT_STALE_AFTER = 60.0
DEFAULT_HEARTBEAT = 5.0


class SpoolError(ReproError):
    """A malformed spool file or an unusable spool directory."""


# -- JobSpec wire format --------------------------------------------------


def job_to_json(spec: JobSpec) -> str:
    """One JobSpec as canonical JSON — the spool's wire format."""
    return canonical_json(
        {
            "job_id": spec.job_id,
            "kind": spec.kind,
            "title": spec.title,
            "params": [[key, value] for key, value in spec.params],
        }
    )


def job_from_json(text: str) -> JobSpec:
    """Inverse of :func:`job_to_json`; raises :class:`SpoolError` on junk.

    Param values are re-frozen (JSON lists back to tuples) with the
    same normalisation ``experiment_spec`` applies, so a round-tripped
    spec compares equal to the original and — because ``canonical_json``
    serialises tuples and lists identically — hashes to the same
    artifact address.
    """
    from repro.scenarios.spec import freeze_value

    try:
        data = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise SpoolError(f"unreadable spooled job: {error}") from None
    if not isinstance(data, dict):
        raise SpoolError(f"spooled job is not an object: {data!r}")
    missing = [key for key in ("job_id", "kind", "title", "params") if key not in data]
    if missing:
        raise SpoolError(f"spooled job misses key(s): {', '.join(missing)}")
    try:
        params = tuple(
            (str(key), freeze_value(value, context=f"spooled param {key!r}"))
            for key, value in data["params"]
        )
    except (TypeError, ValueError, ReproError) as error:
        raise SpoolError(f"bad spooled job params: {error}") from None
    return JobSpec(str(data["job_id"]), str(data["kind"]), str(data["title"]), params)


def _spool_name(sequence: int, job_id: str) -> str:
    """A filesystem-safe, sortable spool filename for one job."""
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", job_id)[:80]
    return f"{sequence:04d}__{safe}.json"


# -- coordinator side -----------------------------------------------------


class SpoolRun:
    """Coordinator-side handle on one run's spool directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    @property
    def pending_dir(self) -> Path:
        return self.root / PENDING_DIR

    @property
    def claimed_dir(self) -> Path:
        return self.root / CLAIMED_DIR

    @property
    def done_dir(self) -> Path:
        return self.root / DONE_DIR

    @property
    def closed_path(self) -> Path:
        return self.root / CLOSED_MARKER

    @property
    def closed(self) -> bool:
        return self.closed_path.exists()

    def create(self) -> None:
        for directory in (self.pending_dir, self.claimed_dir, self.done_dir):
            directory.mkdir(parents=True, exist_ok=True)

    def publish(self, specs: Sequence[JobSpec]) -> dict[str, JobSpec]:
        """Write one pending file per spec; returns filename -> spec."""
        published: dict[str, JobSpec] = {}
        for sequence, spec in enumerate(specs):
            name = _spool_name(sequence, spec.job_id)
            atomic_write(self.pending_dir / name, job_to_json(spec))
            published[name] = spec
        return published

    def _spool_now(self) -> float:
        """The spool filesystem's idea of "now".

        Claim-file mtimes are stamped by whatever host mounts the spool
        (an NFS server, a container with a drifted clock), so comparing
        them against the coordinator's ``time.time()`` mismeasures ages
        by the full clock skew — enough to requeue every live claim, or
        never requeue dead ones.  Touching a probe file and reading its
        mtime back asks the same clock that stamped the claims.  Falls
        back to the local clock only if the probe cannot be written.
        """
        probe = self.root / CLOCK_PROBE
        try:
            probe.touch()
            return probe.stat().st_mtime
        except OSError:
            return time.time()

    def requeue_stale(self, stale_after: float) -> list[str]:
        """Claims whose heartbeat stopped go back to pending; returns names.

        A live worker touches its claim file every few seconds, so a
        claim older than ``stale_after`` belongs to a dead worker.  Ages
        are measured against the spool filesystem's clock (see
        :meth:`_spool_now`), not the coordinator's, so clock skew
        between the two cannot requeue live claims or strand dead
        ones.  The rename back into ``pending/`` is atomic; a worker
        that turns out to be merely slow still writes its ``done``
        file, which wins regardless.
        """
        if not self.claimed_dir.is_dir():
            return []
        requeued = []
        now = self._spool_now()
        for path in sorted(self.claimed_dir.glob("*.json")):
            if (self.done_dir / path.name).exists():
                continue
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue
            if age <= stale_after:
                continue
            try:
                os.rename(path, self.pending_dir / path.name)
            except OSError:
                continue
            requeued.append(path.name)
        return requeued

    def collect(self, seen: set[str]) -> list[tuple[str, dict | None]]:
        """New ``done`` results, as (filename, body|None) pairs.

        ``None`` means the done file exists but cannot be parsed — the
        caller turns that into a failed outcome rather than hanging the
        batch.  Leftover pending/claimed twins of a finished job are
        removed so requeue races cannot resurrect it.
        """
        if not self.done_dir.is_dir():
            return []
        fresh: list[tuple[str, dict | None]] = []
        for path in sorted(self.done_dir.glob("*.json")):
            if path.name in seen:
                continue
            try:
                body = json.loads(path.read_text())
                if not isinstance(body, dict):
                    body = None
            except (json.JSONDecodeError, UnicodeDecodeError, OSError):
                body = None
            fresh.append((path.name, body))
            for stale_twin in (
                self.pending_dir / path.name,
                self.claimed_dir / path.name,
            ):
                try:
                    stale_twin.unlink()
                except OSError:
                    pass
        return fresh

    def close(self) -> None:
        """Mark the run abandoned/complete: workers stop claiming from it."""
        atomic_write(self.closed_path, "")

    def destroy(self) -> None:
        """Remove the run's spool directory (results live in the store).

        Called after every result is collected, so workers never
        mistake a finished batch for ongoing work and the next batch
        starts against a clean spool.  A straggler worker renaming a
        duplicate claim can race the removal; one retry absorbs that,
        and a leftover partial directory is merely re-served noise.
        """
        import shutil

        for _ in range(2):
            shutil.rmtree(self.root, ignore_errors=True)
            if not self.root.exists():
                return
            time.sleep(0.1)


class SpoolBackend:
    """Coordinator: publish the batch, poll for results, requeue the dead.

    ``participate=True`` makes the coordinator claim and execute jobs
    itself whenever polling finds nothing new — with zero external
    workers that degenerates to serial execution, which keeps the
    backend usable (and testable) without orchestration.  ``timeout``
    bounds the total wait; ``None`` waits forever (workers may be
    humans starting terminals).
    """

    name = "spool"

    def __init__(
        self,
        spool_dir: str | Path,
        *,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        stale_after: float = DEFAULT_STALE_AFTER,
        participate: bool = False,
        timeout: float | None = None,
        announce: Callable[[str], None] | None = None,
    ):
        self.spool_dir = Path(spool_dir)
        self.poll_interval = poll_interval
        self.stale_after = stale_after
        self.participate = participate
        self.timeout = timeout
        self.announce = announce
        self._published = 0
        self._requeued = 0
        self._self_executed = 0
        self._workers: set[str] = set()
        self._heartbeats = 0

    def backend_metrics(self) -> dict:
        """Spool-protocol counters for the run manifest's metrics block.

        Reflects the most recent :meth:`run`: jobs published, stale
        claims requeued, distinct ``host:pid`` workers that returned
        results (the coordinator counts as one when participating), and
        total claim heartbeats observed.
        """
        return {
            "spool_published": self._published,
            "spool_requeued": self._requeued,
            "spool_self_executed": self._self_executed,
            "spool_workers": len(self._workers),
            "spool_worker_heartbeats": self._heartbeats,
        }

    def run(
        self, pending: Sequence[JobSpec], *, run_id: str
    ) -> Iterator[tuple[JobSpec, dict | JobFailure]]:
        spool = SpoolRun(self.spool_dir / run_id)
        spool.create()
        published = spool.publish(pending)
        self._published = len(published)
        self._requeued = self._self_executed = self._heartbeats = 0
        self._workers = set()
        if self.announce is not None:
            self.announce(
                f"spooled {len(published)} job(s) under {spool.root}; "
                f"serve them with: repro lab worker {self.spool_dir}"
            )
        started = time.monotonic()
        seen: set[str] = set()
        try:
            while len(seen) < len(published):
                progressed = False
                for name, body in spool.collect(seen):
                    seen.add(name)
                    self._note_worker(body)
                    spec = published.get(name)
                    if spec is None:
                        continue  # a file this batch never published
                    progressed = True
                    yield spec, _completion(body)
                if progressed:
                    continue
                self._requeued += len(spool.requeue_stale(self.stale_after))
                if self.participate:
                    claim = claim_next(spool.root)
                    if claim is not None:
                        execute_claim(spool.root, claim)
                        self._self_executed += 1
                        continue
                if (
                    self.timeout is not None
                    and time.monotonic() - started > self.timeout
                ):
                    raise SpoolError(
                        f"spool run {run_id} timed out after "
                        f"{self.timeout:.0f}s with "
                        f"{len(published) - len(seen)} job(s) unserved — "
                        f"are any workers running against {self.spool_dir}?"
                    )
                time.sleep(self.poll_interval)
        except BaseException:
            # Timeout, a store error in the consumer, or an early
            # generator close: mark the run abandoned so workers stop
            # claiming from it, but keep the files for post-mortem.
            spool.close()
            raise
        else:
            # Every result is collected; the spool run is spent state.
            spool.destroy()

    def _note_worker(self, body: dict | None) -> None:
        """Accumulate the worker stamp a done-file body carries."""
        if not isinstance(body, dict):
            return
        info = body.get("worker")
        if not isinstance(info, dict):
            return
        self._workers.add(f"{info.get('host', '?')}:{info.get('pid', '?')}")
        beats = info.get("heartbeats")
        if isinstance(beats, int) and beats > 0:
            self._heartbeats += beats


def _completion(body: dict | None) -> dict | JobFailure:
    """One done-file body to the backend completion contract."""
    if body is None:
        return JobFailure("worker wrote an unreadable done file")
    if "failure" in body:
        return JobFailure(str(body["failure"]))
    payload = body.get("payload")
    if not isinstance(payload, dict):
        return JobFailure("worker done file carries no payload")
    return payload


# -- worker side ----------------------------------------------------------


def _hostname() -> str:
    """This host's name, best effort (spools may span machines)."""
    import socket

    try:
        return socket.gethostname()
    except OSError:
        return "unknown"


class _Heartbeat:
    """Touch a claim file periodically so the coordinator sees us alive.

    ``count`` records how many beats landed — the worker stamps it into
    its done file so the coordinator's metrics can tell a quick job
    (zero beats) from one that held a claim through several intervals.
    """

    def __init__(self, path: Path, interval: float):
        self._path = path
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._beat, daemon=True)
        self.count = 0

    def _beat(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                os.utime(self._path)
            except OSError:
                pass  # requeued or already collected; the done write decides
            else:
                self.count += 1

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()


def claim_next(run_root: Path) -> Path | None:
    """Atomically claim one pending job; None when nothing is claimable.

    Closed runs are never claimed from: the coordinator is gone
    (timeout or crash), so nobody would ever collect the result —
    workers only persist anything through their coordinator's store.
    """
    if (run_root / CLOSED_MARKER).exists():
        return None
    pending = run_root / PENDING_DIR
    if not pending.is_dir():
        return None
    for path in sorted(pending.glob("*.json")):
        target = run_root / CLAIMED_DIR / path.name
        try:
            # A claim's mtime is its heartbeat, and rename keeps the
            # pending file's: start it now, or a job that waited longer
            # than the stale threshold (or was requeued from a dead
            # worker) is claimed already stale and runs twice.
            os.utime(path)
            os.rename(path, target)
        except OSError:
            continue  # another worker won the rename
        return target
    return None


def execute_claim(
    run_root: Path, claim: Path, *, heartbeat: float = DEFAULT_HEARTBEAT
) -> str | None:
    """Execute one claimed job and write its done file atomically.

    Returns the job id, or None when the claim vanished before we could
    read it (the coordinator requeued it as stale).  Job exceptions
    become a ``failure`` body — exactly the string every other backend
    reports — never a worker crash.
    """
    try:
        text = claim.read_text()
    except OSError:
        return None
    try:
        spec = job_from_json(text)
    except SpoolError as error:
        # A corrupt job file must not kill the worker: report it as a
        # failure (the coordinator matches done files by name, so no
        # job_id is needed) and keep serving.
        atomic_write(
            run_root / DONE_DIR / claim.name,
            canonical_json({"failure": describe_error(error).message}),
        )
        try:
            claim.unlink()
        except OSError:
            pass
        return None
    with _Heartbeat(claim, heartbeat) as beats:
        try:
            payload = execute_job(spec)
        except Exception as error:
            body: dict = {
                "job_id": spec.job_id,
                "failure": describe_error(error).message,
            }
        else:
            body = {"job_id": spec.job_id, "payload": payload}
    # Who served this job, and how long it held the claim (in beats):
    # the coordinator folds these into the run's backend metrics.
    body["worker"] = {
        "pid": os.getpid(),
        "host": _hostname(),
        "heartbeats": beats.count,
    }
    try:
        atomic_write(run_root / DONE_DIR / claim.name, canonical_json(body))
    except OSError:
        # The coordinator collected a duplicate of this job and destroyed
        # the run while we were executing; our result is redundant.
        return None
    try:
        claim.unlink()
    except OSError:
        pass
    return spec.job_id


@dataclass
class WorkerStats:
    """What one ``serve`` loop accomplished."""

    executed: int = 0
    skipped: int = 0  # claims that vanished mid-read (stale requeue races)


def _discover_runs(spool: Path) -> list[Path]:
    """Run directories under a spool path (or the path itself)."""
    if (spool / PENDING_DIR).is_dir():
        return [spool]
    if not spool.is_dir():
        return []
    return sorted(
        child for child in spool.iterdir() if (child / PENDING_DIR).is_dir()
    )


def _run_abandoned(run_root: Path) -> bool:
    """Closed = the coordinator is done with it (success destroys the
    directory entirely, so a lingering closed run means abandonment)."""
    return (run_root / CLOSED_MARKER).exists()


def serve(
    spool_dir: str | Path,
    *,
    poll: float = 0.2,
    max_idle: float | None = None,
    max_jobs: int | None = None,
    once: bool = False,
    heartbeat: float = DEFAULT_HEARTBEAT,
    progress: Callable[[str], None] | None = None,
) -> WorkerStats:
    """The ``repro lab worker`` loop: claim, execute, repeat.

    ``spool_dir`` may be one run's directory or a parent spool holding
    many; jobs are claimed across every run found.  Coordinators
    destroy their run directory once every result is collected, so a
    clean spool means "waiting for the next batch" and the worker keeps
    serving batch after batch.  The loop exits after ``max_idle``
    seconds without claimable work, with ``once`` as soon as one full
    scan finds nothing to claim, after ``max_jobs`` executed jobs (a
    deterministic bound for tests and CI — no reliance on idle
    timing), when a ``STOP`` file appears in the spool directory
    (``touch <spool-dir>/STOP`` drains and stops every worker
    gracefully), or when the only runs left are abandoned (closed but
    never destroyed: a crashed or timed-out coordinator nobody will
    collect for).  A spool directory that does not exist yet is simply
    polled into existence (workers routinely start before their
    coordinator).
    """
    spool = Path(spool_dir)
    stats = WorkerStats()
    idle_since = time.monotonic()
    while True:
        runs = _discover_runs(spool)
        worked = False
        for run_root in runs:
            claim = claim_next(run_root)
            if claim is None:
                continue
            job_id = execute_claim(run_root, claim, heartbeat=heartbeat)
            worked = True
            if job_id is None:
                stats.skipped += 1
                continue
            stats.executed += 1
            if progress is not None:
                progress(f"worker: executed {job_id} ({run_root.name})")
            if max_jobs is not None and stats.executed >= max_jobs:
                return stats
        if worked:
            idle_since = time.monotonic()
            continue
        if once:
            return stats
        if (spool / STOP_MARKER).exists():
            return stats
        if runs and all(_run_abandoned(run_root) for run_root in runs):
            return stats
        if max_idle is not None and time.monotonic() - idle_since > max_idle:
            return stats
        time.sleep(poll)
