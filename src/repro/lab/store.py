"""Content-addressed result store: one SQLite index per lab root.

Layout under the lab root (default ``.repro-lab/``)::

    index.sqlite                  `results` rows, each holding its
                                  record's canonical JSON body
    runs/<run-id>/manifest.json   the only record of a finished run,
    runs/<run-id>/report.md       and its job table (kind, status,
                                  executed or cache), both written by
                                  repro.lab.manifest
    bench/<run-id>.json           pytest-benchmark files, copied in by
                                  ``repro lab history --ingest``

A result's address is the canonical hash of its job config plus the
package version (see :mod:`repro.lab.hashing`), so a re-run of an
unchanged job is a pure cache hit and an interrupted sweep resumes
from whatever finished.  ``index.sqlite`` holds the only copy of every
result: ``repro lab summarize``, ``lab diff`` and ``lab sweep
--output`` render results from it, and a run's files copy none.  A
batch looks its results up with :meth:`ArtifactStore.load_many`, one
query for the whole batch.

``save`` commits its row before it returns, so a process killed
mid-run keeps every result that finished.  The index runs in WAL mode
with ``synchronous=NORMAL``: a commit survives the process being
killed, but the last few may not survive a power cut.  Nothing is
fsynced per result, as with the per-result files this store replaced;
a lost result is only a cache miss.

Each store holds one connection for its life, opened on first use and
shared by its threads under one lock (serve's queue and handler threads
use one store); :meth:`ArtifactStore.close` releases it.  Other stores
on the same root, in this process or another, see every committed row.
A read on a root with no index returns a miss and creates nothing.

Only the parent orchestration process writes the store: pool and
spool workers hand payloads back, and the pool's forked workers never
touch the connection they inherit.

A root in the earlier layout, one ``artifacts/<hash>/result.json`` file
per result, is imported the first time its index is opened; the files
stay on disk and may be deleted afterwards.  An index written before
runs were recorded only in their manifests keeps its ``runs`` table on
disk; nothing reads it.  An index written before ``results`` lost its
job-id index keeps ``idx_results_job``: SQLite still maintains it, and
nothing drops it.  A new root has only the primary key's index.

The run and bench files under a lab root, and the spool's job files,
are written through :func:`atomic_write`, so a reader never sees half
a file.
"""

from __future__ import annotations

import json
import os
import shutil
import sqlite3
import threading
from collections.abc import Iterable
from datetime import datetime, timezone
from pathlib import Path

import repro
from repro.errors import ReproError
from repro.lab.hashing import canonical_json, config_hash
from repro.lab.jobs import JobSpec

#: The ``schema`` field of every stored record.
SCHEMA_VERSION = 2
#: The index layout, kept in ``PRAGMA user_version``.  Below 3, results
#: lived in files and ``results`` rows held only their paths.
INDEX_VERSION = 3
#: The earlier layout's result files, which the upgrade imports.
_LEGACY_RESULTS = "artifacts/*/result.json"


class StoreMergeError(ReproError):
    """A lab-root merge that cannot proceed (missing or self-referential)."""


#: The one table, indexed by its primary key alone: every lookup is by
#: config hash, and a job-id index would cost every commit a write that
#: only :meth:`ArtifactStore.results`' ordering reads.
_SCHEMA = """CREATE TABLE IF NOT EXISTS results (
    config_hash TEXT PRIMARY KEY,
    job_id TEXT NOT NULL,
    kind TEXT NOT NULL,
    title TEXT NOT NULL,
    package_version TEXT NOT NULL,
    all_passed INTEGER NOT NULL,
    elapsed_seconds REAL NOT NULL,
    created_at TEXT NOT NULL,
    run_id TEXT NOT NULL,
    body TEXT NOT NULL
)"""
_RESULT_METADATA = (
    "config_hash, job_id, kind, title, package_version, all_passed, "
    "elapsed_seconds, created_at, run_id"
)
_INSERT_RESULT = (
    f"INSERT OR REPLACE INTO results ({_RESULT_METADATA}, body) "
    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
)
#: Hashes per lookup query: SQLite before 3.32 binds at most 999
#: parameters in one statement.
_LOOKUP_CHUNK = 500


def utc_now() -> str:
    """Now, in UTC ISO 8601 with fixed-width microseconds
    (``2026-01-01T00:00:00.000000Z``): string order is time order, also
    within one second.  Every timestamp the lab and the service write
    (stored results, run manifests, submitted runs, bench files) is one
    of these.  ``isoformat`` spells it faster than ``strftime``; the
    slice drops its ``+00:00``."""
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")[:-6] + "Z"


def default_lab_root() -> str:
    """The lab root every front end agrees on: $REPRO_LAB_ROOT or .repro-lab."""
    return os.environ.get("REPRO_LAB_ROOT", ".repro-lab")


def atomic_write(path: Path, data: str | bytes) -> None:
    """Write-temp-then-``os.replace`` so readers never see a partial file.

    Text is written as UTF-8.  The dotted ``.{name}.{pid}.{thread}.tmp``
    spelling keeps in-flight temp files invisible to every ``*.json``
    glob, and unique per writer: two threads of one process never share
    a temp file.  A failed write leaves ``path`` as it was and removes
    the temp file.
    """
    temp = path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        temp.write_bytes(data.encode() if isinstance(data, str) else data)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _record_of(body: str, address: str) -> dict | None:
    """The record a stored body holds, or None when it holds none.

    A body counts only when it decodes to a JSON object filed under its
    own config hash.  Anything else (truncated or hand-edited text, a
    record copied under another hash) is a cache miss, and the next
    save of that design point overwrites it.
    """
    try:
        record = json.loads(body)
    except ValueError:
        return None
    if isinstance(record, dict) and record.get("config_hash") == address:
        return record
    return None


def _result_row(record: dict, body: str) -> tuple:
    """One ``results`` row: the record's metadata columns, then its body."""
    return (
        record["config_hash"],
        record.get("job_id", ""),
        record.get("kind", ""),
        record.get("title", ""),
        record.get("package_version", ""),
        int(bool(record.get("all_passed", False))),
        record.get("elapsed_seconds", 0.0),
        record.get("created_at", ""),
        record.get("run_id", ""),
        body,
    )


def _adopt(connection: sqlite3.Connection, rows: list[tuple]) -> int:
    """Insert each result row whose hash has no valid row here yet.

    Rows are :func:`_result_row` tuples holding valid records.  A local
    row that holds a record wins; a missing or invalid one is replaced.
    Returns the number of rows inserted.
    """
    adopted = 0
    for row in rows:
        address = row[0]
        local = connection.execute(
            "SELECT body FROM results WHERE config_hash = ?", (address,)
        ).fetchone()
        if local is not None and _record_of(local[0], address) is not None:
            continue
        connection.execute(_INSERT_RESULT, row)
        adopted += 1
    return adopted


def _dicts(cursor: sqlite3.Cursor) -> list[dict]:
    names = [column[0] for column in cursor.description]
    return [dict(zip(names, row)) for row in cursor.fetchall()]


class ArtifactStore:
    """Read/write access to one lab root directory."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else Path(default_lab_root())
        self._lock = threading.Lock()
        self._connection: sqlite3.Connection | None = None

    # -- paths -----------------------------------------------------------

    @property
    def runs_dir(self) -> Path:
        return self.root / "runs"

    @property
    def bench_dir(self) -> Path:
        return self.root / "bench"

    @property
    def index_path(self) -> Path:
        return self.root / "index.sqlite"

    # -- connection ------------------------------------------------------

    def _connected(self, *, create: bool) -> sqlite3.Connection | None:
        """The held connection, opened on first use.

        The caller holds ``self._lock``.  Without ``create``, a root with
        no index yields None and nothing is created on disk.
        """
        if self._connection is None:
            if not create and not self.index_path.is_file():
                return None
            self.root.mkdir(parents=True, exist_ok=True)
            connection = sqlite3.connect(
                self.index_path, isolation_level=None, check_same_thread=False
            )
            try:
                connection.execute("PRAGMA journal_mode=WAL")
                connection.execute("PRAGMA synchronous=NORMAL")
                self._upgrade(connection)
            except BaseException:
                connection.close()
                raise
            self._connection = connection
        return self._connection

    def _upgrade(self, connection: sqlite3.Connection) -> None:
        """Bring an index below :data:`INDEX_VERSION` to this layout, once.

        The version is checked again inside an IMMEDIATE transaction, so
        two processes opening one old root import it once between them.
        """
        if connection.execute("PRAGMA user_version").fetchone()[0] >= INDEX_VERSION:
            return
        connection.execute("BEGIN IMMEDIATE")
        with connection:
            version = connection.execute("PRAGMA user_version").fetchone()[0]
            if version >= INDEX_VERSION:
                return
            # The earlier `results` rows held file paths, not bodies; the
            # import re-derives them from the files.
            connection.execute("DROP TABLE IF EXISTS results")
            connection.execute(_SCHEMA)
            self._import_files(connection)
            connection.execute(f"PRAGMA user_version = {INDEX_VERSION}")

    def _import_files(self, connection: sqlite3.Connection) -> int:
        """Import the earlier layout's result files.

        A result file is imported only when it holds a record under its
        directory's hash, and only where the index has no valid row for
        that hash.  The caller holds a transaction.  Returns the number
        of valid result files found.
        """
        rows = []
        for path in sorted(self.root.glob(_LEGACY_RESULTS)):
            address = path.parent.name
            try:
                body = path.read_bytes().decode("utf-8")
            except (OSError, UnicodeDecodeError):
                continue
            record = _record_of(body, address)
            if record is not None:
                rows.append(_result_row(record, body))
        _adopt(connection, rows)
        return len(rows)

    def close(self) -> None:
        """Close the held connection; a later call opens a new one."""
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- results ---------------------------------------------------------

    def _body(self, config_hash: str) -> str | None:
        with self._lock:
            connection = self._connected(create=False)
            if connection is None:
                return None
            row = connection.execute(
                "SELECT body FROM results WHERE config_hash = ?", (config_hash,)
            ).fetchone()
        return None if row is None else row[0]

    def load(self, config_hash: str) -> dict | None:
        """The stored record for one config hash, or None on cache miss.

        A body that is not a record under this hash counts as a miss:
        the job re-executes and its save overwrites the bad row.
        """
        body = self._body(config_hash)
        return None if body is None else _record_of(body, config_hash)

    def load_many(self, config_hashes: Iterable[str]) -> dict[str, dict]:
        """The stored records of several config hashes, keyed by hash.

        One query per :data:`_LOOKUP_CHUNK` hashes, however many there
        are.  A miss is absent from the result, and so is a body that is
        not a record under its hash, exactly as :meth:`load` counts it.
        """
        addresses = list(dict.fromkeys(config_hashes))
        rows: list[tuple[str, str]] = []
        with self._lock:
            connection = self._connected(create=False)
            if connection is None:
                return {}
            for low in range(0, len(addresses), _LOOKUP_CHUNK):
                chunk = addresses[low : low + _LOOKUP_CHUNK]
                marks = ", ".join("?" * len(chunk))
                rows += connection.execute(
                    "SELECT config_hash, body FROM results "
                    f"WHERE config_hash IN ({marks})",
                    chunk,
                ).fetchall()
        records: dict[str, dict] = {}
        for address, body in rows:
            record = _record_of(body, address)
            if record is not None:
                records[address] = record
        return records

    def artifact_bytes(self, config_hash: str) -> bytes | None:
        """The record's canonical-JSON bytes, or None on miss.

        What ``repro lab serve`` returns from ``GET /v1/results/<hash>``:
        exactly the bytes :meth:`save` serialised, with no re-encoding
        that could reorder keys between requests, so the strong ETag
        (the config hash) stays honest.  Invalid bodies count as misses,
        exactly like :meth:`load`.
        """
        body = self._body(config_hash)
        if body is None or _record_of(body, config_hash) is None:
            return None
        return body.encode()

    def save(
        self,
        spec: JobSpec,
        payload: dict,
        *,
        run_id: str,
        package_version: str | None = None,
    ) -> dict:
        """Store one job's record; returns the full stored record.

        The row and its body are committed before this returns, so a
        process killed mid-run keeps every result saved so far (see the
        module docstring for what a power cut may lose).  The record
        embeds the full ``config`` dict its address was hashed from,
        which is what lets ``repro lab index --verify`` recompute hashes
        and report drift without the original :class:`JobSpec`.  The
        address is the spec's own :meth:`~JobSpec.config_hash`, which
        the batch's lookup has already computed.
        """
        version = package_version or repro.__version__
        record = dict(payload)
        record.update(
            schema=SCHEMA_VERSION,
            config=spec.config(version),
            config_hash=spec.config_hash(version),
            package_version=version,
            created_at=utc_now(),
            run_id=run_id,
        )
        row = _result_row(record, canonical_json(record))
        with self._lock:
            self._connected(create=True).execute(_INSERT_RESULT, row)
        return record

    def results(self) -> list[dict]:
        """Every stored result's metadata (never its body), by job id."""
        with self._lock:
            connection = self._connected(create=False)
            if connection is None:
                return []
            return _dicts(
                connection.execute(
                    f"SELECT {_RESULT_METADATA} FROM results "
                    "ORDER BY job_id, created_at"
                )
            )

    def rebuild_index(self) -> int:
        """Import an earlier layout's result files.

        What ``repro lab index`` does.  Opening an old root's index
        imports it once anyway; this repeats the import for files that
        appeared since.  Returns the number of valid result files found.
        """
        with self._lock:
            connection = self._connected(create=True)
            connection.execute("BEGIN IMMEDIATE")
            with connection:
                return self._import_files(connection)

    # -- merge + verify --------------------------------------------------

    def merge(self, other: "ArtifactStore") -> dict:
        """Fold another lab root's results and runs into this one.

        Content addressing makes this conflict-free: a result either
        exists here already (same hash, so skipped) or it doesn't
        (copied, body byte for byte).  A local row that holds no valid
        record is replaced by the other root's good one, and rows of the
        other root that hold none are skipped.  Run directories are
        copied when absent.  Idempotent and order-independent.

        Returns counts: ``artifacts_imported``, ``artifacts_skipped``,
        ``corrupt_skipped`` (invalid source rows), and
        ``runs_imported`` (run directories copied).
        """
        if not other.root.is_dir():
            raise StoreMergeError(
                f"no lab root at {other.root} — nothing to merge"
            )
        if os.path.realpath(other.root) == os.path.realpath(self.root):
            raise StoreMergeError(
                f"cannot merge a lab root into itself ({self.root})"
            )
        rows: list[tuple] = []
        with other._lock:
            source = other._connected(create=False)
            if source is not None:
                rows = source.execute(
                    f"SELECT {_RESULT_METADATA}, body FROM results "
                    "ORDER BY config_hash"
                ).fetchall()
        valid = [row for row in rows if _record_of(row[-1], row[0]) is not None]
        runs_imported = 0
        if other.runs_dir.is_dir():
            for run_dir in sorted(other.runs_dir.iterdir()):
                if not run_dir.is_dir():
                    continue
                target = self.runs_dir / run_dir.name
                if target.exists():
                    continue
                self.runs_dir.mkdir(parents=True, exist_ok=True)
                shutil.copytree(run_dir, target)
                runs_imported += 1
        with self._lock:
            connection = self._connected(create=True)
            connection.execute("BEGIN IMMEDIATE")
            with connection:
                imported = _adopt(connection, valid)
        return {
            "artifacts_imported": imported,
            "artifacts_skipped": len(valid) - imported,
            "corrupt_skipped": len(rows) - len(valid),
            "runs_imported": runs_imported,
        }

    def verify(self) -> dict:
        """Recompute every stored result's config hash; report drift.

        Each row is keyed by the hash of the ``config`` recorded in its
        body, so integrity is checkable without the original specs.
        Buckets (lists of config hashes):

        * ``ok`` — hash recomputes, fingerprint matches current source;
        * ``stale`` — intact, but produced by a different source tree
          (dead cache entries after an edit; harmless);
        * ``mismatched`` — recorded config does not hash to the row's
          key (tampering or a mis-filed merge);
        * ``corrupt`` — unparseable JSON;
        * ``unverifiable`` — pre-schema-2 records with no ``config``.
        """
        from repro.lab.jobs import source_fingerprint

        report: dict = {
            "checked": 0,
            "ok": [],
            "stale": [],
            "mismatched": [],
            "corrupt": [],
            "unverifiable": [],
        }
        current = source_fingerprint()
        with self._lock:
            connection = self._connected(create=False)
            if connection is None:
                return report
            rows = connection.execute(
                "SELECT config_hash, body FROM results ORDER BY config_hash"
            ).fetchall()
        for address, body in rows:
            report["checked"] += 1
            try:
                record = json.loads(body)
            except ValueError:
                report["corrupt"].append(address)
                continue
            config = record.get("config") if isinstance(record, dict) else None
            if not isinstance(config, dict):
                report["unverifiable"].append(address)
                continue
            if config_hash(config) != address or record.get("config_hash") != address:
                report["mismatched"].append(address)
                continue
            if config.get("source_fingerprint") != current:
                report["stale"].append(address)
            else:
                report["ok"].append(address)
        return report
