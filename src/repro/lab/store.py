"""Content-addressed artifact store with a SQLite cross-run index.

Layout under the lab root (default ``.repro-lab/``)::

    artifacts/<config-hash>/result.json   one record per job config
    runs/<run-id>/manifest.json           written by repro.lab.manifest
    runs/<run-id>/report.md
    index.sqlite                          `runs` and `results` tables

The artifact's address is the canonical hash of its job config plus
the package version (see :mod:`repro.lab.hashing`), so a re-run of an
unchanged job is a pure cache hit and an interrupted sweep resumes
from whatever finished.  The SQLite index is a *derived* view — it can
always be rebuilt from the artifact files (``rebuild_index``), which
is what ``repro lab index`` does after crashes or manual surgery.

``save`` writes only the artifact file.  The index is written once per
run: ``record_run`` inserts every ``results`` row of the run and its
``runs`` row in one transaction when the run ends (an interrupted run
commits the rows of its saved artifacts through ``index_results`` and
records no run).  A run's rows therefore appear when it ends, and a
killed run (SIGKILL, an unhandled SIGTERM, power loss) leaves artifacts
the index does not list until ``repro lab index`` rebuilds it.

Only the parent orchestration process writes the store; workers hand
payloads back over the process pool, keeping SQLite single-writer.
"""

from __future__ import annotations

import json
import os
import shutil
import sqlite3
import threading
import time
from contextlib import closing
from pathlib import Path
from typing import Iterable

import repro
from repro.errors import ReproError
from repro.lab.hashing import canonical_json, config_hash
from repro.lab.jobs import JobSpec

RESULT_FILENAME = "result.json"
SCHEMA_VERSION = 2


class StoreMergeError(ReproError):
    """A lab-root merge that cannot proceed (missing or self-referential)."""

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id TEXT PRIMARY KEY,
    created_at TEXT NOT NULL,
    package_version TEXT NOT NULL,
    job_count INTEGER NOT NULL,
    cache_hits INTEGER NOT NULL,
    failures INTEGER NOT NULL,
    elapsed_seconds REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    config_hash TEXT PRIMARY KEY,
    job_id TEXT NOT NULL,
    kind TEXT NOT NULL,
    title TEXT NOT NULL,
    package_version TEXT NOT NULL,
    all_passed INTEGER NOT NULL,
    elapsed_seconds REAL NOT NULL,
    created_at TEXT NOT NULL,
    run_id TEXT NOT NULL,
    artifact_path TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_job ON results (job_id);
"""


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def atomic_write_text(path: Path, text: str) -> None:
    """Write-temp-then-``os.replace`` so readers never see a partial file.

    The single definition of the crash-safe write idiom used for
    artifacts, spool files and merges.  The dotted
    ``.{name}.{pid}.{thread}.tmp`` spelling keeps in-flight temp files
    invisible to every ``*.json`` / ``*/result.json`` glob in the lab,
    and unique per writer: two threads of one process (the serve queue
    runners saving the same design point) never share a temp file.
    """
    temp = path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    temp.write_text(text)
    os.replace(temp, path)


def default_lab_root() -> str:
    """The lab root every front end agrees on: $REPRO_LAB_ROOT or .repro-lab."""
    import os

    return os.environ.get("REPRO_LAB_ROOT", ".repro-lab")


class ArtifactStore:
    """Read/write access to one lab root directory."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else Path(default_lab_root())

    # -- paths -----------------------------------------------------------

    @property
    def artifacts_dir(self) -> Path:
        return self.root / "artifacts"

    @property
    def runs_dir(self) -> Path:
        return self.root / "runs"

    @property
    def index_path(self) -> Path:
        return self.root / "index.sqlite"

    def artifact_path(self, config_hash: str) -> Path:
        return self.artifacts_dir / config_hash / RESULT_FILENAME

    # -- artifacts -------------------------------------------------------

    def load(self, config_hash: str) -> dict | None:
        """The stored record for one config hash, or None on cache miss.

        A corrupt or unreadable artifact (interrupted write, manual
        surgery) counts as a miss: the job re-executes and the save
        overwrites the bad file.
        """
        path = self.artifact_path(config_hash)
        if not path.is_file():
            return None
        try:
            return json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            return None

    def artifact_bytes(self, config_hash: str) -> bytes | None:
        """The artifact's raw canonical-JSON bytes, or None on miss.

        What ``repro lab serve`` returns from ``GET /v1/results/<hash>``:
        the stored file is already canonical JSON, so serving it
        byte-for-byte keeps the strong ETag (the config hash) honest —
        no re-serialization that could reorder keys between requests.
        Corrupt artifacts count as misses, exactly like :meth:`load`.
        """
        path = self.artifact_path(config_hash)
        if not path.is_file():
            return None
        try:
            raw = path.read_bytes()
            json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            return None
        return raw

    def save(
        self,
        spec: JobSpec,
        payload: dict,
        *,
        run_id: str,
        package_version: str | None = None,
    ) -> dict:
        """Write one job's artifact file; returns the full stored record.

        The write is temp-file + ``os.replace``, so a crash mid-save
        (worker killed, disk full, power loss) can never leave a
        truncated ``result.json`` behind — readers see the old artifact
        or the new one, never garbage.  The record embeds the full
        ``config`` dict its address was hashed from, which is what lets
        ``repro lab index --verify`` recompute hashes and report drift
        without the original :class:`JobSpec`.

        The SQLite index is not touched: the caller hands the returned
        records to :meth:`record_run` when the run ends, which writes
        all of their rows in one transaction.  Until then (or after a
        hard kill, until ``repro lab index``) the artifact is a cache
        hit on disk that the index does not list yet.
        """
        version = package_version or repro.__version__
        config = spec.config(version)
        address = config_hash(config)
        record = dict(payload)
        record.update(
            schema=SCHEMA_VERSION,
            config=config,
            config_hash=address,
            package_version=version,
            created_at=_utc_now(),
            run_id=run_id,
        )
        path = self.artifact_path(address)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, canonical_json(record))
        return record

    # -- sqlite index ----------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        self.root.mkdir(parents=True, exist_ok=True)
        connection = sqlite3.connect(self.index_path)
        connection.executescript(_SCHEMA)
        return connection

    def _insert_results(
        self, connection: sqlite3.Connection, records: Iterable[dict]
    ) -> None:
        connection.executemany(
            "INSERT OR REPLACE INTO results (config_hash, job_id, kind, "
            "title, package_version, all_passed, elapsed_seconds, "
            "created_at, run_id, artifact_path) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [
                (
                    record["config_hash"],
                    record["job_id"],
                    record["kind"],
                    record["title"],
                    record["package_version"],
                    int(record["all_passed"]),
                    record["elapsed_seconds"],
                    record["created_at"],
                    record["run_id"],
                    str(self.artifact_path(record["config_hash"])),
                )
                for record in records
            ],
        )

    def _insert_run(
        self,
        connection: sqlite3.Connection,
        *,
        run_id: str,
        created_at: str,
        package_version: str,
        job_count: int,
        cache_hits: int,
        failures: int,
        elapsed_seconds: float,
    ) -> None:
        connection.execute(
            "INSERT OR REPLACE INTO runs (run_id, created_at, "
            "package_version, job_count, cache_hits, failures, "
            "elapsed_seconds) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                run_id,
                created_at,
                package_version,
                job_count,
                cache_hits,
                failures,
                elapsed_seconds,
            ),
        )

    def index_results(self, records: Iterable[dict]) -> None:
        """Insert the ``results`` rows of saved records in one transaction.

        What an interrupted run commits for the artifacts it already
        wrote, without a ``runs`` row; a run that finishes goes through
        :meth:`record_run` instead.
        """
        with closing(self._connect()) as connection, connection:
            self._insert_results(connection, records)

    def record_run(
        self,
        run_id: str,
        *,
        records: Iterable[dict],
        job_count: int,
        cache_hits: int,
        failures: int,
        elapsed_seconds: float,
        package_version: str | None = None,
    ) -> None:
        """Index one finished run: its ``results`` rows and ``runs`` row.

        ``records`` are what :meth:`save` returned during the run.  All
        rows go in over one connection in one transaction, so a run
        costs the index one commit however many artifacts it wrote, and
        its rows appear together when the run ends.
        """
        with closing(self._connect()) as connection, connection:
            self._insert_results(connection, records)
            self._insert_run(
                connection,
                run_id=run_id,
                created_at=_utc_now(),
                package_version=package_version or repro.__version__,
                job_count=job_count,
                cache_hits=cache_hits,
                failures=failures,
                elapsed_seconds=elapsed_seconds,
            )

    def runs(self, limit: int = 20) -> list[dict]:
        """Most recent runs, newest first."""
        if not self.index_path.is_file():
            return []
        with closing(self._connect()) as connection, connection:
            connection.row_factory = sqlite3.Row
            rows = connection.execute(
                "SELECT * FROM runs ORDER BY created_at DESC, run_id DESC "
                "LIMIT ?",
                (limit,),
            ).fetchall()
        return [dict(row) for row in rows]

    def results(self) -> list[dict]:
        """Every indexed result, ordered by job id."""
        if not self.index_path.is_file():
            return []
        with closing(self._connect()) as connection, connection:
            connection.row_factory = sqlite3.Row
            rows = connection.execute(
                "SELECT * FROM results ORDER BY job_id, created_at"
            ).fetchall()
        return [dict(row) for row in rows]

    def rebuild_index(self) -> int:
        """Recreate the SQLite index from the files on disk.

        Results come from ``artifacts/*/result.json``, run history from
        ``runs/*/manifest.json``; corrupt files are skipped.  Returns
        the number of artifacts indexed.
        """
        records = []
        if self.artifacts_dir.is_dir():
            for path in sorted(self.artifacts_dir.glob(f"*/{RESULT_FILENAME}")):
                record = self.load(path.parent.name)
                if record is not None:
                    records.append(record)
        manifests = []
        if self.runs_dir.is_dir():
            for path in sorted(self.runs_dir.glob("*/manifest.json")):
                try:
                    manifests.append(json.loads(path.read_text()))
                except (json.JSONDecodeError, UnicodeDecodeError, OSError):
                    continue
        if self.index_path.exists():
            self.index_path.unlink()
        with closing(self._connect()) as connection, connection:
            self._insert_results(connection, records)
            for manifest in manifests:
                if "run_id" not in manifest:
                    continue
                self._insert_run(
                    connection,
                    run_id=manifest["run_id"],
                    created_at=manifest.get("created_at", ""),
                    package_version=manifest.get("package_version", ""),
                    job_count=manifest.get("job_count", 0),
                    cache_hits=manifest.get("cache_hits", 0),
                    failures=len(manifest.get("failures", [])),
                    elapsed_seconds=manifest.get("elapsed_seconds", 0.0),
                )
        return len(records)

    def prune_stale_index(self) -> list[str]:
        """Drop index rows whose artifact files no longer exist.

        Artifacts deleted by hand (or lost to a partial sync) leave
        dangling ``results`` rows behind; ``repro lab index --verify
        --prune-stale`` calls this to make the index honest again.
        Returns the pruned config hashes.
        """
        if not self.index_path.is_file():
            return []
        with closing(self._connect()) as connection, connection:
            rows = connection.execute(
                "SELECT config_hash FROM results"
            ).fetchall()
            stale = [
                address
                for (address,) in rows
                if not self.artifact_path(address).is_file()
            ]
            connection.executemany(
                "DELETE FROM results WHERE config_hash = ?",
                [(address,) for address in stale],
            )
        return stale

    # -- merge + verify --------------------------------------------------

    def merge(self, other: "ArtifactStore") -> dict:
        """Fold another lab root's artifacts and run history into this one.

        Content addressing makes this conflict-free: an artifact either
        exists here already (same hash, same bytes — skipped) or it
        doesn't (copied byte-for-byte, atomically).  A *corrupt* local
        artifact is replaced by the other store's good copy.  Run
        directories are copied whole when absent.  The SQLite index is
        a derived view, so it is simply rebuilt afterwards — which
        makes the whole operation idempotent and order-independent.

        Returns counts: ``artifacts_imported``, ``artifacts_skipped``,
        ``corrupt_skipped`` (unreadable source artifacts), and
        ``runs_imported``.
        """
        if not other.root.is_dir():
            raise StoreMergeError(
                f"no lab root at {other.root} — nothing to merge"
            )
        if os.path.realpath(other.root) == os.path.realpath(self.root):
            raise StoreMergeError(
                f"cannot merge a lab root into itself ({self.root})"
            )
        imported = skipped = corrupt = runs_imported = 0
        if other.artifacts_dir.is_dir():
            for path in sorted(other.artifacts_dir.glob(f"*/{RESULT_FILENAME}")):
                address = path.parent.name
                if other.load(address) is None:
                    corrupt += 1
                    continue
                if self.load(address) is not None:
                    skipped += 1
                    continue
                target = self.artifact_path(address)
                target.parent.mkdir(parents=True, exist_ok=True)
                atomic_write_text(target, path.read_text())
                imported += 1
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
        self.rebuild_index()
        return {
            "artifacts_imported": imported,
            "artifacts_skipped": skipped,
            "corrupt_skipped": corrupt,
            "runs_imported": runs_imported,
        }

    def verify(self) -> dict:
        """Recompute every stored artifact's config hash; report drift.

        Each artifact directory is named by the hash of the ``config``
        recorded inside it, so integrity is checkable without the
        original specs.  Buckets (lists of artifact addresses):

        * ``ok`` — hash recomputes, fingerprint matches current source;
        * ``stale`` — intact, but produced by a different source tree
          (dead cache entries after an edit; harmless);
        * ``mismatched`` — recorded config does not hash to the
          directory name (tampering or a mis-filed merge);
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
        if not self.artifacts_dir.is_dir():
            return report
        for path in sorted(self.artifacts_dir.glob(f"*/{RESULT_FILENAME}")):
            address = path.parent.name
            report["checked"] += 1
            try:
                record = json.loads(path.read_text())
            except (json.JSONDecodeError, UnicodeDecodeError, OSError):
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
