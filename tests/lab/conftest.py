"""Shared fixtures for the lab tests."""

from __future__ import annotations

import sqlite3
from contextlib import closing

import pytest


@pytest.fixture
def tamper():
    """``tamper(store, address, body, source=None)``: rewrite one stored body.

    Does what manual surgery on ``index.sqlite`` would, over a
    connection of its own.  With ``source``, the row at ``address`` is
    first made a copy of ``source``'s row, as a mis-filed merge would
    leave it.
    """

    def tamper(store, address: str, body: str, *, source: str | None = None):
        with closing(sqlite3.connect(store.index_path)) as db, db:
            if source is not None:
                db.execute(
                    "INSERT OR REPLACE INTO results SELECT ?, job_id, kind, "
                    "title, package_version, all_passed, elapsed_seconds, "
                    "created_at, run_id, body FROM results "
                    "WHERE config_hash = ?",
                    (address, source),
                )
            db.execute(
                "UPDATE results SET body = ? WHERE config_hash = ?",
                (body, address),
            )

    return tamper


@pytest.fixture
def sqlite_connects(monkeypatch):
    """Counts the connections ``repro.lab.store`` opens from now on."""

    class CountingSqlite:
        """``sqlite3`` as ``repro.lab.store`` sees it, counting connects."""

        connects = 0

        def __getattr__(self, name):
            return getattr(sqlite3, name)

        def connect(self, *args, **kwargs):
            self.connects += 1
            return sqlite3.connect(*args, **kwargs)

    counting = CountingSqlite()
    monkeypatch.setattr("repro.lab.store.sqlite3", counting)
    return counting


@pytest.fixture
def stored_results():
    """``stored_results(store, outcomes)``: each outcome's record as the
    store holds it, without its run id, timestamp and elapsed time.

    What backends must agree on: ``report.md`` holds only the job table,
    so a run's results are compared where they live.
    """

    def stored_results(store, outcomes) -> list[dict]:
        records = [store.load(o.record["config_hash"]) for o in outcomes]
        return [
            {
                key: value
                for key, value in record.items()
                if key not in ("run_id", "created_at", "elapsed_seconds")
            }
            for record in records
        ]

    return stored_results
