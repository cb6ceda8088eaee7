"""Tests for the content-addressed result store and its SQLite index."""

from __future__ import annotations

import json
import shutil
import sqlite3
import sys
import threading
from contextlib import closing
from pathlib import Path

import repro
from repro.lab import (
    diff_runs,
    render_diff,
    run_jobs,
    scenario_job,
)
from repro.lab.hashing import canonical_json
from repro.lab.jobs import JobSpec
from repro.lab.manifest import read_manifests
from repro.lab.store import INDEX_VERSION, ArtifactStore
from repro.scenarios import load_grid

SPEC = JobSpec("E01", "experiment", "Figure 3 layout")
PAYLOAD = {
    "job_id": "E01",
    "kind": "experiment",
    "title": "Figure 3: XOR mapping layout",
    "headers": ["row", "mod0"],
    "rows": [[0, 0], [1, 9]],
    "checks": [
        {"claim": "layout", "expected": "x", "measured": "x", "passed": True}
    ],
    "notes": [],
    "all_passed": True,
    "elapsed_seconds": 0.25,
}
PORTS_GRID = Path(__file__).resolve().parents[2] / "examples" / (
    "scenario_ports_grid.json"
)


class TestArtifactStore:
    def test_miss_then_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        config_hash = SPEC.config_hash("1.0.0")
        assert store.load(config_hash) is None
        record = store.save(
            SPEC, PAYLOAD, run_id="r1", package_version="1.0.0"
        )
        loaded = store.load(config_hash)
        assert loaded == record
        assert loaded["rows"] == PAYLOAD["rows"]
        assert loaded["config_hash"] == config_hash
        assert loaded["package_version"] == "1.0.0"

    def test_artifact_is_content_addressed_json(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        record = store.save(
            SPEC, PAYLOAD, run_id="r1", package_version="1.0.0"
        )
        with closing(sqlite3.connect(store.index_path)) as db:
            [(address, body)] = db.execute(
                "SELECT config_hash, body FROM results"
            ).fetchall()
        assert address == record["config_hash"]
        assert json.loads(body)["job_id"] == "E01"
        # The index is the only copy: no per-result files.
        assert not list(store.root.rglob("*.json"))

    def test_version_bump_is_a_cache_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        store.save(SPEC, PAYLOAD, run_id="r1", package_version="1.0.0")
        assert store.load(SPEC.config_hash("9.9.9")) is None

    def test_save_commits_its_row_before_returning(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        record = store.save(SPEC, PAYLOAD, run_id="r1", package_version="1.0.0")
        # Another store on the root, as another process would open it,
        # already sees the result; no run is recorded until one ends.
        with ArtifactStore(tmp_path / "lab") as other:
            assert other.load(record["config_hash"]) == record
            assert [row["job_id"] for row in other.results()] == ["E01"]
            assert read_manifests(other) == []
        store.close()

    def test_index_rows(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        store.save(SPEC, PAYLOAD, run_id="r1", package_version="1.0.0")
        results = store.results()
        assert len(results) == 1
        assert results[0]["job_id"] == "E01"
        assert results[0]["all_passed"] == 1
        assert "body" not in results[0]
        # Results are all the index holds; a run's record is its manifest.
        with closing(sqlite3.connect(store.index_path)) as db:
            tables = db.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            ).fetchall()
        assert tables == [("results",)]

    def test_save_overwrites_same_config(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        store.save(SPEC, PAYLOAD, run_id="r1", package_version="1.0.0")
        changed = dict(PAYLOAD, all_passed=False)
        store.save(SPEC, changed, run_id="r2", package_version="1.0.0")
        assert store.load(SPEC.config_hash("1.0.0"))["all_passed"] is False
        [row] = store.results()
        assert (row["run_id"], row["all_passed"]) == ("r2", 0)

    def test_empty_store_queries(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        assert store.results() == []
        assert read_manifests(store) == []
        assert store.load("f" * 64) is None
        assert store.artifact_bytes("f" * 64) is None
        assert store.verify()["checked"] == 0
        # Reads on a missing root create nothing.
        assert not store.root.exists()
        assert store.rebuild_index() == 0


class TestArtifactBytes:
    def test_raw_bytes_are_what_save_serialised(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        record = store.save(
            SPEC, PAYLOAD, run_id="r1", package_version="1.0.0"
        )
        raw = store.artifact_bytes(record["config_hash"])
        assert raw == canonical_json(record).encode()
        assert json.loads(raw) == record

    def test_miss_and_corrupt_artifact_are_none(self, tmp_path, tamper):
        store = ArtifactStore(tmp_path / "lab")
        assert store.artifact_bytes("f" * 64) is None
        record = store.save(
            SPEC, PAYLOAD, run_id="r1", package_version="1.0.0"
        )
        tamper(store, record["config_hash"], "{truncated")
        # Corrupt bytes are never served as a cached result.
        assert store.artifact_bytes(record["config_hash"]) is None


class TestThreads:
    def test_threads_share_one_store_while_another_reads(
        self, tmp_path, sqlite_connects
    ):
        """Serve's queue and handler threads share one store.

        Eight writer threads (more than the cores) interleave ``save``
        and ``load`` on one store, with a tiny switch interval, while a
        second store on the same root reads every committed result.
        """
        store = ArtifactStore(tmp_path / "lab")
        reader = ArtifactStore(tmp_path / "lab")
        shared = JobSpec("shared", "experiment", "saved by every thread")
        committed: dict[str, bytes] = {}
        shared_bodies: set[bytes] = set()
        errors: list[BaseException] = []
        writing_done = threading.Event()
        # All writers make their first save (which opens the connection)
        # together.
        start = threading.Barrier(8, timeout=30)

        def write(index: int) -> None:
            try:
                start.wait()
                for item in range(10):
                    spec = JobSpec(f"T{index}-{item}", "experiment", "mine")
                    record = store.save(
                        spec, PAYLOAD, run_id=f"r{index}", package_version="1.0.0"
                    )
                    body = canonical_json(record).encode()
                    address = record["config_hash"]
                    assert store.artifact_bytes(address) == body
                    assert store.load(address) == record
                    committed[address] = body
                    record = store.save(
                        shared, PAYLOAD, run_id=f"r{index}", package_version="1.0.0"
                    )
                    shared_bodies.add(canonical_json(record).encode())
            except BaseException as error:  # reported by the assert below
                errors.append(error)

        def read() -> None:
            try:
                while not writing_done.is_set():
                    for address, body in list(committed.items()):
                        assert reader.artifact_bytes(address) == body
            except BaseException as error:  # reported by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writers = [
                threading.Thread(target=write, args=(index,)) for index in range(8)
            ]
            reading = threading.Thread(target=read)
            reading.start()
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
                assert not thread.is_alive()
            writing_done.set()
            reading.join(timeout=60)
            assert not reading.is_alive()
        finally:
            writing_done.set()
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(committed) == 80
        for address, body in committed.items():
            assert store.artifact_bytes(address) == body
            assert reader.artifact_bytes(address) == body
        assert store.artifact_bytes(shared.config_hash("1.0.0")) in shared_bodies
        assert len(store.results()) == len(committed) + 1
        # One connection per store, however many threads raced to open it.
        assert sqlite_connects.connects == 2
        store.close()
        reader.close()


V2_SCHEMA = """
CREATE TABLE runs (
    run_id TEXT PRIMARY KEY,
    created_at TEXT NOT NULL,
    package_version TEXT NOT NULL,
    job_count INTEGER NOT NULL,
    cache_hits INTEGER NOT NULL,
    failures INTEGER NOT NULL,
    elapsed_seconds REAL NOT NULL
);
CREATE TABLE results (
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
CREATE INDEX idx_results_job ON results (job_id);
"""


def write_legacy_root(source: ArtifactStore, root: Path) -> None:
    """Copy ``source`` into the earlier layout: one file per result.

    ``artifacts/<hash>/result.json`` files, manifests that name them,
    and an ``index.sqlite`` whose ``results`` rows hold only paths.
    """
    shutil.copytree(source.runs_dir, root / "runs")
    for path in root.glob("runs/*/manifest.json"):
        manifest = json.loads(path.read_text())
        for job in manifest["jobs"]:
            job["artifact"] = str(
                root / "artifacts" / job["config_hash"] / "result.json"
            )
        path.write_text(json.dumps(manifest, indent=2))
    with closing(sqlite3.connect(root / "index.sqlite")) as db, db:
        db.executescript(V2_SCHEMA)
        for row in source.results():
            path = root / "artifacts" / row["config_hash"] / "result.json"
            path.parent.mkdir(parents=True)
            path.write_bytes(source.artifact_bytes(row["config_hash"]))
            db.execute(
                "INSERT INTO results VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (*row.values(), str(path)),
            )
        for run in read_manifests(source):
            db.execute(
                "INSERT INTO runs VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    run["run_id"],
                    run["created_at"],
                    run["package_version"],
                    run["job_count"],
                    run["cache_hits"],
                    len(run["failures"]),
                    run["elapsed_seconds"],
                ),
            )


class TestUpgrade:
    """Roots in the earlier layout, one file per result, are imported."""

    def build(self, tmp_path, monkeypatch, tamper):
        """A legacy root holding two runs whose diff has something to say."""
        jobs = [
            scenario_job(spec)
            for spec in load_grid(PORTS_GRID.read_text()).expand()
        ]
        source = ArtifactStore(tmp_path / "source")
        first = run_jobs(jobs[:2], store=source, backend="serial")
        monkeypatch.setattr(repro, "__version__", "0.0.1-candidate")
        second = run_jobs(jobs[1:], store=source, backend="serial")
        monkeypatch.undo()
        # Run B's copy of the shared design point moved a cycle count.
        moved = second.outcomes[0].record
        rows = [
            [metric, value + 1 if metric == "latency" else value]
            for metric, value in moved["rows"]
        ]
        tamper(source, moved["config_hash"], canonical_json(dict(moved, rows=rows)))
        legacy = tmp_path / "legacy"
        write_legacy_root(source, legacy)
        return jobs, source, legacy, (first.run_id, second.run_id)

    def test_legacy_root_is_served_as_cache_hits(
        self, tmp_path, monkeypatch, tamper
    ):
        jobs, source, legacy, runs = self.build(tmp_path, monkeypatch, tamper)
        files = {
            path.parent.name: path.read_bytes()
            for path in legacy.glob("artifacts/*/result.json")
        }
        assert len(files) == 4
        expected_diff = render_diff(diff_runs(source, *runs))
        with ArtifactStore(legacy) as store:
            for address, raw in files.items():
                assert store.artifact_bytes(address) == raw
            assert render_diff(diff_runs(store, *runs)) == expected_diff
            assert sorted(run["run_id"] for run in read_manifests(store)) == sorted(runs)
            rerun = run_jobs(jobs[:2], store=store, backend="serial")
            assert (rerun.cache_hits, rerun.executed) == (2, 0)
        with closing(sqlite3.connect(legacy / "index.sqlite")) as db:
            assert db.execute("PRAGMA user_version").fetchone()[0] == INDEX_VERSION
            # The earlier layout's runs table stays on disk, unread.
            assert db.execute("SELECT COUNT(*) FROM runs").fetchone()[0] == 2
        # The old files stay on disk until someone deletes them.
        assert len(list(legacy.glob("artifacts/*/result.json"))) == 4

    def test_import_runs_once_and_lab_index_repeats_it(
        self, tmp_path, monkeypatch, tamper
    ):
        _, source, legacy, _ = self.build(tmp_path, monkeypatch, tamper)
        address = source.results()[0]["config_hash"]
        # Files holding no record under their directory's hash are
        # never imported.
        misfiled = legacy / "artifacts" / ("0" * 64) / "result.json"
        misfiled.parent.mkdir()
        misfiled.write_bytes(source.artifact_bytes(address))
        junk = legacy / "artifacts" / ("1" * 64) / "result.json"
        junk.parent.mkdir()
        junk.write_text("[]")
        with ArtifactStore(legacy) as store:
            assert len(store.results()) == 4
        # A file that appears after the upgrade waits for `repro lab index`.
        late = dict(source.load(address), config_hash="2" * 64)
        path = legacy / "artifacts" / ("2" * 64) / "result.json"
        path.parent.mkdir()
        path.write_text(canonical_json(late))
        with ArtifactStore(legacy) as store:
            assert store.load("2" * 64) is None
            assert store.rebuild_index() == 5
            assert store.load("2" * 64) == late
            assert store.load("0" * 64) is None
            assert store.load("1" * 64) is None


class TestVerify:
    def run_one(self, tmp_path):
        from repro.lab.executor import run_jobs
        from repro.lab.jobs import build_registry

        store = ArtifactStore(tmp_path / "lab")
        run_jobs(
            [build_registry()["E01"]], store=store, backend="serial"
        )
        return store

    def test_clean_store_verifies_ok(self, tmp_path):
        store = self.run_one(tmp_path)
        report = store.verify()
        assert report["checked"] == 1
        assert len(report["ok"]) == 1
        assert not (
            report["stale"]
            or report["mismatched"]
            or report["corrupt"]
            or report["unverifiable"]
        )

    def test_corrupt_artifact_is_flagged(self, tmp_path, tamper):
        store = self.run_one(tmp_path)
        address = store.verify()["ok"][0]
        tamper(store, address, "GARBAGE{")
        report = store.verify()
        assert report["corrupt"] == [address]

    def test_misfiled_artifact_is_mismatched(self, tmp_path, tamper):
        store = self.run_one(tmp_path)
        address = store.verify()["ok"][0]
        wrong = "0" * 64
        tamper(store, wrong, store.artifact_bytes(address).decode(), source=address)
        report = store.verify()
        assert wrong in report["mismatched"]
        assert address in report["ok"]

    def test_fingerprint_drift_is_stale(self, tmp_path, tamper):
        from repro.lab.hashing import config_hash

        store = self.run_one(tmp_path)
        address = store.verify()["ok"][0]
        record = store.load(address)
        record["config"]["source_fingerprint"] = "f" * 64
        # File under the drifted config's recomputed hash so the record
        # is internally consistent but from another source tree.
        drifted = config_hash(record["config"])
        record["config_hash"] = drifted
        tamper(store, drifted, canonical_json(record), source=address)
        report = store.verify()
        assert drifted in report["stale"]
        assert address in report["ok"]

    def test_pre_schema2_record_is_unverifiable(self, tmp_path, tamper):
        store = self.run_one(tmp_path)
        address = store.verify()["ok"][0]
        record = store.load(address)
        del record["config"]
        tamper(store, address, canonical_json(record))
        report = store.verify()
        assert report["unverifiable"] == [address]

    def test_verify_empty_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        report = store.verify()
        assert report["checked"] == 0
