"""Tests for the content-addressed artifact store and SQLite index."""

from __future__ import annotations

import json
import os
import threading

from repro.lab.jobs import JobSpec
from repro.lab.store import ArtifactStore

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


def record_run(store: ArtifactStore, run_id: str, *records: dict) -> None:
    """Index ``records`` as one finished run, the way ``run_jobs`` does."""
    store.record_run(
        run_id,
        records=records,
        job_count=len(records),
        cache_hits=0,
        failures=sum(not record["all_passed"] for record in records),
        elapsed_seconds=0.5,
        package_version="1.0.0",
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
        path = store.artifact_path(record["config_hash"])
        assert path.is_file()
        assert json.loads(path.read_text())["job_id"] == "E01"

    def test_version_bump_is_a_cache_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        store.save(SPEC, PAYLOAD, run_id="r1", package_version="1.0.0")
        assert store.load(SPEC.config_hash("9.9.9")) is None

    def test_save_writes_only_the_artifact(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        record = store.save(SPEC, PAYLOAD, run_id="r1", package_version="1.0.0")
        assert store.artifact_path(record["config_hash"]).is_file()
        # The index gets the row when the run is recorded, not before.
        assert not store.index_path.exists()
        assert store.results() == []

    def test_index_rows(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        record_run(
            store,
            "r1",
            store.save(SPEC, PAYLOAD, run_id="r1", package_version="1.0.0"),
        )
        results = store.results()
        assert len(results) == 1
        assert results[0]["job_id"] == "E01"
        assert results[0]["all_passed"] == 1
        runs = store.runs()
        assert len(runs) == 1
        assert runs[0]["run_id"] == "r1"
        assert runs[0]["job_count"] == 1

    def test_save_overwrites_same_config(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        record_run(
            store,
            "r1",
            store.save(SPEC, PAYLOAD, run_id="r1", package_version="1.0.0"),
        )
        changed = dict(PAYLOAD, all_passed=False)
        record_run(
            store,
            "r2",
            store.save(SPEC, changed, run_id="r2", package_version="1.0.0"),
        )
        assert store.load(SPEC.config_hash("1.0.0"))["all_passed"] is False
        [row] = store.results()
        assert (row["run_id"], row["all_passed"]) == ("r2", 0)

    def test_rebuild_index_from_artifacts(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        other = JobSpec("S-t", "sweep", "sweep t")
        record_run(
            store,
            "r1",
            store.save(SPEC, PAYLOAD, run_id="r1", package_version="1.0.0"),
            store.save(
                other,
                dict(PAYLOAD, job_id="S-t", kind="sweep"),
                run_id="r1",
                package_version="1.0.0",
            ),
        )
        assert len(store.results()) == 2
        store.index_path.unlink()
        assert store.results() == []
        assert store.rebuild_index() == 2
        assert [row["job_id"] for row in store.results()] == ["E01", "S-t"]

    def test_corrupt_artifact_is_a_cache_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        record = store.save(
            SPEC, PAYLOAD, run_id="r1", package_version="1.0.0"
        )
        store.artifact_path(record["config_hash"]).write_text("GARBAGE{")
        assert store.load(record["config_hash"]) is None
        # rebuild_index skips it instead of crashing.
        assert store.rebuild_index() == 0

    def test_rebuild_index_restores_run_history(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        run_dir = store.runs_dir / "r1"
        run_dir.mkdir(parents=True)
        (run_dir / "manifest.json").write_text(
            json.dumps(
                {
                    "run_id": "r1",
                    "created_at": "2026-07-29T00:00:00Z",
                    "package_version": "1.0.0",
                    "job_count": 3,
                    "cache_hits": 1,
                    "failures": ["E05"],
                    "elapsed_seconds": 1.5,
                }
            )
        )
        store.rebuild_index()
        runs = store.runs()
        assert len(runs) == 1
        assert runs[0]["run_id"] == "r1"
        assert runs[0]["failures"] == 1
        assert runs[0]["cache_hits"] == 1

    def test_empty_store_queries(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        assert store.results() == []
        assert store.runs() == []
        assert store.rebuild_index() == 0


class TestArtifactBytes:
    def test_raw_bytes_match_the_stored_file(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        record = store.save(
            SPEC, PAYLOAD, run_id="r1", package_version="1.0.0"
        )
        config_hash = record["config_hash"]
        raw = store.artifact_bytes(config_hash)
        assert raw == store.artifact_path(config_hash).read_bytes()
        assert json.loads(raw) == record

    def test_miss_and_corrupt_artifact_are_none(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        assert store.artifact_bytes("f" * 64) is None
        record = store.save(
            SPEC, PAYLOAD, run_id="r1", package_version="1.0.0"
        )
        path = store.artifact_path(record["config_hash"])
        path.write_text("{truncated")
        # Corrupt bytes are never served as a cached result.
        assert store.artifact_bytes(record["config_hash"]) is None


class TestAtomicSave:
    def test_save_leaves_no_temp_files(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        record = store.save(SPEC, PAYLOAD, run_id="r1", package_version="1.0.0")
        artifact_dir = store.artifact_path(record["config_hash"]).parent
        assert [p.name for p in artifact_dir.iterdir()] == ["result.json"]

    def test_interrupted_save_preserves_the_old_artifact(
        self, tmp_path, monkeypatch
    ):
        """A crash mid-save must never leave a truncated result.json.

        The write goes to a temp file first; killing the rename leaves
        the previous (valid) artifact untouched.
        """
        store = ArtifactStore(tmp_path / "lab")
        record = store.save(SPEC, PAYLOAD, run_id="r1", package_version="1.0.0")
        address = record["config_hash"]
        before = store.artifact_path(address).read_bytes()

        def crash_on_replace(src, dst):
            raise OSError("worker killed mid-rename")

        monkeypatch.setattr(
            "repro.lab.store.os.replace", crash_on_replace
        )
        import pytest

        with pytest.raises(OSError, match="mid-rename"):
            store.save(
                SPEC,
                dict(PAYLOAD, all_passed=False),
                run_id="r2",
                package_version="1.0.0",
            )
        monkeypatch.undo()
        # The stored artifact is byte-identical to before the crash and
        # still parses — never truncated, never half-written.
        assert store.artifact_path(address).read_bytes() == before
        assert store.load(address) == record

    def test_threads_saving_one_config_use_their_own_temp_files(
        self, tmp_path, monkeypatch
    ):
        """Two serve queue threads may save the same design point at once.

        Both ``os.replace`` calls are held at a barrier until both temp
        files are written; with a temp name shared by the process, the
        second rename finds its file already moved and raises.
        """
        store = ArtifactStore(tmp_path / "lab")
        barrier = threading.Barrier(2, timeout=10)
        replace = os.replace

        def gated_replace(src, dst):
            barrier.wait()
            replace(src, dst)

        monkeypatch.setattr("repro.lab.store.os.replace", gated_replace)
        errors: list[BaseException] = []

        def save():
            try:
                store.save(SPEC, PAYLOAD, run_id="r1", package_version="1.0.0")
            except BaseException as error:  # reported by the assert below
                errors.append(error)

        threads = [threading.Thread(target=save) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        artifact_dir = store.artifact_path(SPEC.config_hash("1.0.0")).parent
        assert [p.name for p in artifact_dir.iterdir()] == ["result.json"]


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

    def test_corrupt_artifact_is_flagged(self, tmp_path):
        store = self.run_one(tmp_path)
        address = store.verify()["ok"][0]
        store.artifact_path(address).write_text("GARBAGE{")
        report = store.verify()
        assert report["corrupt"] == [address]

    def test_misfiled_artifact_is_mismatched(self, tmp_path):
        import shutil

        store = self.run_one(tmp_path)
        address = store.verify()["ok"][0]
        wrong = "0" * 64
        shutil.copytree(
            store.artifact_path(address).parent,
            store.artifacts_dir / wrong,
        )
        report = store.verify()
        assert wrong in report["mismatched"]
        assert address in report["ok"]

    def test_fingerprint_drift_is_stale(self, tmp_path):
        from repro.lab.hashing import canonical_json, config_hash

        store = self.run_one(tmp_path)
        address = store.verify()["ok"][0]
        record = store.load(address)
        record["config"]["source_fingerprint"] = "f" * 64
        # Re-file under the drifted config's recomputed hash so the
        # artifact is internally consistent but from another source tree.
        drifted = config_hash(record["config"])
        record["config_hash"] = drifted
        path = store.artifact_path(drifted)
        path.parent.mkdir(parents=True)
        path.write_text(canonical_json(record))
        report = store.verify()
        assert drifted in report["stale"]
        assert address in report["ok"]

    def test_pre_schema2_record_is_unverifiable(self, tmp_path):
        store = self.run_one(tmp_path)
        address = store.verify()["ok"][0]
        record = store.load(address)
        del record["config"]
        from repro.lab.hashing import canonical_json

        store.artifact_path(address).write_text(canonical_json(record))
        report = store.verify()
        assert report["unverifiable"] == [address]

    def test_verify_empty_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        report = store.verify()
        assert report["checked"] == 0
