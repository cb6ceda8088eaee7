"""Tests for ArtifactStore.merge and the distributed-workflow paths.

Merging is what folds a detached worker's lab root back into the
primary store after a spool run against a synced copy.  Content
addressing makes it conflict-free; these tests pin the properties that
make it safe to run blindly: idempotent, order-independent, cache-
preserving, and corruption-tolerant.
"""

from __future__ import annotations

import pytest

from repro.lab.diffing import diff_runs
from repro.lab.executor import run_jobs
from repro.lab.jobs import build_registry
from repro.lab.manifest import read_manifests
from repro.lab.store import ArtifactStore, StoreMergeError


def run_subset(store, job_ids):
    registry = build_registry()
    return run_jobs(
        [registry[job_id] for job_id in job_ids], store=store, backend="serial"
    )


def artifact_addresses(store):
    return sorted(row["config_hash"] for row in store.results())


class TestMerge:
    def test_detached_store_folds_back(self, tmp_path):
        primary = ArtifactStore(tmp_path / "primary")
        detached = ArtifactStore(tmp_path / "detached")
        run_subset(primary, ["E01", "S-t"])
        report = run_subset(detached, ["E02", "S-lambda"])
        counts = primary.merge(detached)
        assert counts["artifacts_imported"] == 2
        assert counts["artifacts_skipped"] == 0
        assert counts["runs_imported"] == 1
        assert report.run_id in {run["run_id"] for run in read_manifests(primary)}
        assert len(artifact_addresses(primary)) == 4
        assert {row["job_id"] for row in primary.results()} == {
            "E01",
            "E02",
            "S-lambda",
            "S-t",
        }

    def test_merge_is_idempotent(self, tmp_path):
        primary = ArtifactStore(tmp_path / "primary")
        detached = ArtifactStore(tmp_path / "detached")
        run_subset(detached, ["E01", "E02"])
        first = primary.merge(detached)
        before = artifact_addresses(primary)
        second = primary.merge(detached)
        assert first["artifacts_imported"] == 2
        assert second["artifacts_imported"] == 0
        assert second["artifacts_skipped"] == 2
        assert artifact_addresses(primary) == before

    def test_merge_is_order_independent(self, tmp_path):
        stores = {}
        for name in ("a", "b"):
            stores[name] = ArtifactStore(tmp_path / name)
        run_subset(stores["a"], ["E01"])
        run_subset(stores["b"], ["E02", "S-t"])
        ab = ArtifactStore(tmp_path / "ab")
        ba = ArtifactStore(tmp_path / "ba")
        ab.merge(stores["a"])
        ab.merge(stores["b"])
        ba.merge(stores["b"])
        ba.merge(stores["a"])
        assert artifact_addresses(ab) == artifact_addresses(ba)
        assert [row["job_id"] for row in ab.results()] == [
            row["job_id"] for row in ba.results()
        ]

    def test_merged_artifacts_are_cache_hits(self, tmp_path):
        primary = ArtifactStore(tmp_path / "primary")
        detached = ArtifactStore(tmp_path / "detached")
        run_subset(detached, ["E01", "E02"])
        primary.merge(detached)
        report = run_subset(primary, ["E01", "E02"])
        assert report.cache_hits == 2
        assert report.executed == 0

    def test_merged_artifact_bytes_are_identical(self, tmp_path):
        primary = ArtifactStore(tmp_path / "primary")
        detached = ArtifactStore(tmp_path / "detached")
        run_subset(detached, ["E01"])
        primary.merge(detached)
        for address in artifact_addresses(detached):
            assert primary.artifact_bytes(address) == detached.artifact_bytes(
                address
            )

    def test_merge_into_itself_raises(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        run_subset(store, ["E01"])
        with pytest.raises(StoreMergeError, match="into itself"):
            store.merge(ArtifactStore(tmp_path / "lab"))

    def test_merge_missing_root_raises(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        with pytest.raises(StoreMergeError, match="no lab root"):
            store.merge(ArtifactStore(tmp_path / "nowhere"))

    def test_corrupt_source_artifact_is_skipped_and_counted(
        self, tmp_path, tamper
    ):
        primary = ArtifactStore(tmp_path / "primary")
        detached = ArtifactStore(tmp_path / "detached")
        run_subset(detached, ["E01", "E02"])
        victim = artifact_addresses(detached)[0]
        tamper(detached, victim, "GARBAGE{")
        counts = primary.merge(detached)
        assert counts["artifacts_imported"] == 1
        assert counts["corrupt_skipped"] == 1

    def test_corrupt_local_artifact_is_healed_by_merge(self, tmp_path, tamper):
        primary = ArtifactStore(tmp_path / "primary")
        detached = ArtifactStore(tmp_path / "detached")
        run_subset(primary, ["E01"])
        run_subset(detached, ["E01"])
        victim = artifact_addresses(primary)[0]
        tamper(primary, victim, "GARBAGE{")
        counts = primary.merge(detached)
        assert counts["artifacts_imported"] == 1
        assert primary.load(victim) is not None

    def test_existing_runs_are_not_overwritten(self, tmp_path):
        primary = ArtifactStore(tmp_path / "primary")
        detached = ArtifactStore(tmp_path / "detached")
        report = run_subset(primary, ["E01"])
        run_dir = primary.runs_dir / report.run_id
        marker = (run_dir / "manifest.json").read_bytes()
        (detached.runs_dir / report.run_id).mkdir(parents=True)
        (detached.runs_dir / report.run_id / "manifest.json").write_text("{}")
        counts = primary.merge(detached)
        assert counts["runs_imported"] == 0
        assert (run_dir / "manifest.json").read_bytes() == marker


class TestDiffAgainstMergedStore:
    def test_runs_from_two_stores_diff_after_merge(self, tmp_path):
        """`repro lab diff` across runs that never shared a store."""
        store_a = ArtifactStore(tmp_path / "a")
        store_b = ArtifactStore(tmp_path / "b")
        report_a = run_subset(store_a, ["E01", "E02"])
        report_b = run_subset(store_b, ["E01", "E02"])
        merged = ArtifactStore(tmp_path / "merged")
        merged.merge(store_a)
        merged.merge(store_b)
        diff = diff_runs(merged, report_a.run_id, report_b.run_id)
        assert diff.compared == 2
        assert diff.identical == 2
        assert not diff.has_regressions

    def test_regression_survives_the_merge(self, tmp_path, monkeypatch):
        """A new-version run that regressed diffs red after merging.

        The version bump matters: content addressing means two runs of
        the *same* config share one artifact, so a regression can only
        coexist with its baseline under a different package version (or
        source fingerprint) — exactly the real-world "candidate build
        on another host" workflow.
        """
        import repro
        from repro.report.experiments import ALL_EXPERIMENTS, ExperimentResult

        store_a = ArtifactStore(tmp_path / "a")
        store_b = ArtifactStore(tmp_path / "b")
        report_a = run_subset(store_a, ["E01"])

        def failing():
            result = ExperimentResult("E01", "forced", ["v"], [[1]])
            result.check("claim", 1, 2)
            return result

        failing.__doc__ = "Fails."
        monkeypatch.setitem(ALL_EXPERIMENTS, "E01", failing)
        monkeypatch.setattr(repro, "__version__", "999.0.0-candidate")
        report_b = run_subset(store_b, ["E01"])
        merged = ArtifactStore(tmp_path / "merged")
        merged.merge(store_a)
        merged.merge(store_b)
        diff = diff_runs(merged, report_a.run_id, report_b.run_id)
        assert diff.has_regressions
