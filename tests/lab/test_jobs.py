"""Tests for the job registry and the worker entry point."""

from __future__ import annotations

import pytest

from repro.lab.jobs import (
    ABLATION_BENCHES,
    ABLATION_KIND,
    EXPERIMENT_KIND,
    SWEEP_KIND,
    UnknownJobError,
    build_registry,
    execute_job,
    resolve,
)
from repro.report.experiments import ALL_EXPERIMENTS, registry_entries


class TestRegistry:
    def test_every_experiment_is_registered(self):
        registry = build_registry()
        for experiment_id in ALL_EXPERIMENTS:
            assert registry[experiment_id].kind == EXPERIMENT_KIND

    def test_sweeps_and_ablations_are_registered(self):
        registry = build_registry()
        assert registry["S-lambda"].kind == SWEEP_KIND
        assert registry["S-t"].kind == SWEEP_KIND
        for job_id in ABLATION_BENCHES:
            assert registry[job_id].kind == ABLATION_KIND

    def test_registry_order_is_sorted_and_deterministic(self):
        first = build_registry()
        second = build_registry()
        assert list(first) == sorted(first)
        assert list(first) == list(second)
        assert first == second

    def test_specs_are_hashable_with_distinct_config_hashes(self):
        registry = build_registry()
        specs = set(registry.values())
        assert len(specs) == len(registry)
        hashes = {spec.config_hash("1.0.0") for spec in registry.values()}
        assert len(hashes) == len(registry)

    def test_config_hash_depends_on_version(self):
        spec = build_registry()["E01"]
        assert spec.config_hash("1.0.0") != spec.config_hash("2.0.0")

    def test_config_embeds_source_fingerprint(self):
        from repro.lab.jobs import source_fingerprint

        spec = build_registry()["E01"]
        fingerprint = source_fingerprint()
        assert len(fingerprint) == 64
        assert spec.config("1.0.0")["source_fingerprint"] == fingerprint
        # Stable within a process: the hash (and thus the cache key)
        # cannot drift between scheduling and saving.
        assert source_fingerprint() == fingerprint

    def test_resolve_unknown_id(self):
        with pytest.raises(UnknownJobError):
            resolve("E99")

    def test_titles_come_from_docstrings(self):
        entries = {eid: title for eid, title, _ in registry_entries()}
        assert entries["E01"].startswith("Regenerate the Figure 3")


class TestExecuteJob:
    def test_experiment_payload(self):
        payload = execute_job("E01")
        assert payload["job_id"] == "E01"
        assert payload["kind"] == EXPERIMENT_KIND
        assert payload["all_passed"] is True
        assert payload["headers"][0] == "row"
        assert len(payload["rows"]) == 9
        assert payload["checks"][0]["passed"] is True
        assert payload["elapsed_seconds"] >= 0

    def test_sweep_payload(self):
        payload = execute_job("S-t")
        assert payload["kind"] == SWEEP_KIND
        assert payload["headers"][0] == "lambda"
        assert len(payload["rows"]) == 8
        assert payload["checks"] == []
        assert payload["all_passed"] is True

    def test_ablation_payload(self):
        payload = execute_job("A1")
        assert payload["kind"] == ABLATION_KIND
        assert payload["headers"] == [
            "q",
            "ordered",
            "subsequence",
            "conflict-free",
        ]
        assert [row[0] for row in payload["rows"]] == [1, 2, 4, 8]

    def test_multistream_ablation_rows(self):
        # A3: two conflict-free stride-12 streams on one shared port.
        # The input-queue depth does not matter: no q ever fills.
        assert execute_job("A3")["rows"] == [
            [q, 137, 267, 267, 126, 0.959] for q in (1, 2, 4)
        ]

    def test_multiport_ablation_rows(self):
        assert execute_job("A7")["rows"] == [
            ["matched M=8, 1 port", 144, 64],
            ["unmatched M=64, 1 port", 137, 0],
            ["unmatched M=64, 2 ports", 73, 0],
            ["matched M=8, 2 ports", 137, 120],
        ]

    def test_unknown_job(self):
        with pytest.raises(UnknownJobError):
            execute_job("Z1")

    def test_spec_is_executed_as_passed(self):
        # A custom sweep spec computes ITS config, not the registry default.
        from repro.lab.jobs import JobSpec, SWEEP_KIND

        custom = JobSpec(
            "S-lambda",
            SWEEP_KIND,
            "custom sweep",
            (("axis", "lambda"), ("fixed", 4), ("start", 4), ("stop", 6)),
        )
        payload = execute_job(custom)
        assert len(payload["rows"]) == 2  # lambda in {4, 5}, not 3..10

    def test_custom_params_on_experiment_rejected(self):
        # Experiments don't take params yet: a mismatched spec must not
        # silently compute the registry default under a foreign hash.
        from repro.lab.jobs import EXPERIMENT_KIND, JobSpec

        rogue = JobSpec("E01", EXPERIMENT_KIND, "rogue", (("t", 4),))
        with pytest.raises(UnknownJobError):
            execute_job(rogue)
