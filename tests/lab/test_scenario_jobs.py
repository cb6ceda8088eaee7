"""Lab integration of scenario specs and parameterised experiments.

Pins the two acceptance guarantees of the scenario API redesign:

* every registered component round-trips through a lab job (the spec
  travels verbatim in ``JobSpec.params``), and
* two specs differing in *any* parameter produce distinct lab config
  hashes — distinct design points can never share a cache entry.
"""

from __future__ import annotations

import pytest

from repro.lab import (
    SCENARIO_KIND,
    JobSpec,
    UnknownJobError,
    build_registry,
    execute_job,
    experiment_spec,
    run_jobs,
    scenario_jobs,
)
from repro.lab.store import ArtifactStore
from repro.scenarios import ComponentSpec, MemorySpec, ScenarioSpec


def matched_spec(**overrides) -> ScenarioSpec:
    fields = dict(
        mapping=ComponentSpec.of("matched-xor", t=3, s=4),
        memory=MemorySpec(t=3),
        workload=ComponentSpec.of("strided", base=16, stride=12, length=128),
        name="lab-demo",
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestScenarioJobs:
    def test_job_carries_spec_verbatim(self):
        spec = matched_spec()
        [job] = scenario_jobs([spec])
        assert job.kind == SCENARIO_KIND
        assert dict(job.params)["spec"] == spec.to_json()
        assert job.job_id.startswith("SC-lab-demo-")

    def test_execute_returns_normalised_metrics(self):
        [job] = scenario_jobs([matched_spec()])
        payload = execute_job(job)
        assert payload["all_passed"]
        metrics = {row[0]: row[1] for row in payload["rows"]}
        assert metrics["latency"] == 137
        assert metrics["conflict_free"] is True

    def test_any_param_change_changes_the_config_hash(self):
        spec = matched_spec()
        [base] = scenario_jobs([spec])
        for path, value in [
            ("memory.q", 2),
            ("memory.qp", 2),
            ("memory.t", 2),
            ("memory.address_bits", 24),
            ("mapping.params.s", 5),
            ("workload.params.stride", 13),
            ("workload.params.base", 17),
            ("workload.params.length", 64),
            ("drive.params.mode", "ordered"),
        ]:
            [changed] = scenario_jobs([spec.replace(path, value)])
            assert changed.config_hash() != base.config_hash(), path

    def test_same_name_different_specs_get_distinct_job_ids(self):
        job_a, job_b = scenario_jobs(
            [matched_spec(), matched_spec(memory=MemorySpec(t=3, q=2))]
        )
        assert job_a.job_id != job_b.job_id

    def test_jobs_cache_per_design_point(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        jobs = scenario_jobs(
            [matched_spec(), matched_spec(memory=MemorySpec(t=3, q=2))]
        )
        first = run_jobs(jobs, store=store, workers=1)
        assert first.executed == 2 and first.all_passed
        second = run_jobs(jobs, store=store, workers=1)
        assert second.cache_hits == 2

    def test_spec_param_missing_is_clear_error(self):
        rogue = JobSpec("SC-rogue", SCENARIO_KIND, "rogue", ())
        with pytest.raises(UnknownJobError, match="no 'spec' param"):
            execute_job(rogue)

    def test_bad_spec_json_is_configuration_error(self):
        from repro.errors import ConfigurationError

        rogue = JobSpec(
            "SC-rogue", SCENARIO_KIND, "rogue", (("spec", "{not json"),)
        )
        with pytest.raises(ConfigurationError):
            execute_job(rogue)


class TestParameterisedExperiments:
    def test_no_overrides_is_the_registry_entry(self):
        assert experiment_spec("E03") == build_registry()["E03"]

    def test_overrides_fold_into_id_and_hash(self):
        default = experiment_spec("E03")
        custom = experiment_spec("E03", lambda_exponent=6)
        assert custom.job_id == "E03[lambda_exponent=6]"
        assert custom.config_hash() != default.config_hash()

    def test_distinct_override_values_hash_apart(self):
        a = experiment_spec("E03", lambda_exponent=6)
        b = experiment_spec("E03", lambda_exponent=8)
        assert a.config_hash() != b.config_hash()
        assert a.job_id != b.job_id

    def test_overridden_job_actually_computes_the_design_point(self):
        payload = execute_job(experiment_spec("E03", lambda_exponent=6))
        assert payload["all_passed"]
        # L=64: the conflict-free minimum drops to T + 64 + 1 = 73.
        assert any(73 in row for row in payload["rows"])

    def test_unknown_kwarg_rejected_at_spec_time(self):
        with pytest.raises(UnknownJobError, match="does not accept"):
            experiment_spec("E03", warp_factor=9)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(UnknownJobError):
            experiment_spec("E99", t=1)

    def test_rogue_spec_rejected_at_execute_time(self):
        # A hand-built spec bypassing experiment_spec() still cannot
        # smuggle an unknown kwarg past the signature check.
        from repro.lab import EXPERIMENT_KIND

        rogue = JobSpec("E01", EXPERIMENT_KIND, "rogue", (("t", 4),))
        with pytest.raises(UnknownJobError):
            execute_job(rogue)

    def test_parameterised_jobs_cache_separately(self, tmp_path):
        store = ArtifactStore(tmp_path / "lab")
        jobs = [
            experiment_spec("E16", length=256),
            experiment_spec("E16", length=128),
        ]
        report = run_jobs(jobs, store=store, workers=1)
        assert report.executed == 2 and report.all_passed
        rerun = run_jobs(jobs, store=store, workers=1)
        assert rerun.cache_hits == 2
