"""Facade tests: spec-built machines equal hand-wired ones; simulate()
normalises the same metrics every consumer used to extract by hand."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.planner import AccessPlanner
from repro.core.vector import VectorAccess
from repro.errors import ConfigurationError
from repro.memory.config import MemoryConfig
from repro.memory.system import MemorySystem
from repro.scenarios import (
    DRIVE,
    WORKLOAD,
    ComponentSpec,
    MemorySpec,
    ScenarioSpec,
    build_machine,
    build_workload,
    example_params,
    kinds,
    load_scenarios,
    resolve_mapping,
    simulate,
)
from repro.scenarios.facade import DesignPoint, build_point, clear_program_memo


def matched_spec(**overrides) -> ScenarioSpec:
    fields = dict(
        mapping=ComponentSpec.of("matched-xor", t=3, s=4),
        memory=MemorySpec(t=3),
        workload=ComponentSpec.of("strided", base=16, stride=12, length=128),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestBuildMachine:
    def test_machine_matches_hand_wiring(self):
        config, planner, system = build_machine(matched_spec())
        hand = MemoryConfig.matched(t=3, s=4)
        assert config.mapping.describe() == hand.mapping.describe()
        assert config.service_ratio == hand.service_ratio
        assert config.module_count == hand.module_count
        vector = VectorAccess(16, 12, 128)
        hand_run = MemorySystem(hand).run_plan(
            AccessPlanner(hand.mapping, 3).plan(vector)
        )
        spec_run = system.run_plan(planner.plan(vector))
        assert spec_run.latency == hand_run.latency
        assert spec_run.conflict_free == hand_run.conflict_free

    def test_buffer_depths_respected(self):
        config, _, _ = build_machine(matched_spec(memory=MemorySpec(t=3, q=2, qp=4)))
        assert config.input_capacity == 2
        assert config.output_capacity == 4

    def test_address_bits_flow_to_mapping(self):
        spec = matched_spec(memory=MemorySpec(t=3, address_bits=20))
        config, _, _ = build_machine(spec)
        assert config.mapping.address_bits == 20

    def test_infeasible_geometry_raises(self):
        # m=3 modules cannot hide T=2**4: feasibility errors surface as
        # ConfigurationError from the underlying constructors.
        spec = matched_spec(memory=MemorySpec(t=4))
        with pytest.raises(ConfigurationError):
            build_machine(spec)

    def test_every_mapping_kind_builds(self):
        from repro.scenarios import MAPPING

        for kind in kinds(MAPPING):
            spec = matched_spec(
                mapping=ComponentSpec.of(kind, **example_params(MAPPING, kind))
            )
            mapping = resolve_mapping(spec)
            assert mapping.module_count >= 1


class TestBuildPoint:
    def test_each_drive_fixes_only_what_it_runs(self):
        """A planner point has no vector or register, a Figure 6 point
        the vector, and a decoupled point both, its register defaulting
        to the vector's length, or to 64 for a program."""
        planner = build_point(matched_spec())
        assert (planner.vector, planner.register_length) == (None, None)
        figure6 = build_point(matched_spec(drive=ComponentSpec.of("figure6")))
        assert figure6.vector == VectorAccess(16, 12, 128)
        assert figure6.register_length is None
        decoupled = build_point(
            matched_spec(drive=ComponentSpec.of("decoupled"))
        )
        assert decoupled.vector == VectorAccess(16, 12, 128)
        assert decoupled.register_length == 128
        program = build_point(
            matched_spec(
                workload=None,
                program=ComponentSpec.of("daxpy", n=96),
                drive=ComponentSpec.of("decoupled"),
            )
        )
        assert (program.workload, program.vector) == (None, None)
        assert program.register_length == 64

    def test_a_memo_hit_builds_no_program(self, monkeypatch):
        """The 64-point daxpy grid holds 8 programs: each is built once,
        on its memo miss."""
        builds = []
        original = DesignPoint.program

        def counted(self):
            builds.append(self.spec.name)
            return original(self)

        monkeypatch.setattr(DesignPoint, "program", counted)
        clear_program_memo()
        try:
            for spec in load_scenarios(
                Path("examples/scenario_program_grid_64.json").read_text()
            ):
                simulate(spec)
        finally:
            clear_program_memo()
        assert len(builds) == 8


class TestWorkloads:
    def test_every_workload_kind_builds_and_simulates(self):
        for kind in kinds(WORKLOAD):
            spec = matched_spec(
                workload=ComponentSpec.of(kind, **example_params(WORKLOAD, kind))
            )
            workload = build_workload(spec)
            assert workload.element_count >= 1
            result = simulate(spec)
            assert result.latency >= result.element_count
            assert result.element_count == workload.element_count

    def test_missing_workload_rejected(self):
        with pytest.raises(ConfigurationError, match="declares no workload"):
            simulate(matched_spec(workload=None))


class TestDrives:
    def test_planner_auto_reaches_minimum(self):
        result = simulate(matched_spec())
        assert result.conflict_free
        assert result.latency == result.minimum_latency == 8 + 128 + 1
        assert result.issue_stalls == 0
        assert result.efficiency == 1.0

    def test_ordered_mode_is_slower_for_conflicting_family(self):
        ordered = simulate(
            matched_spec(drive=ComponentSpec.of("planner", mode="ordered"))
        )
        assert not ordered.conflict_free
        assert ordered.latency > ordered.minimum_latency

    def test_figure6_engine_matches_planner(self):
        auto = simulate(matched_spec())
        engine = simulate(matched_spec(drive=ComponentSpec.of("figure6")))
        assert engine.latency == auto.latency
        assert engine.conflict_free
        extras = dict(engine.extras)
        assert extras["latch_peak_occupancy"] <= extras["latch_capacity"]

    def test_decoupled_drive_reports_machine_extras(self):
        result = simulate(
            matched_spec(drive=ComponentSpec.of("decoupled", chaining=True))
        )
        extras = dict(result.extras)
        assert extras["chained_instructions"] == 1
        assert extras["total_cycles"] >= result.latency

    def test_figure6_rejects_non_strided_workload(self):
        spec = matched_spec(
            workload=ComponentSpec.of("bit-reversal", bits=5),
            drive=ComponentSpec.of("figure6"),
        )
        with pytest.raises(ConfigurationError, match="not a single strided"):
            simulate(spec)

    def test_decoupled_register_shorter_than_vector_rejected(self):
        spec = matched_spec(
            drive=ComponentSpec.of("decoupled", register_length=64)
        )
        with pytest.raises(ConfigurationError, match="shorter than"):
            simulate(spec)

    def test_bad_planner_mode_rejected(self):
        with pytest.raises(
            ConfigurationError,
            match="parameter 'mode' of drive kind 'planner' must be one of",
        ):
            simulate(
                matched_spec(drive=ComponentSpec.of("planner", mode="chaotic"))
            )

    def test_unknown_drive_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown drive kind"):
            simulate(matched_spec(drive=ComponentSpec.of("warp")))

    def test_every_drive_kind_simulates(self):
        for kind in kinds(DRIVE):
            spec = matched_spec(
                drive=ComponentSpec.of(kind, **example_params(DRIVE, kind))
            )
            assert simulate(spec).latency > 0


class TestDynamicMapping:
    def test_dynamic_resolves_against_stride(self):
        spec = matched_spec(
            mapping=ComponentSpec.of("dynamic", m=3),
            workload=ComponentSpec.of("strided", stride=8, length=64),
            drive=ComponentSpec.of("planner", mode="ordered"),
        )
        result = simulate(spec)
        # The dynamic baseline gives conflict-free *ordered* access to
        # its chosen stride — that is its entire pitch.
        assert result.conflict_free

    def test_dynamic_without_strided_workload_rejected(self):
        spec = matched_spec(
            mapping=ComponentSpec.of("dynamic", m=3),
            workload=ComponentSpec.of("bit-reversal", bits=5),
        )
        with pytest.raises(ConfigurationError, match="not a single strided"):
            simulate(spec)

    def test_dynamic_without_any_workload_rejected(self):
        spec = matched_spec(
            mapping=ComponentSpec.of("dynamic", m=3), workload=None
        )
        with pytest.raises(ConfigurationError, match="dynamic mapping"):
            build_machine(spec)


class TestKernelAggregation:
    def test_multi_access_workload_sums_metrics(self):
        spec = matched_spec(
            workload=ComponentSpec.of("fft-stage", n=256, stage=3)
        )
        result = simulate(spec)
        assert result.access_count == 16
        assert result.element_count == 256
        assert result.conflict_free  # stride 16 = family 4 is in-window
        assert result.minimum_latency == 16 * (8 + 16 + 1)

    def test_metric_rows_are_json_safe(self):
        import json

        result = simulate(matched_spec())
        json.dumps(result.to_dict())
        json.dumps(result.metric_rows())


class TestResultNormalisation:
    def test_normalised_metrics_match_raw_simulation(self):
        spec = matched_spec()
        _, planner, system = build_machine(spec)
        raw = system.run_plan(planner.plan(VectorAccess(16, 12, 128)))
        result = simulate(spec)
        assert result.latency == raw.latency
        assert result.issue_stalls == raw.issue_stall_cycles
        assert result.wait_count == raw.wait_count
        assert result.module_busy_cycles == raw.module_busy_cycles
        assert result.cycles_per_element == raw.cycles_per_element
