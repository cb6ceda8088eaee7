"""Program scenarios: round trips, strip-mined tails, timeline
invariants, and the measured-vs-analytic chaining speedup contract."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.processor.chaining import CHAINING_MODEL_TOLERANCE, chaining_speedup
from repro.scenarios import (
    PROGRAM,
    TIMELINE_FIELDS,
    ComponentSpec,
    MemorySpec,
    ScenarioGrid,
    ScenarioSpec,
    build,
    example_params,
    kinds,
    simulate,
)


def program_spec(kind: str = "daxpy", drive=None, **params) -> ScenarioSpec:
    return ScenarioSpec(
        mapping=ComponentSpec.of("matched-xor", t=3, s=4),
        memory=MemorySpec(t=3, q=2),
        program=ComponentSpec.of(kind, **params),
        drive=drive or ComponentSpec.of("decoupled", chaining=True),
        name=f"test-{kind}",
    )


class TestRoundTrips:
    def test_every_program_kind_round_trips_and_simulates(self):
        for kind in kinds(PROGRAM):
            spec = program_spec(kind, **example_params(PROGRAM, kind))
            restored = ScenarioSpec.from_json(spec.to_json())
            assert restored == spec
            result = simulate(restored)
            assert result.timeline
            assert dict(result.extras)["total_cycles"] >= result.latency // 2
            # dict -> spec -> simulate -> dict is JSON-stable
            json.dumps(result.to_dict())

    def test_every_program_kind_builds_a_valid_program(self):
        for kind in kinds(PROGRAM):
            component = ComponentSpec.of(kind, **example_params(PROGRAM, kind))
            scenario_program = build(PROGRAM, component, register_length=64)
            scenario_program.program.validate(register_count=8)
            assert scenario_program.label

    def test_registered_kernels_are_numerically_checked(self):
        for kind in kinds(PROGRAM):
            if kind in ("instructions", "asm"):
                continue
            spec = program_spec(kind, **example_params(PROGRAM, kind))
            extras = dict(simulate(spec).extras)
            assert extras["numerically_correct"] is True, kind

    def test_program_and_workload_are_mutually_exclusive(self):
        with pytest.raises(ConfigurationError, match="not both"):
            ScenarioSpec(
                mapping=ComponentSpec.of("matched-xor", t=3, s=4),
                memory=MemorySpec(t=3),
                workload=ComponentSpec.of("strided", stride=4, length=64),
                program=ComponentSpec.of("daxpy", n=64),
            )

    def test_program_requires_decoupled_drive(self):
        spec = program_spec("daxpy", drive=ComponentSpec.of("planner"), n=64)
        with pytest.raises(ConfigurationError, match="decoupled"):
            simulate(spec)

    def test_unknown_program_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown program kind"):
            simulate(program_spec("warp-drive"))

    def test_timeline_fields_match_machine(self):
        from repro.processor import TIMELINE_FIELDS as MACHINE_FIELDS

        assert TIMELINE_FIELDS is MACHINE_FIELDS  # one tuple, two names


class TestStripMining:
    @pytest.mark.parametrize("n", [64, 96, 100, 160])
    def test_tails_stay_numerically_correct(self, n):
        spec = program_spec("daxpy", n=n, x_stride=4, y_stride=4)
        extras = dict(simulate(spec).extras)
        assert extras["numerically_correct"] is True
        strips = -(-n // 64)  # ceil: full strips plus at most one tail
        assert extras["instruction_count"] == 5 * strips

    def test_tail_instructions_carry_short_length(self):
        component = ComponentSpec.of("daxpy", n=96)
        scenario_program = build(PROGRAM, component, register_length=64)
        lengths = {
            instruction.length
            for instruction in scenario_program.program
        }
        assert lengths == {None, 32}  # full strips default, 32-element tail

    def test_register_length_comes_from_drive(self):
        spec = program_spec(
            "daxpy",
            drive=ComponentSpec.of(
                "decoupled", chaining=True, register_length=32
            ),
            n=96,
        )
        extras = dict(simulate(spec).extras)
        assert extras["register_length"] == 32
        assert extras["instruction_count"] == 5 * 3  # 96 = 3 strips of 32


class TestTimelineInvariants:
    def chained_and_decoupled(self, kind, **params):
        chained = simulate(program_spec(kind, **params))
        decoupled = simulate(
            program_spec(
                kind,
                drive=ComponentSpec.of("decoupled", chaining=False),
                **params,
            )
        )
        return chained, decoupled

    @pytest.mark.parametrize("kind", ["daxpy", "saxpy-chain"])
    def test_chained_never_completes_later(self, kind):
        chained, decoupled = self.chained_and_decoupled(kind, n=96)
        chained_totals = dict(chained.extras)["total_cycles"]
        decoupled_totals = dict(decoupled.extras)["total_cycles"]
        assert chained_totals <= decoupled_totals
        # per-instruction: completion cycles never move later under chaining
        end = TIMELINE_FIELDS.index("end_cycle")
        for row_c, row_d in zip(chained.timeline, decoupled.timeline):
            assert row_c[end] <= row_d[end]

    def test_equality_when_not_conflict_free(self):
        # x_stride 1 is outside the matched t=3, s=4 window: every load
        # conflicts, chaining falls back, and the timelines coincide.
        chained, decoupled = self.chained_and_decoupled(
            "saxpy-chain", n=64, x_stride=1, out_stride=1
        )
        extras = dict(chained.extras)
        assert extras["conflict_free_loads"] == 0
        assert extras["chained_instructions"] == 0
        assert chained.timeline == decoupled.timeline
        assert extras["chaining_speedup"] == 1.0
        # the analytic model's conflict-free premise fails: it must not
        # be reported as a comparand
        assert extras["chaining_model_applicable"] is False
        assert "chaining_speedup_model" not in extras
        assert "chaining_model_tolerance" not in extras


class TestChainingSpeedupContract:
    def test_daxpy_speedup_matches_analytic_model(self):
        extras = dict(
            simulate(
                program_spec("daxpy", n=96, x_stride=4, y_stride=4)
            ).extras
        )
        measured = extras["chaining_speedup"]
        model = extras["chaining_speedup_model"]
        assert extras["chaining_model_applicable"] is True
        assert measured > 1.0
        assert abs(measured - model) <= CHAINING_MODEL_TOLERANCE * model
        assert extras["chaining_model_tolerance"] == CHAINING_MODEL_TOLERANCE

    def test_speedup_is_measured_on_an_untraced_decoupled_twin(self):
        from repro.obs.tracer import Tracer

        spec = program_spec("saxpy-chain", n=128, x_stride=4)
        tracer = Tracer()
        traced = simulate(spec, tracer=tracer)
        twin = simulate(
            program_spec(
                "saxpy-chain",
                drive=ComponentSpec.of("decoupled", chaining=False),
                n=128,
                x_stride=4,
            )
        )
        extras = dict(traced.extras)
        assert extras["chaining_speedup"] == (
            dict(twin.extras)["total_cycles"] / extras["total_cycles"]
        )
        assert extras["chaining_speedup"] > 1.0
        # Only the chained run is traced: one machine span per instruction.
        assert len(tracer.spans("machine/")) == extras["instruction_count"]

    def test_pair_program_matches_section_5f_formula(self):
        # The canonical LOAD -> OP pair, written as an inline program:
        # its whole-program speedup is exactly chaining_speedup(L, T, n).
        lines = [
            ".fill base=0, stride=4, count=64, value=1.5",
            "vload v1, base=0, stride=4",
            "vadd v2, v1, v1",
        ]
        spec = program_spec("instructions", lines=lines)
        extras = dict(simulate(spec).extras)
        assert extras["chaining_speedup"] == pytest.approx(
            chaining_speedup(64, 8, 4)
        )
        assert extras["chaining_speedup_model"] == pytest.approx(
            chaining_speedup(64, 8, 4)
        )


class TestInlinePrograms:
    def test_instructions_kind_preloads_directives(self):
        lines = [
            ".init base=0, stride=2, values=1;2;3;4",
            "vload v1, base=0, stride=2, length=4",
            "vscale v2, v1, scalar=10, length=4",
            "vstore v2, base=1000, stride=1, length=4",
        ]
        spec = program_spec(
            "instructions",
            drive=ComponentSpec.of("decoupled"),
            lines=lines,
        )
        result = simulate(spec)
        extras = dict(result.extras)
        assert extras["instruction_count"] == 3
        # raw sources have no expected outputs: no correctness verdict
        assert "numerically_correct" not in extras

    def test_asm_kind_accepts_text(self):
        text = (
            ".fill base=0, stride=4, count=8, value=2\n"
            "vload v1, base=0, stride=4, length=8\n"
            "vmul v2, v1, v1, length=8\n"
        )
        spec = program_spec(
            "asm", drive=ComponentSpec.of("decoupled"), text=text
        )
        assert dict(simulate(spec).extras)["instruction_count"] == 2

    def test_bad_inline_program_is_a_located_clean_error(self):
        from repro.errors import ProgramError

        spec = program_spec(
            "instructions",
            drive=ComponentSpec.of("decoupled"),
            lines=["vload v1, stride=4, length=8"],
        )
        with pytest.raises(ProgramError, match="line 1"):
            simulate(spec)


class TestProgramGrids:
    def test_grid_sweeps_program_params(self):
        grid = ScenarioGrid.of(
            program_spec("saxpy-chain", n=64),
            program__params__n=(64, 96),
            drive__params__chaining=(False, True),
        )
        specs = grid.expand()
        assert len(specs) == 4
        results = [simulate(spec) for spec in specs]
        assert all(
            dict(result.extras)["numerically_correct"] for result in results
        )

    def test_grid_round_trips_through_json(self):
        grid = ScenarioGrid.of(
            program_spec("daxpy", n=64), program__params__n=(64, 128)
        )
        assert ScenarioGrid.from_json(grid.to_json()) == grid


class TestLabIntegration:
    def test_program_specs_cache_per_design_point(self, tmp_path):
        from repro.lab import ArtifactStore, run_jobs, scenario_jobs

        store = ArtifactStore(tmp_path / "lab")
        specs = [
            program_spec("saxpy-chain", n=64),
            program_spec("saxpy-chain", n=96),
        ]
        jobs = scenario_jobs(specs)
        assert jobs[0].job_id != jobs[1].job_id
        assert jobs[0].config_hash() != jobs[1].config_hash()

        report = run_jobs(jobs, store=store, workers=1)
        assert report.all_passed
        assert report.executed == 2
        rerun = run_jobs(jobs, store=store, workers=1)
        assert rerun.cache_hits == 2

    def test_correctness_verdict_becomes_the_job_check(self, tmp_path):
        from repro.lab import ArtifactStore, run_jobs, scenario_jobs

        store = ArtifactStore(tmp_path / "lab")
        report = run_jobs(
            scenario_jobs([program_spec("daxpy", n=64)]),
            store=store,
            workers=1,
        )
        record = report.outcomes[0].record
        assert record["checks"]
        assert record["checks"][0]["claim"].startswith("program outputs")
        assert record["all_passed"] is True
