"""``DecoupledVectorMachine.run``: one call from instruction list to
timelines, memory runs, overlap accounting and correctness verdicts;
its value pass, its timing pass (``time``) and the schedule check."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.core.planner import AccessPlan
from repro.core.vector import VectorAccess
from repro.errors import ConfigurationError, RegisterFileError, SimulationError
from repro.mappings.linear import MatchedXorMapping
from repro.memory.config import MemoryConfig
from repro.obs.tracer import Tracer
from repro.processor import (
    TIMELINE_FIELDS,
    VERIFY_TOLERANCE,
    DecoupledVectorMachine,
    OpenBatch,
    single_load_program,
)
from repro.processor.isa import VAdd, VLoad, VStore
from repro.processor.program import Program
from repro.processor.stripmine import daxpy_program, saxpy_chain_program


def matched_config(q: int = 2) -> MemoryConfig:
    return MemoryConfig.matched(t=3, s=4, input_capacity=q)


def machine(register_length: int = 64, **kwargs) -> DecoupledVectorMachine:
    return DecoupledVectorMachine(matched_config(), register_length, **kwargs)


def daxpy_case(n: int = 96, register_length: int = 64):
    program = daxpy_program(n, register_length, 2.0, 0, 4, 8192, 4)
    x = tuple(float(i) for i in range(n))
    y = tuple(float(2 * i + 1) for i in range(n))
    inputs = ((0, 4, x), (8192, 4, y))
    expected = ((8192, 4, tuple(2.0 * a + b for a, b in zip(x, y))),)
    return program, inputs, expected


class TestRunResult:
    def test_timeline_rows_match_schema(self):
        program, inputs, _ = daxpy_case()
        run = machine().run(program, inputs)
        assert len(run.timeline) == len(program)
        for row, timing in zip(run.timeline, run.timings):
            assert len(row) == len(TIMELINE_FIELDS)
            assert dict(zip(TIMELINE_FIELDS, row)) == {
                "position": timing.position,
                "mnemonic": timing.mnemonic,
                "unit": timing.unit,
                "start_cycle": timing.start_cycle,
                "end_cycle": timing.end_cycle,
                "duration": timing.duration,
                "mode": timing.mode,
                "conflict_free": timing.conflict_free,
                "port": timing.port,
                "stream": timing.stream,
            }
        # start/end ordering is coherent
        positions = [row[0] for row in run.timeline]
        assert positions == list(range(len(program)))
        assert all(row[3] <= row[4] for row in run.timeline)

    def test_memory_runs_pair_scheme_with_access_result(self):
        program, inputs, _ = daxpy_case()
        run = machine().run(program, inputs)
        assert len(run.memory_runs) == program.memory_instruction_count()
        for (scheme, access), timing in zip(
            run.memory_runs, run.memory_timings()
        ):
            assert scheme == timing.mode
            assert access.conflict_free == timing.conflict_free
            assert access.element_count >= 1

    def test_inputs_are_written_before_the_run_and_state_persists(self):
        vm = machine(8)
        first = vm.run(
            Program([VLoad(1, 0, 1, 8), VStore(1, 100, 1, 8)]),
            inputs=((0, 1, [1.0] * 8),),
            expected=((100, 1, [1.0] * 8),),
        )
        assert first.outputs_correct is True
        # The register file and the store persist across calls: V1 is
        # still defined, and a word written by hand is read.
        vm.store.write_vector(200, 1, [4.0] * 8)
        second = vm.run(
            Program(
                [VLoad(2, 200, 1, 8), VAdd(3, 1, 2, 8), VStore(3, 300, 1, 8)]
            ),
            expected=((300, 1, [5.0] * 8),),
        )
        assert second.outputs_correct is True
        assert vm.store.read_vector(100, 1, 8) == [1.0] * 8


class TestCorrectness:
    def test_expected_outputs_verified(self):
        program, inputs, expected = daxpy_case()
        run = machine().run(program, inputs, expected)
        assert run.outputs_correct is True
        assert run.output_errors == ()

    def test_wrong_expectation_detected(self):
        program, inputs, _ = daxpy_case(n=8, register_length=8)
        bad = ((8192, 4, tuple(-1.0 for _ in range(8))),)
        run = machine(8).run(program, inputs, bad)
        assert run.outputs_correct is False
        assert run.output_errors

    def test_unwritten_expectation_is_an_error_not_a_crash(self):
        program, inputs, _ = daxpy_case(n=8, register_length=8)
        missing = ((1 << 20, 1, (0.0,)),)
        run = machine(8).run(program, inputs, missing)
        assert run.outputs_correct is False
        assert run.output_errors[0].startswith(f"@{1 << 20} stride 1: ")

    def test_tolerance_absorbs_representation_noise(self):
        program = Program([VLoad(1, 0, 1, 4), VStore(1, 100, 1, 4)])
        near = [1.0 + VERIFY_TOLERANCE / 2] * 4
        run = machine(4).run(program, ((0, 1, [1.0] * 4),), ((100, 1, near),))
        assert run.outputs_correct is True

    def test_nan_result_is_flagged(self):
        program = Program([VLoad(1, 0, 1, 8), VStore(1, 100, 1, 8)])
        inputs = ((0, 1, [math.nan] * 8),)
        expected = ((100, 1, [1.0] * 8),)
        run = machine(8).run(program, inputs, expected)
        assert run.outputs_correct is False
        assert run.output_errors == tuple(
            f"@{100 + index}: expected 1.0, got nan" for index in range(8)
        )

    def test_matching_nans_and_infinities_pass(self):
        values = [math.nan, math.inf, -math.inf, 1.0]
        program = Program([VLoad(1, 0, 1, 4), VStore(1, 100, 1, 4)])
        run = machine(4).run(program, ((0, 1, values),), ((100, 1, values),))
        assert run.outputs_correct is True

    def test_no_expectation_means_no_verdict(self):
        program, inputs, _ = daxpy_case(n=8, register_length=8)
        run = machine(8).run(program, inputs)
        assert run.outputs_correct is None
        assert run.output_errors == ()


class TestOverlapAndChaining:
    def test_single_load_has_no_overlap(self):
        vector = VectorAccess(0, 4, 64)
        program = single_load_program(vector, chaining=False)
        assert len(program) == 1
        run = machine().run(
            program, ((0, 4, tuple(float(i) for i in range(64))),)
        )
        assert run.overlap_fraction == 0.0

    def test_overlap_fraction_is_hidden_busy_cycles(self):
        program, inputs, _ = daxpy_case()
        run = machine(chaining=True).run(program, inputs)
        busy = sum(timing.duration for timing in run.timings)
        assert run.overlap_fraction == (busy - run.total_cycles) / busy

    def test_chained_kernel_overlaps(self):
        program, inputs, _ = daxpy_case()
        run = machine(chaining=True).run(program, inputs)
        assert run.chained_count() > 0
        assert run.overlap_fraction > 0.0

    def test_chaining_speeds_up_a_conflict_free_chain(self):
        program = saxpy_chain_program(128, 64, 3.0, 0, 4, 8192, 4)
        inputs = ((0, 4, tuple(float(i) for i in range(128))),)
        chained = machine(chaining=True).run(program, inputs)
        decoupled = machine(chaining=False).run(program, inputs)
        assert decoupled.total_cycles / chained.total_cycles > 1.0

    def test_chaining_falls_back_when_not_conflict_free(self):
        # stride 1 is outside the matched t=3, s=4 window: loads are not
        # conflict-free, so chained and decoupled execution coincide.
        program = Program([VLoad(1, 0, 1, 64), VAdd(2, 1, 1, 64)])
        inputs = ((0, 1, tuple(float(i) for i in range(64))),)
        chained = machine(chaining=True).run(program, inputs)
        decoupled = machine(chaining=False).run(program, inputs)
        assert chained.conflict_free_loads() == 0
        assert chained.chained_count() == 0
        assert chained.total_cycles == decoupled.total_cycles

    def test_short_chained_execute_waits_for_its_own_elements(self):
        """A chained execute of length 32 on a 128-element load feeds
        elements 0..31, not the first 32 deliveries: one of them arrives
        at cycle 135, so the ADD ends at 140, after the load."""
        vm = machine(128, chaining=True)
        vm.store.write_vector(0, 3, [1.0] * 128)
        run = vm.run(Program([VLoad(1, 0, 3, 128), VAdd(2, 1, 1, 32)]))
        load, add = run.timings
        assert load.conflict_free and add.mode == "chained"
        assert (load.end_cycle, add.end_cycle) == (137, 140)
        assert run.total_cycles == 140


class TestTwoPasses:
    def test_time_moves_no_values(self):
        """The timing pass reads neither the store nor the registers: a
        fresh machine with an empty store times another machine's run."""
        program, inputs, _ = daxpy_case()
        vm = machine(chaining=True)
        resolved = vm.resolve(program, inputs)
        run = vm.time(resolved)
        fresh = DecoupledVectorMachine(matched_config(), 64, chaining=True)
        again = fresh.time(resolved)
        assert again.timings == run.timings
        assert again.total_cycles == run.total_cycles
        assert fresh.registers.register(1).valid_count == 0
        with pytest.raises(SimulationError, match="uninitialised"):
            fresh.store.read(0)

    def test_time_refuses_another_machines_plans(self):
        program, inputs, _ = daxpy_case(n=32, register_length=32)
        resolved = machine(32).resolve(program, inputs)
        config = matched_config()
        others = {
            "mapping": DecoupledVectorMachine(MemoryConfig.matched(3, 5), 32),
            "t": DecoupledVectorMachine(replace(config, t=2), 32),
            "register_length": DecoupledVectorMachine(config, 64),
            "plan_mode": DecoupledVectorMachine(config, 32, plan_mode="ordered"),
            "gather_mode": DecoupledVectorMachine(
                config, 32, gather_mode="ordered"
            ),
        }
        for name, other in others.items():
            with pytest.raises(ConfigurationError, match=f"another {name};"):
                other.time(resolved)
        # Timing parameters may differ: that is how the baseline and a
        # grid's timing points are timed.  matched_config() builds a new
        # mapping with the same address function each time.
        for other in (
            DecoupledVectorMachine(
                config, 32, execute_startup=9, memory_streams=2
            ),
            DecoupledVectorMachine(matched_config(q=4), 32),
        ):
            other.time(resolved)

    def test_plans_without_an_address_key_fit_only_their_mapping(self):
        """A mapping that declares no cache token has no address key:
        its resolved program fits a machine on the same mapping object,
        whatever the timing parameters, and no other mapping, not even
        one built alike."""

        class Anonymous(MatchedXorMapping):
            def cache_token(self):
                return None

        program, inputs, _ = daxpy_case(n=32, register_length=32)
        config = MemoryConfig(Anonymous(3, 4), 3, input_capacity=2)
        resolved = DecoupledVectorMachine(config, 32).resolve(program, inputs)
        DecoupledVectorMachine(
            replace(config, input_capacity=4), 32, chaining=True
        ).time(resolved)
        alike = MemoryConfig(Anonymous(3, 4), 3, input_capacity=2)
        with pytest.raises(ConfigurationError, match="another mapping;"):
            DecoupledVectorMachine(alike, 32).time(resolved)

    @pytest.mark.parametrize("chaining", [False, True])
    def test_a_traced_timing_pass_records_a_fresh_runs_events(self, chaining):
        """A traced timing pass over batches an untraced run already
        timed (every kernel timing a memo hit) records the events a
        traced run on a fresh machine does."""
        program, inputs, _ = daxpy_case(n=160)
        config = replace(matched_config(), ports=2)

        def make(**kwargs):
            return DecoupledVectorMachine(config, 64, chaining=chaining, **kwargs)

        resolver = make()
        resolved = resolver.resolve(program, inputs)
        untraced = resolver.time(resolved)
        timed, fresh = Tracer(), Tracer()
        again = make(tracer=timed).time(resolved)
        make(tracer=fresh).run(program, inputs)
        assert timed.spans("memory/"), "no kernel events were recorded"
        assert timed.events == fresh.events
        assert again.timings == untraced.timings

    def test_store_error_names_the_first_element_in_issue_order(self):
        """A store reads its register in the request stream's issue
        order (0, 4, 8, 12, ... for stride 12), so a register holding
        elements 0..9 fails at element 12, not 10."""
        vm = machine(64)
        vm.store.write_vector(0, 1, [1.0] * 10)
        program = Program([VLoad(1, 0, 1, 10), VStore(1, 0, 12, 64)])
        with pytest.raises(
            RegisterFileError, match="^element 12 read before it was written$"
        ):
            vm.run(program)

    def test_load_error_names_the_first_address_in_issue_order(self):
        """Elements 0..4 of a stride-12 vector are in memory; the load
        issues 0, 4, 8 first, so it fails at element 8 (address 96), not
        element 5."""
        vm = machine(64)
        vm.store.write_vector(0, 12, [1.0] * 5)
        with pytest.raises(SimulationError, match="uninitialised address 96 "):
            vm.run(Program([VLoad(1, 0, 12, 64)]))

    def test_binary_error_names_the_lowest_element_either_operand_lacks(self):
        vm = machine(16)
        vm.store.write_vector(0, 1, [1.0] * 16)
        program = Program(
            [VLoad(1, 0, 1, 9), VLoad(2, 0, 1, 6), VAdd(3, 1, 2, 10)]
        )
        with pytest.raises(
            RegisterFileError, match="^element 6 read before it was written$"
        ):
            vm.run(program)

    def test_in_place_execute_reads_its_cleared_destination(self):
        vm = machine(8)
        vm.store.write_vector(0, 1, [1.0] * 8)
        with pytest.raises(
            RegisterFileError, match="^element 0 read before it was written$"
        ):
            vm.run(Program([VLoad(1, 0, 1, 8), VAdd(1, 1, 1, 8)]))


def two_port_machine(**kwargs) -> DecoupledVectorMachine:
    return DecoupledVectorMachine(
        replace(matched_config(), ports=2), 64, **kwargs
    )


class TestScheduleCheck:
    """Seeded faults in the batching rule fail the timing pass's own
    check, which reads no value."""

    def test_stale_readiness_fails_the_raw_check(self, monkeypatch):
        """Without the register-hazard drain, the ADD reads V1 before
        the load into V1 finished; values are applied in program order,
        so only the schedule check can see it."""
        refusal = OpenBatch.refusal

        def without_drain(self, position, reads, writes, access=None):
            return refusal(self, position, frozenset(), frozenset(), access)

        monkeypatch.setattr(OpenBatch, "refusal", without_drain)
        vm = two_port_machine()
        for register in (1, 2, 3):
            vm.registers.load_values(register, [float(register)] * 64)
        vm.store.write_vector(0, 1, [1.0] * 64)
        vm.store.write_vector(1000, 64, [2.0] * 64)
        program = Program(
            [
                VLoad(1, 0, 1, 64),
                VAdd(2, 1, 1, 64),
                VStore(2, 2000, 1, 64),
                VLoad(1, 1000, 64, 64),
                VAdd(3, 1, 1, 64),
                VStore(3, 3000, 1, 64),
            ]
        )
        with pytest.raises(
            SimulationError,
            match=(
                "^instruction 1 reads V1 at cycle 1, before instruction 0 "
                "made it ready at cycle 74$"
            ),
        ):
            vm.run(program)

    def test_overlapping_spans_fail_the_batch_check(self, monkeypatch):
        """Without the span refusal, the load at 230 joins the store at
        200..263: the outputs stay correct, the timing does not."""
        refusal = OpenBatch.refusal

        def without_span(self, position, reads, writes, access=None):
            found = refusal(self, position, reads, writes, access)
            if found is not None and "overlaps" in found.reason:
                return None
            return found

        program = Program(
            [
                VLoad(1, 0, 1, 64),
                VStore(1, 200, 1, 64),
                VLoad(2, 230, 1, 64),
                VAdd(3, 1, 2, 64),
                VStore(3, 3000, 1, 64),
            ]
        )
        inputs = ((0, 1, [1.0] * 64), (230, 1, [5.0] * 64))
        assert two_port_machine().run(program, inputs).total_cycles == 368
        monkeypatch.setattr(OpenBatch, "refusal", without_span)
        with pytest.raises(
            SimulationError,
            match=(
                "^instructions 1 and 2 share the batch at cycle 75 despite "
                "overlapping address spans and a store$"
            ),
        ):
            two_port_machine().run(program, inputs)

    def test_a_repeated_element_fails_the_delivery_check(self, monkeypatch):
        request_stream = AccessPlan.request_stream

        def repeating(self):
            stream = request_stream(self)
            return [stream[0], *stream[:-1]]

        monkeypatch.setattr(AccessPlan, "request_stream", repeating)
        with pytest.raises(
            SimulationError,
            match=r"^instruction 0 \(LOAD\): .* elements 0\.\.63 exactly once$",
        ):
            machine().run(Program([VLoad(1, 0, 1, 64)]), ((0, 1, [1.0] * 64),))


class TestSingleLoadProgram:
    @pytest.mark.parametrize("chaining", [False, True])
    def test_shape(self, chaining):
        program = single_load_program(VectorAccess(16, 12, 128), chaining)
        assert len(program) == (2 if chaining else 1)
        assert program.memory_instruction_count() == 1
