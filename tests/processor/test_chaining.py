"""Tests for the closed-form chaining model against the machine."""

from __future__ import annotations

import pytest

from repro.errors import ProgramError
from repro.memory.config import MemoryConfig
from repro.processor.chaining import (
    chained_pair_latency,
    chaining_speedup,
    conflict_free_load_latency,
    decoupled_pair_latency,
)
from repro.processor.decoupled import DecoupledVectorMachine
from repro.processor.isa import VLoad, VScale
from repro.processor.program import Program


class TestClosedForms:
    def test_load_latency(self):
        assert conflict_free_load_latency(128, 8) == 137

    def test_decoupled_pair(self):
        assert decoupled_pair_latency(128, 8, 4) == 137 + 4 + 128

    def test_chained_pair(self):
        assert chained_pair_latency(128, 8, 4) == 137 + 1 + 4

    def test_speedup_grows_with_length(self):
        short = chaining_speedup(16, 8, 4)
        long = chaining_speedup(1024, 8, 4)
        assert long > short
        assert long < 2.0

    def test_invalid_arguments(self):
        with pytest.raises(ProgramError):
            conflict_free_load_latency(0, 8)


class TestModelMatchesMachine:
    @pytest.mark.parametrize("length", [32, 64, 128])
    def test_decoupled(self, length):
        machine = DecoupledVectorMachine(
            MemoryConfig.matched(t=3, s=4),
            register_length=length,
            execute_startup=4,
            chaining=False,
        )
        machine.store.write_vector(0, 12, [1.0] * length)
        result = machine.run(Program([VLoad(1, 0, 12), VScale(2, 1, 2.0)]))
        assert result.total_cycles == decoupled_pair_latency(length, 8, 4)

    @pytest.mark.parametrize("length", [32, 64, 128])
    def test_chained(self, length):
        machine = DecoupledVectorMachine(
            MemoryConfig.matched(t=3, s=4),
            register_length=length,
            execute_startup=4,
            chaining=True,
        )
        machine.store.write_vector(0, 12, [1.0] * length)
        result = machine.run(Program([VLoad(1, 0, 12), VScale(2, 1, 2.0)]))
        assert result.total_cycles == chained_pair_latency(length, 8, 4)


class TestProgramModel:
    """The whole-program analytic model (generalised Section 5-F)."""

    def setup_method(self):
        from repro.core.vector import VectorAccess
        from repro.processor import single_load_program

        self.pair = single_load_program(VectorAccess(0, 4, 64), chaining=True)

    def test_reduces_to_pair_formulas(self):
        from repro.processor.chaining import program_latency

        assert program_latency(self.pair, 64, 8, 4, chained=True) == (
            chained_pair_latency(64, 8, 4)
        )
        assert program_latency(self.pair, 64, 8, 4, chained=False) == (
            decoupled_pair_latency(64, 8, 4)
        )

    def test_pair_speedup_matches_closed_form(self):
        from repro.processor.chaining import program_chaining_speedup

        assert program_chaining_speedup(self.pair, 64, 8, 4) == pytest.approx(
            chaining_speedup(64, 8, 4)
        )

    @pytest.mark.parametrize("chained", [False, True])
    def test_matches_simulation_for_conflict_free_kernels(self, chained):
        from repro.memory.config import MemoryConfig
        from repro.processor.chaining import program_latency
        from repro.processor.decoupled import DecoupledVectorMachine
        from repro.processor.stripmine import (
            daxpy_program,
            saxpy_chain_program,
        )

        config = MemoryConfig.matched(t=3, s=4, input_capacity=2)
        n = 160  # 64 + 64 + 32: full strips and a conflict-free tail
        x = tuple(float(i) for i in range(n))
        y = tuple(float(3 * i) for i in range(n))
        cases = [
            (daxpy_program(n, 64, 2.0, 0, 4, 8192, 4),
             ((0, 4, x), (8192, 4, y))),
            (saxpy_chain_program(n, 64, 3.0, 0, 4, 8192, 4), ((0, 4, x),)),
        ]
        for program, inputs in cases:
            machine = DecoupledVectorMachine(config, 64, chaining=chained)
            run = machine.run(program, inputs)
            assert run.conflict_free_loads() == sum(
                1 for row in run.timeline if row[2] == "memory" and row[7]
            )
            model = program_latency(
                program, 64, config.service_ratio, 4, chained=chained
            )
            assert run.total_cycles == model

    def test_empty_program_has_unit_speedup(self):
        from repro.processor.chaining import program_chaining_speedup
        from repro.processor.program import Program

        assert program_chaining_speedup(Program(), 64, 8, 4) == 1.0
