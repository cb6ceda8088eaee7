"""Tests for the decoupled access/execute machine."""

from __future__ import annotations

import pytest

from repro.core.vector import VectorAccess
from repro.errors import ProgramError
from repro.memory.config import MemoryConfig
from repro.memory.system import MemorySystem
from repro.processor.decoupled import DecoupledVectorMachine
from repro.processor.isa import VAdd, VLoad, VScale, VStore
from repro.processor.program import Program


def make_machine(**kwargs) -> DecoupledVectorMachine:
    defaults = dict(
        config=MemoryConfig.matched(t=3, s=4),
        register_length=128,
    )
    defaults.update(kwargs)
    return DecoupledVectorMachine(**defaults)


class TestDataMovement:
    def test_load_store_roundtrip(self):
        machine = make_machine()
        values = [float(i) * 0.5 for i in range(128)]
        machine.store.write_vector(0, 12, values)
        machine.run(
            Program([VLoad(1, 0, 12), VStore(1, 100000, 1)])
        )
        assert machine.store.read_vector(100000, 1, 128) == values

    def test_daxpy_values(self):
        machine = make_machine()
        xs = [float(i) for i in range(128)]
        ys = [100.0 + i for i in range(128)]
        machine.store.write_vector(0, 3, xs)
        machine.store.write_vector(50000, 1, ys)
        machine.run(
            Program(
                [
                    VLoad(1, 0, 3),
                    VLoad(2, 50000, 1),
                    VScale(3, 1, 2.0),
                    VAdd(4, 3, 2),
                    VStore(4, 50000, 1),
                ]
            )
        )
        result = machine.store.read_vector(50000, 1, 128)
        assert result == [2.0 * x + y for x, y in zip(xs, ys)]

    def test_partial_length(self):
        machine = make_machine()
        machine.store.write_vector(0, 1, [1.0] * 40)
        machine.run(
            Program([VLoad(1, 0, 1, 40), VScale(2, 1, 3.0, 40),
                     VStore(2, 5000, 1, 40)])
        )
        assert machine.store.read_vector(5000, 1, 40) == [3.0] * 40

    def test_length_exceeding_register_rejected(self):
        machine = make_machine()
        machine.store.write_vector(0, 1, [0.0] * 200)
        with pytest.raises(ProgramError):
            machine.run(Program([VLoad(1, 0, 1, 200)]))


class TestTiming:
    def test_conflict_free_load_duration(self):
        machine = make_machine()
        machine.store.write_vector(0, 12, [0.0] * 128)
        result = machine.run(Program([VLoad(1, 0, 12)]))
        timing = result.timings[0]
        assert timing.duration == 8 + 128 + 1
        assert timing.conflict_free
        assert timing.mode == "conflict_free"

    def test_out_of_window_load_slower(self):
        machine = make_machine()
        machine.store.write_vector(0, 1 << 6, [0.0] * 128)
        result = machine.run(Program([VLoad(1, 0, 1 << 6)]))
        timing = result.timings[0]
        assert timing.duration > 137
        assert not timing.conflict_free

    def test_execute_waits_for_register(self):
        machine = make_machine()
        machine.store.write_vector(0, 12, [1.0] * 128)
        result = machine.run(Program([VLoad(1, 0, 12), VScale(2, 1, 2.0)]))
        load, scale = result.timings
        assert scale.start_cycle == load.end_cycle + 1
        assert scale.mode == "decoupled"

    def test_memory_unit_serialises_accesses(self):
        machine = make_machine()
        machine.store.write_vector(0, 12, [1.0] * 128)
        machine.store.write_vector(10000, 1, [1.0] * 128)
        result = machine.run(
            Program([VLoad(1, 0, 12), VLoad(2, 10000, 1)])
        )
        first, second = result.timings
        assert second.start_cycle == first.end_cycle + 1

    def test_store_waits_for_source_register(self):
        machine = make_machine()
        machine.store.write_vector(0, 12, [1.0] * 128)
        result = machine.run(
            Program([VLoad(1, 0, 12), VStore(1, 90000, 1)])
        )
        load, store = result.timings
        assert store.start_cycle >= load.end_cycle + 1


class TestChaining:
    def test_chained_faster_than_decoupled(self):
        program = Program([VLoad(1, 0, 12), VScale(2, 1, 2.0)])
        results = {}
        for chaining in (False, True):
            machine = make_machine(chaining=chaining)
            machine.store.write_vector(0, 12, [1.0] * 128)
            results[chaining] = machine.run(program).total_cycles
        assert results[True] < results[False]
        # Chaining hides nearly the whole execute: the chained total is
        # within startup+2 of the bare load latency.
        assert results[True] <= 137 + 4 + 2

    def test_chained_mode_recorded(self):
        machine = make_machine(chaining=True)
        machine.store.write_vector(0, 12, [1.0] * 128)
        result = machine.run(Program([VLoad(1, 0, 12), VScale(2, 1, 2.0)]))
        assert result.timings[1].mode == "chained"
        assert result.chained_count() == 1

    def test_no_chaining_on_conflicting_load(self):
        """Section 5-F: only deterministic (conflict-free) loads chain."""
        machine = make_machine(chaining=True)
        machine.store.write_vector(0, 1 << 6, [1.0] * 128)
        result = machine.run(
            Program([VLoad(1, 0, 1 << 6), VScale(2, 1, 2.0)])
        )
        assert result.timings[1].mode == "decoupled"

    def test_chained_values_still_correct(self):
        machine = make_machine(chaining=True)
        xs = [float(i) for i in range(128)]
        machine.store.write_vector(0, 12, xs)
        machine.run(
            Program([VLoad(1, 0, 12), VScale(2, 1, 3.0), VStore(2, 70000, 1)])
        )
        assert machine.store.read_vector(70000, 1, 128) == [3.0 * x for x in xs]


class TestConstruction:
    def test_bad_register_length(self):
        with pytest.raises(ProgramError):
            make_machine(register_length=0)

    def test_bad_startup(self):
        with pytest.raises(ProgramError):
            make_machine(execute_startup=0)

    def test_program_validated(self):
        machine = make_machine()
        with pytest.raises(ProgramError):
            machine.run(Program([VAdd(1, 2, 3)]))

    def test_register_count_is_fixed(self):
        with pytest.raises(TypeError):
            make_machine(register_count=16)
        machine = make_machine()
        with pytest.raises(ProgramError, match=r"V8 out of range \[0, 8\)"):
            machine.run(Program([VLoad(8, 0, 1, 8)]))


class TestResultAccounting:
    def test_summary_counts(self):
        machine = make_machine()
        machine.store.write_vector(0, 12, [1.0] * 128)
        machine.store.write_vector(30000, 1, [1.0] * 128)
        result = machine.run(
            Program(
                [
                    VLoad(1, 0, 12),
                    VLoad(2, 30000, 1),
                    VAdd(3, 1, 2),
                    VStore(3, 30000, 1),
                ]
            )
        )
        assert len(result.memory_timings()) == 3
        assert result.conflict_free_loads() == 3
        assert result.total_cycles == max(t.end_cycle for t in result.timings)


class TestLoneAccess:
    """A memory instruction that runs alone is a one-stream kernel run:
    its access result and its timing are the single-stream
    :class:`MemorySystem`'s for the same plan."""

    @pytest.mark.parametrize(
        "config, kind, vector",
        [
            # In the window of the matched memory: conflict-free.
            (MemoryConfig.matched(t=3, s=4), "load", VectorAccess(16, 12, 128)),
            # Out of the window: the requests pile up on two modules.
            (MemoryConfig.matched(t=3, s=4), "load", VectorAccess(0, 64, 128)),
            (
                MemoryConfig.matched(
                    t=3, s=4, input_capacity=2, output_capacity=2
                ),
                "load",
                VectorAccess(0, 64, 64),
            ),
            (
                MemoryConfig.unmatched(t=3, s=4, y=9, input_capacity=2),
                "store",
                VectorAccess(0, 16, 64),
            ),
            (MemoryConfig.matched(t=4, s=5), "load", VectorAccess(5, 32, 64)),
        ],
        ids=[
            "matched-in-window",
            "matched-one-module",
            "matched-deep-queues",
            "unmatched-store",
            "matched-t4",
        ],
    )
    def test_matches_memory_system(self, config, kind, vector):
        machine = make_machine(config=config)
        if kind == "load":
            machine.store.write_vector(
                vector.base, vector.stride, [1.0] * vector.length
            )
            program = [VLoad(1, vector.base, vector.stride, vector.length)]
        else:
            # The store's source register is loaded first, from words
            # the store does not touch; the hazard on V1 runs the two
            # accesses one after the other.
            machine.store.write_vector(100000, 1, [1.0] * vector.length)
            program = [
                VLoad(1, 100000, 1, vector.length),
                VStore(1, vector.base, vector.stride, vector.length),
            ]
        result = machine.run(Program(program))
        _scheme, access = result.memory_runs[-1]
        timing = result.timings[-1]
        plan = machine.planner.plan(vector, mode=machine.plan_mode)
        expected = MemorySystem(config).run_plan(plan)
        assert access.latency == expected.latency
        assert access.issue_stall_cycles == expected.issue_stall_cycles
        assert access.conflict_free == expected.conflict_free
        assert access.module_busy_cycles == expected.module_busy_cycles
        assert request_timings(access.requests) == request_timings(
            expected.requests
        )
        assert all(r.is_store == (kind == "store") for r in access.requests)
        assert timing.end_cycle - timing.start_cycle + 1 == expected.latency
        assert timing.conflict_free == expected.conflict_free


def request_timings(requests):
    return [
        (
            r.element_index,
            r.address,
            r.module,
            r.issue_cycle,
            r.arrival_cycle,
            r.start_cycle,
            r.delivery_cycle,
        )
        for r in requests
    ]
