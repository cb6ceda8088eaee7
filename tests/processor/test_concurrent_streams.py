"""Concurrent in-flight memory instructions on the decoupled machine.

The access unit sustains one in-flight memory instruction per memory
port (overridable via ``memory_streams``).  These tests pin the three
contracts: the default single-port machine keeps the paper's serial
per-access timing; hazard-free accesses overlap when streams exist;
hazards, address overlap and operand readiness always close a batch, so
results stay numerically correct.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.memory.config import MemoryConfig
from repro.processor.decoupled import TIMELINE_FIELDS, DecoupledVectorMachine
from repro.processor.isa import VAdd, VLoad, VStore
from repro.processor.program import Program
from repro.processor.stripmine import daxpy_program


def make_machine(ports=1, memory_streams=None, chaining=False):
    config = MemoryConfig.unmatched(
        t=3, s=4, y=9, input_capacity=2, ports=ports
    )
    return DecoupledVectorMachine(
        config,
        register_length=64,
        chaining=chaining,
        memory_streams=memory_streams,
    )


def two_load_program():
    return Program([VLoad(1, 0, 4, 64), VLoad(2, 4096, 4, 64)])


class TestSerialDefault:
    def test_single_port_serialises_accesses(self):
        """ports=1 (the seed machine) keeps the legacy serial timing."""
        machine = make_machine(ports=1)
        machine.store.write_vector(0, 4, [1.0] * 64)
        machine.store.write_vector(4096, 4, [2.0] * 64)
        result = machine.run(two_load_program())
        first, second = result.timings
        assert second.start_cycle == first.end_cycle + 1
        assert result.stream_concurrency_peak == 1

    def test_memory_streams_defaults_to_ports(self):
        assert make_machine(ports=1).memory_streams == 1
        assert make_machine(ports=2).memory_streams == 2
        assert make_machine(ports=1, memory_streams=3).memory_streams == 3

    def test_bad_memory_streams_rejected(self):
        with pytest.raises(ConfigurationError, match="'memory_streams'"):
            make_machine(memory_streams=0)


class TestConcurrentLoads:
    def test_two_ports_overlap_independent_loads(self):
        machine = make_machine(ports=2)
        machine.store.write_vector(0, 4, [1.0] * 64)
        machine.store.write_vector(4096, 4, [2.0] * 64)
        result = machine.run(two_load_program())
        first, second = result.timings
        assert first.start_cycle == second.start_cycle
        assert result.stream_concurrency_peak == 2
        assert {first.port, second.port} == {0, 1}
        assert (first.stream, second.stream) == (0, 1)

    def test_overlap_beats_serial_total(self):
        serial = make_machine(ports=1)
        concurrent = make_machine(ports=2)
        for machine in (serial, concurrent):
            machine.store.write_vector(0, 4, [1.0] * 64)
            machine.store.write_vector(4096, 4, [2.0] * 64)
        serial_total = serial.run(two_load_program()).total_cycles
        concurrent_total = concurrent.run(two_load_program()).total_cycles
        assert concurrent_total < serial_total

    def test_one_bus_two_streams_interleaves(self):
        """memory_streams > ports shares the single address bus."""
        machine = make_machine(ports=1, memory_streams=2)
        machine.store.write_vector(0, 4, [1.0] * 64)
        machine.store.write_vector(4096, 4, [2.0] * 64)
        result = machine.run(two_load_program())
        first, second = result.timings
        assert first.start_cycle == second.start_cycle
        # One request per cycle for 128 elements: both drain together,
        # slower than a lone access but faster than two serial ones.
        serial = make_machine(ports=1)
        serial.store.write_vector(0, 4, [1.0] * 64)
        serial.store.write_vector(4096, 4, [2.0] * 64)
        assert (
            result.total_cycles
            < serial.run(two_load_program()).total_cycles
        )


class TestHazardsCloseBatches:
    def test_store_after_load_same_register_serialises(self):
        machine = make_machine(ports=2)
        machine.store.write_vector(0, 4, [1.5] * 64)
        result = machine.run(
            Program([VLoad(1, 0, 4, 64), VStore(1, 8192, 1, 64)])
        )
        load, store = result.timings
        assert store.start_cycle > load.end_cycle
        assert machine.store.read_vector(8192, 1, 64) == [1.5] * 64

    def test_overlapping_store_does_not_batch(self):
        """A store into the span a concurrent load reads must wait."""
        machine = make_machine(ports=2)
        machine.store.write_vector(0, 1, [1.0] * 64)
        machine.store.write_vector(4096, 1, [9.0] * 64)
        result = machine.run(
            Program(
                [
                    VLoad(2, 4096, 1, 64),
                    # Store overlaps the *next* load's span (0..63):
                    VStore(2, 0, 1, 64),
                    VLoad(3, 32, 1, 32),
                ]
            )
        )
        store_timing = result.timings[1]
        load3 = result.timings[2]
        assert load3.start_cycle > store_timing.end_cycle
        # The load observes the stored values, not the preloaded ones.
        register = machine.registers.register(3)
        assert [register.read(i) for i in range(32)] == [9.0] * 32

    def test_dependent_execute_waits_for_batched_loads(self):
        machine = make_machine(ports=2)
        machine.store.write_vector(0, 4, [1.0] * 64)
        machine.store.write_vector(4096, 4, [2.0] * 64)
        result = machine.run(
            Program(
                [
                    VLoad(1, 0, 4, 64),
                    VLoad(2, 4096, 4, 64),
                    VAdd(3, 1, 2, 64),
                ]
            )
        )
        load_a, load_b, add = result.timings
        assert add.start_cycle > max(load_a.end_cycle, load_b.end_cycle)
        register = machine.registers.register(3)
        assert [register.read(i) for i in range(64)] == [3.0] * 64


class TestWholeKernels:
    @pytest.mark.parametrize("ports", [1, 2, 4])
    def test_daxpy_correct_at_any_port_count(self, ports):
        config = MemoryConfig.unmatched(
            t=3, s=4, y=9, input_capacity=2, ports=ports
        )
        machine = DecoupledVectorMachine(config, 64)
        n = 128
        x = tuple(float(i) for i in range(n))
        y = tuple(1.0 for _ in range(n))
        run = machine.run(
            daxpy_program(n, 64, 2.0, 0, 4, 4 * n, 4),
            inputs=((0, 4, x), (4 * n, 4, y)),
            expected=((4 * n, 4, tuple(2.0 * a + b for a, b in zip(x, y))),),
        )
        assert run.outputs_correct is True
        if ports == 1:
            assert run.stream_concurrency_peak == 1
        else:
            assert run.stream_concurrency_peak >= 2

    def test_more_ports_never_slower(self):
        totals = {}
        for ports in (1, 2):
            config = MemoryConfig.unmatched(
                t=3, s=4, y=9, input_capacity=2, ports=ports
            )
            machine = DecoupledVectorMachine(config, 64)
            n = 128
            run = machine.run(
                daxpy_program(n, 64, 2.0, 0, 4, 4 * n, 4),
                inputs=(
                    (0, 4, tuple(float(i) for i in range(n))),
                    (4 * n, 4, tuple(1.0 for _ in range(n))),
                ),
            )
            totals[ports] = run.total_cycles
        assert totals[2] < totals[1]


class TestTimelineOccupancy:
    def test_timeline_rows_carry_port_and_stream(self):
        assert TIMELINE_FIELDS[-2:] == ("port", "stream")
        config = MemoryConfig.unmatched(
            t=3, s=4, y=9, input_capacity=2, ports=2
        )
        run = DecoupledVectorMachine(config, 64).run(
            two_load_program(),
            inputs=((0, 4, (1.0,) * 64), (4096, 4, (2.0,) * 64)),
        )
        rows = [dict(zip(TIMELINE_FIELDS, row)) for row in run.timeline]
        memory_rows = [row for row in rows if row["unit"] == "memory"]
        assert {row["port"] for row in memory_rows} == {0, 1}
        assert {row["stream"] for row in memory_rows} == {0, 1}
