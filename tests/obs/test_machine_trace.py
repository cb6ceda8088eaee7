"""Machine- and scenario-level tracing: spans must match the timeline.

The acceptance bar for the program path: every per-instruction timeline
row (the ``timeline`` extra scenario results already carry) has exactly
one ``machine/*`` span with the same position, unit and cycle window —
the trace is the timeline, just renderable in Perfetto.  And tracing a
scenario must never change its result.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.obs import Tracer
from repro.scenarios import ScenarioSpec, simulate

DAXPY = {
    "name": "traced-daxpy",
    "mapping": {"kind": "matched-xor", "params": {"t": 3, "s": 4}},
    "memory": {"t": 3, "q": 2},
    "program": {
        "kind": "daxpy",
        "params": {"n": 96, "alpha": 2.0, "x_stride": 4, "y_stride": 4},
    },
    "drive": {"kind": "decoupled", "params": {"chaining": True}},
}

STRIDED = {
    "name": "traced-strided",
    "mapping": {"kind": "matched-xor", "params": {"t": 3, "s": 4}},
    "memory": {"t": 3},
    "workload": {
        "kind": "strided",
        "params": {"base": 16, "stride": 12, "length": 64},
    },
}


@pytest.fixture(scope="module")
def traced_program():
    tracer = Tracer()
    result = simulate(ScenarioSpec.from_dict(DAXPY), tracer=tracer)
    return result, tracer


class TestProgramTrace:
    def test_result_is_tracer_invariant(self, traced_program):
        result, _ = traced_program
        plain = simulate(ScenarioSpec.from_dict(DAXPY))
        assert result.to_dict() == plain.to_dict()

    def test_machine_spans_match_timeline_rows(self, traced_program):
        result, tracer = traced_program
        spans = tracer.spans("machine/")
        timeline = result.timeline
        assert timeline, "program scenario carries no timeline"
        assert len(spans) == len(timeline)
        by_name = {
            (event[1], event[2]): event for event in spans
        }
        for row in timeline:
            position, mnemonic, unit, start, end = row[:5]
            track = (
                "machine/memory" if unit == "memory" else "machine/execute"
            )
            event = by_name[(track, f"{mnemonic} @{position}")]
            assert event[3] == start
            assert event[4] == end
            assert event[5]["position"] == position

    def test_memory_spans_carry_port_and_stream(self, traced_program):
        result, tracer = traced_program
        memory_rows = {
            row[0]: row for row in result.timeline if row[2] == "memory"
        }
        for event in tracer.spans("machine/memory"):
            row = memory_rows[event[5]["position"]]
            assert event[5]["port"] == row[8]
            assert event[5]["stream"] == row[9]

    def test_kernel_tracks_land_at_absolute_program_cycles(
        self, traced_program
    ):
        result, tracer = traced_program
        module_spans = tracer.spans("memory/module ")
        assert module_spans, "program trace has no kernel-level spans"
        # Batches run the kernel from relative cycle 1 and are shifted
        # into program time, so no kernel event may outrun the program.
        program_end = max(row[4] for row in result.timeline)
        assert max(event[4] for event in module_spans) <= program_end
        machine_memory = tracer.spans("machine/memory")
        first_access = min(event[3] for event in machine_memory)
        assert min(event[3] for event in module_spans) >= first_access

    def test_every_memory_instruction_has_its_own_stream_lane(self):
        # One port: each memory instruction of the committed daxpy
        # example runs as its own kernel stream, named after its
        # program position, whether or not it shared a batch.
        example = (
            Path(__file__).resolve().parents[2]
            / "examples"
            / "scenario_daxpy_program.json"
        )
        spec = ScenarioSpec.from_json(example.read_text())
        assert spec.memory.ports == 1
        tracer = Tracer()
        result = simulate(spec, tracer=tracer)
        memory_positions = [
            row[0] for row in result.timeline if row[2] == "memory"
        ]
        assert memory_positions == [0, 1, 4, 5, 6, 9]
        lanes = {event[1] for event in tracer.spans("streams/")}
        assert lanes == {
            f"streams/i{position}" for position in memory_positions
        }


class TestWorkloadTrace:
    def test_workload_scenario_traces_and_is_invariant(self):
        tracer = Tracer()
        result = simulate(ScenarioSpec.from_dict(STRIDED), tracer=tracer)
        plain = simulate(ScenarioSpec.from_dict(STRIDED))
        assert result.to_dict() == plain.to_dict()
        assert tracer.spans("streams/")
        assert tracer.spans("memory/module ")
        spans = tracer.spans("streams/")
        assert max(event[4] for event in spans) == result.latency
