"""Static batch prediction vs the decoupled machine's runtime batches.

For every registered program kind and a sweep of stream counts, the
batch partition :func:`repro.check.predict_batches` derives from
register names and address arithmetic alone must equal the partition
the cycle-accurate :class:`DecoupledVectorMachine` actually forms.  On
generated programs the same holds whenever every predicted break is
certain; a break that rests on an assumption is reported as one.  The
same generated programs show that timing a chained run's resolved
accesses on a non-chaining machine equals running it there.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest
from hypothesis import event, given, seed, settings
from hypothesis import strategies as st

from repro.check import check_path, predict_batches
from repro.mappings import SectionXorMapping
from repro.memory import MemoryConfig
from repro.obs.tracer import Tracer
from repro.processor import (
    TIMELINE_FIELDS,
    DecoupledVectorMachine,
    Program,
    VAdd,
    VGather,
    VLoad,
    VScale,
    VStore,
)
from repro.scenarios import ComponentSpec, load_scenarios, simulate
from repro.scenarios.registry import PROGRAM, build, example_params, kinds

REGISTER_LENGTH = 64
STREAMS = [1, 2, 4]
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def batches_of(timeline) -> list[tuple[int, ...]]:
    """The batch partition the machine formed, recovered from timeline
    rows: a new batch starts whenever a memory instruction lands on
    stream slot 0."""
    stream = TIMELINE_FIELDS.index("stream")
    batches: list[list[int]] = []
    for row in sorted(timeline):
        if row[stream] == 0:
            batches.append([])
        if row[stream] is not None:
            batches[-1].append(row[0])
    return [tuple(batch) for batch in batches]


def runtime_batches(
    program, inputs, streams: int, register_length: int = REGISTER_LENGTH
) -> list[tuple[int, ...]]:
    config = MemoryConfig(SectionXorMapping(3, 4, 9), 3, ports=streams)
    machine = DecoupledVectorMachine(config, register_length)
    return batches_of(machine.run(program, inputs).timeline)


@pytest.mark.parametrize("kind", kinds(PROGRAM))
@pytest.mark.parametrize("streams", STREAMS)
def test_static_batches_match_machine(kind, streams):
    scenario = build(
        PROGRAM,
        ComponentSpec.of(kind, **example_params(PROGRAM, kind)),
        register_length=REGISTER_LENGTH,
    )
    report = predict_batches(
        scenario.program,
        memory_streams=streams,
        register_length=REGISTER_LENGTH,
    )
    assert list(report.batches) == runtime_batches(
        scenario.program, scenario.inputs, streams
    ), (
        f"{kind} streams={streams}"
    )
    assert report.memory_streams == streams
    assert report.peak_concurrency <= streams
    assert report.memory_instruction_count == sum(
        len(batch) for batch in report.batches
    )


def test_every_break_names_a_batch_boundary():
    scenario = build(
        PROGRAM,
        ComponentSpec.of("daxpy", **example_params(PROGRAM, "daxpy")),
        register_length=REGISTER_LENGTH,
    )
    report = predict_batches(
        scenario.program, memory_streams=2, register_length=REGISTER_LENGTH
    )
    boundary_positions = {batch[0] for batch in report.batches[1:]}
    for break_ in report.breaks:
        # A break is recorded against the instruction that could not
        # join; the next batch starts at the next memory instruction.
        assert any(
            break_.position <= start for start in boundary_positions
        ), break_
        assert break_.reason


class TestAssumedBreaks:
    """A break a static pass cannot time is reported as an assumption."""

    spec_path = EXAMPLES / "scenario_execute_operand_join.json"

    def test_execute_operand_break_is_assumed_and_the_machine_joins(self):
        [spec] = load_scenarios(self.spec_path.read_text())
        scenario = build(PROGRAM, spec.program, register_length=64)
        report = predict_batches(
            scenario.program, memory_streams=2, register_length=64
        )
        assert report.batches == ((0,), (2, 3), (4,), (5,))
        hazard, capacity, operand = report.breaks
        assert (hazard.position, hazard.certain) == (1, True)
        assert (capacity.position, capacity.certain) == (4, True)
        assert (operand.position, operand.certain) == (5, False)
        assert report.assumed_breaks == (operand,)
        # The ADD ends at cycle 29, long before the batch that opens at
        # cycle 111, so the machine runs the STORE in that batch.
        result = simulate(spec)
        assert batches_of(result.timeline) == [(0,), (2, 3), (4, 5)]
        rows = {
            row[0]: dict(zip(TIMELINE_FIELDS, row)) for row in result.timeline
        }
        assert rows[1]["end_cycle"] == 29
        assert rows[4]["start_cycle"] == rows[5]["start_cycle"] == 111

    def test_findings_word_the_break_as_an_assumption(self):
        findings = [
            finding
            for finding in check_path(self.spec_path).findings
            if finding.rule_id in ("HZ201", "HZ202")
        ]
        assert {finding.severity for finding in findings} == {"info"}
        summary, hazard, capacity, operand = (
            finding.message for finding in findings
        )
        assert summary.endswith(
            "(the count relies on 1 assumed batch break(s); see HZ202)"
        )
        assert hazard.startswith("batch break before ADD: register hazard")
        assert capacity.startswith("batch break before LOAD: the batch")
        assert operand.startswith("assumed batch break before STORE: ")
        assert "assumed not ready" in operand

    def test_gather_span_break_is_assumed(self):
        program = Program(
            [
                VLoad(1, 0, 1, 8),
                VLoad(2, 2000, 1, 8),
                VStore(2, 1000, 1, 8),  # register hazard on V2
                VGather(3, 500, 1, 8),  # its span depends on V1's data
            ]
        )
        report = predict_batches(
            program, memory_streams=4, register_length=8
        )
        assert report.batches == ((0, 1), (2,), (3,))
        hazard, span = report.breaks
        assert (hazard.position, hazard.certain) == (2, True)
        assert (span.position, span.certain) == (3, False)
        assert "data-dependent address span" in span.reason


# -- generated programs ---------------------------------------------------

#: Registers the generated programs use (``V1``..``V5``).
REGISTERS = (1, 2, 3, 4, 5)
GENERATED_LENGTH = 16


@st.composite
def straight_line_programs(draw):
    """A straight-line program of at most 12 strided loads and stores,
    adds and scalings over 4-5 registers, each defined before it is
    read, plus a preload for every word a load reads.  Bases, strides
    and lengths are drawn from small ranges so that store spans
    sometimes overlap other spans and sometimes do not."""
    registers = REGISTERS[: draw(st.integers(4, 5))]
    defined: dict[int, int] = {}  # register -> elements written
    instructions = []
    inputs = []
    for _ in range(draw(st.integers(1, 12))):
        choices = ["load"]
        if defined:
            choices += ["store", "scale"]
        if len(defined) >= 2:
            choices.append("add")
        kind = draw(st.sampled_from(choices))
        base = draw(st.integers(0, 160))
        stride = draw(st.integers(1, 6))
        if kind == "load":
            dst = draw(st.sampled_from(registers))
            length = draw(st.integers(1, GENERATED_LENGTH))
            instructions.append(VLoad(dst, base, stride, length))
            inputs.append((base, stride, tuple(float(i) for i in range(length))))
            defined[dst] = length
            continue
        if kind == "store":
            src = draw(st.sampled_from(sorted(defined)))
            length = draw(st.integers(1, defined[src]))
            instructions.append(VStore(src, base, stride, length))
            continue
        sources = draw(
            st.lists(
                st.sampled_from(sorted(defined)),
                min_size=2 if kind == "add" else 1,
                max_size=2 if kind == "add" else 1,
                unique=True,
            )
        )
        dst = draw(st.sampled_from([r for r in registers if r not in sources]))
        length = draw(st.integers(1, min(defined[r] for r in sources)))
        if kind == "add":
            instructions.append(VAdd(dst, *sources, length))
        else:
            instructions.append(VScale(dst, sources[0], 0.5, length))
        defined[dst] = length
    return Program(instructions), tuple(inputs)


def test_generated_programs_batch_as_predicted():
    """With only certain breaks, the predicted partition is the
    machine's, at 1, 2 and 4 memory streams."""
    seen: Counter[str] = Counter()

    @seed(20)
    @settings(max_examples=150, deadline=None, database=None)
    @given(straight_line_programs())
    def check(case):
        program, inputs = case
        for streams in STREAMS:
            report = predict_batches(
                program,
                memory_streams=streams,
                register_length=GENERATED_LENGTH,
            )
            if report.assumed_breaks:
                event("assumed break")
                seen["assumed"] += 1
                continue
            event("certain breaks only")
            seen["certain"] += 1
            assert list(report.batches) == runtime_batches(
                program, inputs, streams, GENERATED_LENGTH
            ), f"streams={streams}"

    check()
    assert seen["assumed"] > 0 and seen["certain"] > 0, seen


def memory_facts(run) -> list[tuple]:
    """Each memory run's scheme, latency and delivery cycles."""
    return [
        (scheme, access.latency, access.requests.delivery_cycles)
        for scheme, access in run.memory_runs
    ]


def test_baseline_timing_equals_a_full_non_chaining_run():
    """The chaining baseline's shortcut, ``time`` on the chained run's
    resolved accesses, equals a fresh non-chaining ``run`` at 1, 2 and 4
    memory streams; a traced chained run times as an untraced one."""
    chained_executes = 0

    @seed(23)
    @settings(max_examples=150, deadline=None, database=None)
    @given(straight_line_programs())
    def check(case):
        nonlocal chained_executes
        program, inputs = case
        for streams in STREAMS:
            config = MemoryConfig(SectionXorMapping(3, 4, 9), 3, ports=streams)

            def machine(**kwargs):
                return DecoupledVectorMachine(config, GENERATED_LENGTH, **kwargs)

            chained = machine(chaining=True).run(program, inputs)
            shortcut = machine().time(chained.resolved)
            full = machine().run(program, inputs)
            assert shortcut.timings == full.timings, f"streams={streams}"
            assert shortcut.total_cycles == full.total_cycles
            assert memory_facts(shortcut) == memory_facts(full)
            traced = machine(chaining=True, tracer=Tracer()).run(program, inputs)
            assert traced.timings == chained.timings
            chained_executes += chained.chained_count()

    check()
    assert chained_executes > 0
