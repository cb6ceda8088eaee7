"""The batches ``repro check`` reports are the decoupled machine's.

Check runs a program point's timing pass, the one ``simulate()`` runs,
and reads its batches from the result: HZ201 counts the batches the
timeline shows (a memory instruction on stream slot 0 opens one) and
HZ202 lists the breaks the timing pass kept
(:attr:`~repro.processor.decoupled.MachineResult.batch_breaks`).  For
every registered program kind at 1, 2 and 4 memory streams, both equal
what ``simulate()`` and a machine run of the same program show.  On
generated straight-line programs, gathers and scatters included, every
recorded break sits at a batch boundary of the timeline.  The same
generated programs show that timing a chained run's resolved accesses
on a non-chaining machine equals running it there.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import event, given, seed, settings
from hypothesis import strategies as st

from repro.check import check_document, check_path
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
    VScatter,
    VStore,
)
from repro.scenarios import ScenarioSpec, load_scenarios, simulate
from repro.scenarios.facade import build_point
from repro.scenarios.registry import PROGRAM, example_params, kinds

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


def assert_breaks_close_batches(program, batches, breaks) -> None:
    """The k-th break closes the k-th batch: it comes after the batch's
    last member and no later than the next batch's first.  Every batch
    but the last is closed by one; a break after the last batch is a
    register hazard that an execute instruction drained."""
    assert len(batches) - 1 <= len(breaks) <= len(batches), (batches, breaks)
    for closed, break_ in zip(batches, breaks):
        assert closed[-1] < break_.position, (closed, break_)
    for break_, opened in zip(breaks, batches[1:]):
        assert break_.position <= opened[0], (break_, opened)
    if len(breaks) == len(batches):
        drain = breaks[-1]
        assert not program.instructions[drain.position].is_memory, drain
        assert drain.reason.startswith("register hazard on "), drain


def program_document(kind: str, streams: int) -> dict:
    """A kind's example program on a section-XOR memory with ``streams``
    ports, so the machine sustains as many streams."""
    return {
        "name": f"{kind}-streams-{streams}",
        "mapping": {"kind": "section-xor", "params": {"t": 3, "s": 4, "y": 9}},
        "memory": {"t": 3, "ports": streams},
        "program": {"kind": kind, "params": example_params(PROGRAM, kind)},
        "drive": {
            "kind": "decoupled",
            "params": {"register_length": REGISTER_LENGTH},
        },
    }


def reported(findings) -> tuple[int, list[tuple[int, str]], int]:
    """HZ201's batch count, the listed HZ202 breaks as (position,
    message), and the number of breaks HZ202 accounts for."""
    [summary] = [f.message for f in findings if f.rule_id == "HZ201"]
    count = int(re.search(r" form (\d+) batch\(es\) ", summary).group(1))
    listed, further = [], 0
    for finding in findings:
        if finding.rule_id != "HZ202":
            continue
        position = re.search(r"\.program\[(\d+)\]$", finding.location)
        if position is None:
            further = int(finding.message.split()[0])
        else:
            listed.append((int(position.group(1)), finding.message))
    return count, listed, len(listed) + further


@pytest.mark.parametrize("kind", kinds(PROGRAM))
@pytest.mark.parametrize("streams", STREAMS)
def test_check_reports_the_machine_s_batches(kind, streams):
    document = program_document(kind, streams)
    report = check_document(json.dumps(document), source="probe")
    count, listed, total = reported(report.findings)
    spec = ScenarioSpec.from_dict(document)
    batches = batches_of(simulate(spec).timeline)
    point = build_point(spec)
    scenario = point.program()
    run = point.machine().run(scenario.program, scenario.inputs)
    assert batches_of(run.timeline) == batches
    assert count == len(batches)
    assert total == len(run.batch_breaks)
    assert listed == [
        (
            break_.position,
            f"batch break before "
            f"{scenario.program.instructions[break_.position].mnemonic}: "
            f"{break_.reason}",
        )
        for break_ in run.batch_breaks[: len(listed)]
    ]
    assert_breaks_close_batches(scenario.program, batches, run.batch_breaks)


def test_an_execute_result_ready_in_time_joins_the_batch():
    """The ADD ends at cycle 29, long before the batch that opens at
    cycle 111, so the machine runs the STORE of its result in that
    batch, and check reports those three batches and two breaks."""
    path = EXAMPLES / "scenario_execute_operand_join.json"
    [spec] = load_scenarios(path.read_text())
    result = simulate(spec)
    assert batches_of(result.timeline) == [(0,), (2, 3), (4, 5)]
    rows = {row[0]: dict(zip(TIMELINE_FIELDS, row)) for row in result.timeline}
    assert rows[1]["end_cycle"] == 29
    assert rows[4]["start_cycle"] == rows[5]["start_cycle"] == 111
    findings = [
        (finding.location.rpartition(".")[2], finding.message)
        for finding in check_path(path).findings
        if finding.rule_id in ("HZ201", "HZ202")
    ]
    assert findings == [
        (
            "program",
            "5 memory instruction(s) form 3 batch(es) under "
            "memory_streams=2; peak stream concurrency 2",
        ),
        (
            "program[1]",
            "batch break before ADD: register hazard on V1 drains the batch",
        ),
        (
            "program[4]",
            "batch break before LOAD: the batch already occupies all "
            "memory_streams=2 stream slots",
        ),
    ]


HAZARD = (2, "register hazard on V2 drains the batch")


@pytest.mark.parametrize(
    "gather_base, batches, breaks",
    [
        (500, [(0, 1), (2, 3)], [HAZARD]),
        (
            995,
            [(0, 1), (2,), (3,)],
            [
                HAZARD,
                (
                    3,
                    "address span [995..1002] overlaps instruction 2's span "
                    "[1000..1007] with a store involved",
                ),
            ],
        ),
    ],
    ids=["apart", "overlapping"],
)
def test_a_gather_batches_by_the_span_its_indices_make(
    gather_base, batches, breaks
):
    """A gather's addresses come from its index register's values: it
    joins the store's batch when they stay clear of the stored span,
    and breaks before it when they overlap it."""
    program = Program(
        [
            VLoad(1, 0, 1, 8),  # the indices 0..7
            VLoad(2, 2000, 1, 8),
            VStore(2, 1000, 1, 8),  # register hazard on V2
            VGather(3, gather_base, 1, 8),
        ]
    )
    inputs = (
        (0, 1, tuple(float(i) for i in range(8))),
        (2000, 1, (1.0,) * 8),
        (gather_base, 1, (2.0,) * 8),
    )
    config = MemoryConfig(SectionXorMapping(3, 4, 9), 3, ports=4)
    run = DecoupledVectorMachine(config, 8).run(program, inputs)
    assert batches_of(run.timeline) == batches
    assert [
        (break_.position, break_.reason) for break_ in run.batch_breaks
    ] == breaks


# -- generated programs ---------------------------------------------------

#: Registers the generated programs use (``V1``..``V5``).
REGISTERS = (1, 2, 3, 4, 5)
GENERATED_LENGTH = 16
#: Index vectors live from here on, above every address a store or a
#: scatter can write, so an index register holds the values drawn.
INDEX_AREA = 1000
#: Indices are drawn below this, so a gather from ``base`` reads only
#: ``base..base + MAX_INDEX - 1``, which its preload covers.
MAX_INDEX = 32


@st.composite
def straight_line_programs(draw):
    """A straight-line program of at most 12 strided loads and stores,
    gathers, scatters, adds and scalings over 4-5 registers, each
    defined before it is read, plus a preload for every word a load or
    gather reads.  A gather or scatter indexes through a register last
    written by a load of drawn indices from the index area.  Bases,
    strides and lengths are drawn from small ranges so that store spans
    sometimes overlap other spans and sometimes do not."""
    registers = REGISTERS[: draw(st.integers(4, 5))]
    defined: dict[int, int] = {}  # register -> elements written
    indices: dict[int, int] = {}  # index register -> elements written
    instructions = []
    inputs = []
    for _ in range(draw(st.integers(1, 12))):
        choices = ["load", "index"]
        if defined:
            choices += ["store", "scale"]
        if len(defined) >= 2:
            choices.append("add")
        if indices:
            choices += ["gather", "scatter"]
        kind = draw(st.sampled_from(choices))
        base = draw(st.integers(0, 160))
        stride = draw(st.integers(1, 6))
        if kind in ("load", "index"):
            dst = draw(st.sampled_from(registers))
            length = draw(st.integers(1, GENERATED_LENGTH))
            if kind == "index":
                base, stride = INDEX_AREA + 20 * len(inputs), 1
                values = draw(
                    st.lists(
                        st.integers(0, MAX_INDEX - 1),
                        min_size=length,
                        max_size=length,
                    )
                )
                indices[dst] = length
            else:
                values = range(length)
                indices.pop(dst, None)
            instructions.append(VLoad(dst, base, stride, length))
            inputs.append((base, stride, tuple(float(v) for v in values)))
            defined[dst] = length
            continue
        if kind in ("gather", "scatter"):
            index = draw(st.sampled_from(sorted(indices)))
            if kind == "gather":
                dst = draw(st.sampled_from([r for r in registers if r != index]))
                length = draw(st.integers(1, indices[index]))
                instructions.append(VGather(dst, base, index, length))
                inputs.append((base, 1, tuple(float(i) for i in range(MAX_INDEX))))
                indices.pop(dst, None)
                defined[dst] = length
            else:
                src = draw(st.sampled_from(sorted(defined)))
                length = draw(st.integers(1, min(defined[src], indices[index])))
                instructions.append(VScatter(src, base, index, length))
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
        indices.pop(dst, None)
        defined[dst] = length
    return Program(instructions), tuple(inputs)


def test_recorded_breaks_close_the_timeline_s_batches():
    """At 1, 2 and 4 memory streams, the breaks a run keeps are its
    batch boundaries, with gathers and scatters among the programs."""
    seen: Counter[str] = Counter()

    @seed(20)
    @settings(max_examples=150, deadline=None, database=None)
    @given(straight_line_programs())
    def check(case):
        program, inputs = case
        if any(isinstance(i, (VGather, VScatter)) for i in program):
            event("gather or scatter")
            seen["indexed"] += 1
        for streams in STREAMS:
            config = MemoryConfig(SectionXorMapping(3, 4, 9), 3, ports=streams)
            run = DecoupledVectorMachine(config, GENERATED_LENGTH).run(
                program, inputs
            )
            batches = batches_of(run.timeline)
            assert_breaks_close_batches(program, batches, run.batch_breaks)
            drained = len(run.batch_breaks) == len(batches)
            seen["drained last" if drained else "open last"] += 1

    check()
    assert seen["indexed"] > 0, seen
    assert seen["drained last"] > 0 and seen["open last"] > 0, seen


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

            resolver = machine(chaining=True)
            resolved = resolver.resolve(program, inputs)
            chained = resolver.time(resolved)
            shortcut = machine().time(resolved)
            full = machine().run(program, inputs)
            assert shortcut.timings == full.timings, f"streams={streams}"
            assert shortcut.total_cycles == full.total_cycles
            assert memory_facts(shortcut) == memory_facts(full)
            traced = machine(chaining=True, tracer=Tracer()).run(program, inputs)
            assert traced.timings == chained.timings
            chained_executes += chained.chained_count()

    check()
    assert chained_executes > 0
