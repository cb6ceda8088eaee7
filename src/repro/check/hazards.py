"""Program hazard analysis: def-use chains and static batchability.

Two layers:

* :func:`predict_batches` runs the decoupled machine's own batching
  rule, :meth:`repro.processor.decoupled.OpenBatch.refusal` — the
  register-hazard drain and the three join refusals (stream capacity,
  operand readiness, store-span overlap) — on register names and
  address arithmetic instead of cycle counts.
* :func:`analyze_program` renders that report, plus classic def-use
  findings, as the ``HZ2xx`` rules:

  - ``HZ201`` *info* — batchability summary (N memory ops → K batches);
  - ``HZ202`` *info* — why each batch broke, per boundary;
  - ``HZ203`` *info* — RAW/WAR/WAW dependency counts;
  - ``HZ204`` *warn* — dead register write (overwritten before read);
  - ``HZ205`` *info* — store/load address spans that overlap;
  - ``HZ206`` *info* — register written but never read.

A static pass cannot time the execute pipeline or read index registers,
so two facts are assumptions, and a break resting on one is reported
as assumed rather than certain: an operand produced by an *execute*
instruction is assumed not ready when the open batch starts (the
machine joins it if it is), and a gather/scatter address span is
data-dependent, so a pair involving a store is assumed to overlap.
Operands produced by loads in earlier batches are always ready — a
load's end cycle precedes the next batch's start by construction.  When
every break is certain, the predicted partition is the machine's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.processor.decoupled import BatchBreak, OpenBatch
from repro.processor.isa import VLoad, VScatter, VStore
from repro.processor.program import Program, def_use_events

from repro.check.findings import Finding

__all__ = [
    "BatchBreak",
    "BatchReport",
    "analyze_program",
    "predict_batches",
]

#: Cap on per-rule findings for one program.
_FINDING_CAP = 8


@dataclass(frozen=True)
class BatchReport:
    """The predicted batch structure of one program."""

    batches: tuple[tuple[int, ...], ...]
    breaks: tuple[BatchBreak, ...]
    memory_streams: int

    @property
    def memory_instruction_count(self) -> int:
        return sum(len(batch) for batch in self.batches)

    @property
    def peak_concurrency(self) -> int:
        return max((len(batch) for batch in self.batches), default=0)

    @property
    def assumed_breaks(self) -> tuple[BatchBreak, ...]:
        """Breaks that rest on an assumption; with none, the partition
        is exactly the machine's."""
        return tuple(break_ for break_ in self.breaks if not break_.certain)


@dataclass(frozen=True)
class _StaticAccess:
    """What the batch rule knows statically about one memory instruction."""

    position: int
    mnemonic: str
    reads: frozenset[int]
    writes: frozenset[int]
    is_store_op: bool
    span: tuple[int, int] | None  # None: data-dependent, so unknown
    late_operands: tuple[int, ...]
    #: Lateness here is the execute-producer assumption, not a cycle.
    late_assumed = True


def predict_batches(
    program: Program, *, memory_streams: int, register_length: int
) -> BatchReport:
    """The batch partition the decoupled machine will form.

    Asks the machine's rule, :meth:`OpenBatch.refusal`, about every
    instruction in order, with static facts (see the module docstring).
    """
    batches: list[tuple[int, ...]] = []
    breaks: list[BatchBreak] = []
    batch = OpenBatch(memory_streams)
    #: Registers an execute instruction wrote last; every other register
    #: was last written by a load or is predefined, so it is ready.
    from_execute: set[int] = set()

    for position, instruction, reads, writes in def_use_events(program):
        access: _StaticAccess | None = None
        if instruction.is_memory:
            access = _StaticAccess(
                position,
                instruction.mnemonic,
                reads,
                writes,
                isinstance(instruction, (VStore, VScatter)),
                _strided_span(instruction, register_length)
                if isinstance(instruction, (VLoad, VStore))
                else None,
                tuple(r for r in instruction.reads() if r in from_execute),
            )
        if batch.members:
            refusal = batch.refusal(position, reads, writes, access)
            if refusal is not None:
                batches.append(
                    tuple(member.position for member in batch.members)
                )
                breaks.append(refusal)
                batch.clear()
        if access is not None:
            batch.add(access)
        if instruction.is_memory:
            from_execute -= writes
        else:
            from_execute |= writes
    if batch.members:
        batches.append(tuple(member.position for member in batch.members))
    return BatchReport(tuple(batches), tuple(breaks), memory_streams)


def _strided_span(
    instruction: VLoad | VStore, register_length: int
) -> tuple[int, int]:
    """Lowest and highest address a strided access touches."""
    length = instruction.length or register_length
    last = instruction.base + (length - 1) * instruction.stride
    return min(instruction.base, last), max(instruction.base, last)


def analyze_program(
    program: Program,
    *,
    memory_streams: int,
    register_length: int,
    location: str,
) -> list[Finding]:
    """Every ``HZ2xx`` finding for one program."""
    findings = []
    report = predict_batches(
        program,
        memory_streams=memory_streams,
        register_length=register_length,
    )
    assumed = len(report.assumed_breaks)
    findings.append(
        Finding(
            "HZ201",
            "info",
            f"{location}.program",
            f"{report.memory_instruction_count} memory instruction(s) "
            f"form {len(report.batches)} batch(es) under "
            f"memory_streams={memory_streams}; peak stream concurrency "
            f"{report.peak_concurrency}"
            + (
                f" (the count relies on {assumed} assumed batch "
                f"break(s); see HZ202)"
                if assumed
                else ""
            ),
        )
    )
    mnemonics = {
        position: instruction.mnemonic
        for position, instruction in enumerate(program)
    }
    for break_ in report.breaks[:_FINDING_CAP]:
        findings.append(
            Finding(
                "HZ202",
                "info",
                f"{location}.program[{break_.position}]",
                f"{'' if break_.certain else 'assumed '}batch break "
                f"before {mnemonics[break_.position]}: {break_.reason}",
            )
        )
    if len(report.breaks) > _FINDING_CAP:
        findings.append(
            Finding(
                "HZ202",
                "info",
                f"{location}.program",
                f"{len(report.breaks) - _FINDING_CAP} further batch "
                f"breaks (capped at {_FINDING_CAP} per program)",
            )
        )
    findings.extend(_def_use_findings(program, location))
    findings.extend(_span_findings(program, register_length, location))
    return findings


def _def_use_findings(program: Program, location: str) -> list[Finding]:
    """HZ203 dependency counts, HZ204 dead writes, HZ206 unread."""
    raw = war = waw = 0
    last_def: dict[int, int] = {}
    read_since_def: dict[int, bool] = {}
    dead: list[tuple[int, int, int]] = []  # (register, def, redef)
    for position, _instruction, reads, writes in def_use_events(program):
        for register in sorted(reads):
            if register in last_def:
                raw += 1
                read_since_def[register] = True
        for register in sorted(writes):
            if register in last_def:
                if read_since_def.get(register):
                    war += 1
                else:
                    waw += 1
                    dead.append((register, last_def[register], position))
            last_def[register] = position
            read_since_def[register] = False
    findings = [
        Finding(
            "HZ203",
            "info",
            f"{location}.program",
            f"register dependencies: {raw} RAW, {war} WAR, {waw} WAW",
        )
    ]
    for register, defined, redefined in dead[:_FINDING_CAP]:
        findings.append(
            Finding(
                "HZ204",
                "warn",
                f"{location}.program[{defined}]",
                f"dead write: V{register} written at instruction "
                f"{defined} is overwritten at instruction {redefined} "
                f"before any read",
            )
        )
    never_read = sorted(
        (register, defined)
        for register, defined in last_def.items()
        if not read_since_def.get(register)
    )
    for register, defined in never_read[:_FINDING_CAP]:
        findings.append(
            Finding(
                "HZ206",
                "info",
                f"{location}.program[{defined}]",
                f"V{register} (last written at instruction {defined}) "
                f"is never read afterwards; fine for final stores' "
                f"sources, wasted work otherwise",
            )
        )
    return findings


def _span_findings(
    program: Program, register_length: int, location: str
) -> list[Finding]:
    """HZ205: strided store/load address spans that overlap."""
    spans: list[tuple[int, str, bool, tuple[int, int]]] = []
    for position, instruction in enumerate(program):
        if not isinstance(instruction, (VLoad, VStore)):
            continue
        spans.append(
            (
                position,
                instruction.mnemonic,
                isinstance(instruction, VStore),
                _strided_span(instruction, register_length),
            )
        )
    findings = []
    overlaps = 0
    for i, (pos_a, mn_a, store_a, span_a) in enumerate(spans):
        for pos_b, mn_b, store_b, span_b in spans[i + 1 :]:
            if not (store_a or store_b):
                continue
            if span_a[1] < span_b[0] or span_b[1] < span_a[0]:
                continue
            overlaps += 1
            if overlaps <= _FINDING_CAP:
                findings.append(
                    Finding(
                        "HZ205",
                        "info",
                        f"{location}.program[{pos_b}]",
                        f"{mn_b} at {pos_b} "
                        f"[{span_b[0]}..{span_b[1]}] overlaps "
                        f"{mn_a} at {pos_a} "
                        f"[{span_a[0]}..{span_a[1]}]; the machine "
                        f"serialises such pairs within a batch",
                    )
                )
    if overlaps > _FINDING_CAP:
        findings.append(
            Finding(
                "HZ205",
                "info",
                f"{location}.program",
                f"{overlaps - _FINDING_CAP} further store/load span "
                f"overlaps (capped at {_FINDING_CAP} per program)",
            )
        )
    return findings
