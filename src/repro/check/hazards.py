"""Program hazard analysis: def-use chains and the machine's batches.

:func:`analyze_program` reads one program point's value pass (its
:class:`~repro.processor.decoupled.ResolvedProgram`) and timing pass
(its :class:`~repro.processor.decoupled.MachineResult`), the passes
``simulate()`` runs, and renders them as the ``HZ2xx`` rules:

- ``HZ201`` *info* — the batches the machine formed (N memory ops → K
  batches) and its peak stream concurrency;
- ``HZ202`` *info* — why each batch broke, per boundary, as the timing
  pass's :meth:`~repro.processor.decoupled.OpenBatch.refusal` said;
- ``HZ203`` *info* — RAW/WAR/WAW dependency counts;
- ``HZ204`` *warn* — dead register write (overwritten before read);
- ``HZ205`` *info* — strided store/load address spans that overlap;
- ``HZ206`` *info* — register written but never read.
"""

from __future__ import annotations

from repro.processor.decoupled import MachineResult, ResolvedProgram
from repro.processor.isa import VLoad, VStore
from repro.processor.program import Program

from repro.check.findings import Finding

__all__ = ["analyze_program"]

#: Cap on per-rule findings for one program.
_FINDING_CAP = 8


def analyze_program(
    resolved: ResolvedProgram,
    run: MachineResult,
    *,
    memory_streams: int,
    location: str,
) -> list[Finding]:
    """Every ``HZ2xx`` finding for one program, resolved and timed on a
    machine with ``memory_streams`` stream slots."""
    program = resolved.program
    batches = sum(1 for timing in run.timings if timing.stream == 0)
    findings = [
        Finding(
            "HZ201",
            "info",
            f"{location}.program",
            f"{len(resolved.accesses)} memory instruction(s) form "
            f"{batches} batch(es) under memory_streams={memory_streams}; "
            f"peak stream concurrency {run.stream_concurrency_peak}",
        )
    ]
    for break_ in run.batch_breaks[:_FINDING_CAP]:
        findings.append(
            Finding(
                "HZ202",
                "info",
                f"{location}.program[{break_.position}]",
                f"batch break before "
                f"{program.instructions[break_.position].mnemonic}: "
                f"{break_.reason}",
            )
        )
    if len(run.batch_breaks) > _FINDING_CAP:
        findings.append(
            Finding(
                "HZ202",
                "info",
                f"{location}.program",
                f"{len(run.batch_breaks) - _FINDING_CAP} further batch "
                f"breaks (capped at {_FINDING_CAP} per program)",
            )
        )
    findings.extend(_def_use_findings(program, location))
    findings.extend(_span_findings(resolved, location))
    return findings


def _def_use_findings(program: Program, location: str) -> list[Finding]:
    """HZ203 dependency counts, HZ204 dead writes, HZ206 unread."""
    raw = war = waw = 0
    last_def: dict[int, int] = {}
    read_since_def: dict[int, bool] = {}
    dead: list[tuple[int, int, int]] = []  # (register, def, redef)
    for position, instruction in enumerate(program):
        for register in sorted(set(instruction.reads())):
            if register in last_def:
                raw += 1
                read_since_def[register] = True
        for register in sorted(set(instruction.writes())):
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


def _span_findings(resolved: ResolvedProgram, location: str) -> list[Finding]:
    """HZ205: strided store/load address spans that overlap."""
    spans = [
        (
            access.position,
            access.mnemonic,
            isinstance(access.instruction, VStore),
            access.span,
        )
        for access in resolved.accesses
        if isinstance(access.instruction, (VLoad, VStore))
    ]
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
