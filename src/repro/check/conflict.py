"""Conflict analysis: closed-form verdicts from the paper's math.

For every strided access a spec declares, the planner's arithmetic
(stride family *x*, matched window of Theorem 1, unmatched windows of
Theorem 3) decides conflict-freedom without running the kernel:

* ``CF101`` *info* — conflict-free; the predicted minimum access time
  ``T + L + 1`` is quoted, and for the XOR mappings the window
  membership that guarantees it.
* ``CF102`` *warn* — conflict-prone under a conflict-tolerant mode
  (``auto`` / ``ordered``): the run completes, but slower than the
  ``T + L + 1`` bound.  Also *warn*, under any mode, for a
  conflict-free order on a ``T = 1`` memory with a one-slot input
  queue, where back-to-back requests still stall
  (:attr:`~repro.memory.config.MemoryConfig.conflict_free_is_minimal`).
* ``CF103`` *info* — indexed access: no closed-form verdict exists;
  scheduling happens at run time.
* ``CF104`` *error* — the drive demands a conflict-free order
  (``conflict_free`` / ``subsequence`` modes, the ``figure6`` engine)
  that the mapping cannot provide for this stride; the run would die
  with an :class:`~repro.errors.OrderingError`.
* ``CF105`` *warn* — a program's memory instruction is conflict-prone
  under the machine's plan mode.

The verdict source is :attr:`AccessPlan.conflict_free` — pure static
arithmetic over the planned request order — which the consistency
suite pins against kernel-measured conflict-freedom.
"""

from __future__ import annotations

from typing import cast

from repro.core.planner import AccessPlan, AccessPlanner, PlanMode
from repro.core.vector import VectorAccess
from repro.errors import OrderingError, ReproError, VectorSpecError
from repro.processor.isa import VLoad, VStore
from repro.scenarios.components import (
    DecoupledDrive,
    Figure6Drive,
    PlannerDrive,
    ScenarioProgram,
    Workload,
)
from repro.scenarios.spec import ScenarioSpec

from repro.check.findings import Finding

__all__ = ["analyze_conflicts"]

#: Planner modes that tolerate conflicts (fall back / keep going).
_TOLERANT_MODES = frozenset({"auto", "ordered"})

#: Cap on per-instruction CF105 findings for one program.
_PROGRAM_FINDING_CAP = 8


def analyze_conflicts(
    spec: ScenarioSpec,
    config,
    *,
    workload: Workload | None,
    scenario_program: ScenarioProgram | None,
    drive,
    register_length: int,
    location: str,
) -> list[Finding]:
    """Closed-form conflict findings for one buildable spec."""
    planner = AccessPlanner(config.mapping, config.t)
    if scenario_program is not None:
        plan_mode = cast(
            PlanMode,
            drive.plan_mode if isinstance(drive, DecoupledDrive) else "auto",
        )
        return _program_findings(
            scenario_program, planner, plan_mode, register_length, location
        )
    if workload is None:
        return []
    mode, forced = _drive_mode(drive)
    findings = []
    for index, access in enumerate(workload.accesses()):
        where = f"{location}.workload[{index}]"
        if not isinstance(access, VectorAccess):
            findings.append(
                Finding(
                    "CF103",
                    "info",
                    where,
                    f"indexed access ({access.length} elements): no "
                    "closed-form conflict verdict; the scheduler resolves "
                    "module order at run time",
                )
            )
            continue
        findings.append(
            _vector_finding(access, planner, config, mode, forced, where)
        )
    return findings


def _drive_mode(drive) -> tuple[PlanMode, bool]:
    """The plan mode a drive uses and whether it *requires* CF order.

    The drives validate their mode strings at construction, so the
    casts narrow to values ``AccessPlanner.plan`` accepts.
    """
    if isinstance(drive, PlannerDrive):
        return cast(PlanMode, drive.mode), drive.mode not in _TOLERANT_MODES
    if isinstance(drive, Figure6Drive):
        return "conflict_free", True
    if isinstance(drive, DecoupledDrive):
        return (
            cast(PlanMode, drive.plan_mode),
            drive.plan_mode not in _TOLERANT_MODES,
        )
    return "auto", False


def _vector_finding(
    access: VectorAccess,
    planner: AccessPlanner,
    config,
    mode: PlanMode,
    forced: bool,
    where: str,
) -> Finding:
    """One CF101/CF102/CF104 verdict for a strided access."""
    shape = (
        f"stride {access.stride} (family x={access.family}), "
        f"length {access.length}"
    )
    geometry = (
        f"M={config.module_count} modules, T={config.service_ratio}, "
        f"ports={config.ports}"
    )
    try:
        plan = planner.plan(access, mode=mode)
    except OrderingError as error:
        return Finding(
            "CF104",
            "error",
            where,
            f"{shape} cannot be ordered conflict-free under mode "
            f"{mode!r} ({geometry}): {error}",
        )
    if plan.conflict_free and not config.conflict_free_is_minimal:
        return Finding(
            "CF102",
            "warn",
            where,
            f"{shape} is conflict-free via scheme {plan.scheme!r} "
            f"({geometry}), but with T=1 and a one-slot input queue "
            f"(q=1) back-to-back requests to one module stall on the "
            f"input register, so latency may exceed the "
            f"T+L+1 = {plan.minimum_latency} minimum; q >= 2 restores it",
        )
    if plan.conflict_free:
        return Finding(
            "CF101",
            "info",
            where,
            f"{shape} is conflict-free via scheme {plan.scheme!r} "
            f"({geometry}); predicted minimum access time "
            f"T+L+1 = {plan.minimum_latency} cycles"
            f"{_window_note(access, config)}",
        )
    severity = "error" if forced else "warn"
    return Finding(
        "CF102",
        severity,
        where,
        f"{shape} is conflict-prone under mode {mode!r} ({geometry}): "
        f"the ordered request stream revisits a busy module within "
        f"T={config.service_ratio} cycles, so latency will exceed the "
        f"T+L+1 = {plan.minimum_latency} minimum",
    )


def _window_note(access: VectorAccess, config) -> str:
    """Theorem-1/3 window membership, where the geometry defines one."""
    from repro.core.windows import matched_window, unmatched_windows
    from repro.mappings.linear import MatchedXorMapping
    from repro.mappings.section import SectionXorMapping

    mapping = config.mapping
    try:
        lam = access.lambda_exponent
        if isinstance(mapping, SectionXorMapping):
            low, high = unmatched_windows(lam, mapping.t, mapping.s, mapping.y)
            if low.contains(access.family) or high.contains(access.family):
                return (
                    f"; family lies in a Theorem-3 window "
                    f"[{low.low}..{low.high}] ∪ [{high.low}..{high.high}]"
                )
        elif isinstance(mapping, MatchedXorMapping):
            window = matched_window(lam, mapping.t, mapping.s)
            if window.contains(access.family):
                return (
                    f"; family lies in the Theorem-1 window "
                    f"[{window.low}..{window.high}]"
                )
    except (ReproError, VectorSpecError, AttributeError):
        pass
    return ""


def _program_findings(
    scenario_program: ScenarioProgram,
    planner: AccessPlanner,
    mode: PlanMode,
    register_length: int,
    location: str,
) -> list[Finding]:
    """CF105 verdicts for a program's strided memory instructions."""
    findings = []
    prone = 0
    for position, instruction in enumerate(scenario_program.program):
        if not isinstance(instruction, (VLoad, VStore)):
            continue
        length = instruction.length or register_length
        access = VectorAccess(instruction.base, instruction.stride, length)
        plan = _plan_or_none(planner, access, mode)
        if plan is None or not plan.conflict_free:
            prone += 1
            if prone <= _PROGRAM_FINDING_CAP:
                findings.append(
                    Finding(
                        "CF105",
                        "warn",
                        f"{location}.program[{position}]",
                        f"{instruction.mnemonic} stride {access.stride} "
                        f"(family x={access.family}), length {length} is "
                        f"conflict-prone under plan mode {mode!r}; the "
                        f"access unit will stall past the T+L+1 minimum",
                    )
                )
    if prone > _PROGRAM_FINDING_CAP:
        findings.append(
            Finding(
                "CF105",
                "warn",
                f"{location}.program",
                f"{prone - _PROGRAM_FINDING_CAP} further memory "
                f"instructions are conflict-prone (capped at "
                f"{_PROGRAM_FINDING_CAP} per program)",
            )
        )
    return findings


def _plan_or_none(
    planner: AccessPlanner, access: VectorAccess, mode: PlanMode
) -> AccessPlan | None:
    try:
        return planner.plan(access, mode=mode)
    except OrderingError:
        return None
