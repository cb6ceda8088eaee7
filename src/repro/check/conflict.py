"""Conflict analysis: closed-form verdicts from the paper's math.

For every strided access a spec declares, the planner's arithmetic
(stride family *x*, matched window of Theorem 1, unmatched windows of
Theorem 3) decides conflict-freedom without running the kernel:

* ``CF101`` *info* — conflict-free; the predicted minimum access time
  ``T + L + 1`` is quoted, and for the XOR mappings the window
  membership that guarantees it.
* ``CF102`` *warn* — conflict-prone under the drive's mode, whichever
  it is: the run completes, but slower than the ``T + L + 1`` bound
  on one port (with more ports a stall may hide behind it).  A forced
  order may be conflict-prone by design (the Section 3.1 subsequence
  order takes up to ``2T + L``), and ``simulate()`` runs it.  Also
  *warn* for a conflict-free order on a ``T = 1`` memory with a
  one-slot input queue, where back-to-back requests still stall
  (:attr:`~repro.memory.config.MemoryConfig.conflict_free_is_minimal`).
* ``CF103`` *info* — indexed access: no closed-form verdict exists;
  scheduling happens at run time.
* ``CF104`` *error* — the drive demands an order (``conflict_free`` /
  ``subsequence`` modes, the ``figure6`` engine) that cannot be built
  for this stride; the finding quotes the error ``simulate()`` raises,
  the planner's :class:`~repro.errors.OrderingError` or the engine's
  own refusal.
* ``CF105`` *warn* — a program's strided memory instruction is
  conflict-prone under the machine's plan mode.

The verdict source is the conflict-freedom of the order ``simulate()``
issues — pure static arithmetic over it — which the consistency suite
pins against kernel-measured conflict-freedom.  A workload's accesses
are planned here, and a ``figure6`` point's vector is run through the
engine by :func:`~repro.scenarios.facade.figure6_run`, the function
``simulate()`` takes its run from; a program's are the plans the
machine's value pass made (the runner resolves the program first, and
a plan that raises there is ``simulate()``'s refusal, ``SL303``).
"""

from __future__ import annotations

from repro.core.distributions import is_conflict_free
from repro.core.planner import AccessPlan, AccessPlanner, PlanMode
from repro.core.vector import VectorAccess
from repro.errors import (
    HardwareModelError,
    OrderingError,
    ReproError,
    VectorSpecError,
)
from repro.memory.config import MemoryConfig
from repro.processor.decoupled import ResolvedProgram
from repro.scenarios.components import (
    DecoupledDrive,
    Figure6Drive,
    PlannerDrive,
)
from repro.scenarios.facade import DesignPoint, figure6_run

from repro.check.findings import Finding

__all__ = ["analyze_conflicts"]

#: Cap on per-instruction CF105 findings for one program.
_PROGRAM_FINDING_CAP = 8


def analyze_conflicts(
    point: DesignPoint,
    resolved: ResolvedProgram | None,
    *,
    location: str,
) -> list[Finding]:
    """Closed-form conflict findings for one built design point, or,
    on a program point, for the plans of its resolved program."""
    mode = _drive_mode(point.drive)
    if resolved is not None:
        return _program_findings(resolved, mode, location)
    if point.workload is None:
        return []
    config = point.config
    planner = AccessPlanner(config.mapping, config.t)
    findings = []
    for index, access in enumerate(point.workload.accesses()):
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
        findings.append(_vector_finding(point, access, planner, mode, where))
    return findings


def _drive_mode(drive: object) -> PlanMode:
    """The plan mode a drive orders its accesses by."""
    if isinstance(drive, PlannerDrive):
        return drive.mode
    if isinstance(drive, DecoupledDrive):
        return drive.plan_mode
    return "conflict_free"  # the Figure 6 engine


def _issued_order(
    point: DesignPoint,
    access: VectorAccess,
    planner: AccessPlanner,
    mode: PlanMode,
) -> tuple[str, bool]:
    """The scheme and conflict-freedom of the order ``simulate()``
    issues for ``access``; raises what ``simulate()`` raises when there
    is none."""
    if isinstance(point.drive, Figure6Drive):
        run = figure6_run(point)
        return "conflict_free", is_conflict_free(
            run.modules, point.config.service_ratio
        )
    plan = planner.plan(access, mode=mode)
    return plan.scheme, plan.conflict_free


def _vector_finding(
    point: DesignPoint,
    access: VectorAccess,
    planner: AccessPlanner,
    mode: PlanMode,
    where: str,
) -> Finding:
    """One CF101/CF102/CF104 verdict for a strided access."""
    config = point.config
    shape = (
        f"stride {access.stride} (family x={access.family}), "
        f"length {access.length}"
    )
    geometry = (
        f"M={config.module_count} modules, T={config.service_ratio}, "
        f"ports={config.ports}"
    )
    minimum = config.service_ratio + access.length + 1
    try:
        scheme, conflict_free = _issued_order(point, access, planner, mode)
    except (OrderingError, HardwareModelError) as error:
        if isinstance(point.drive, Figure6Drive):
            refusal = "cannot be ordered conflict-free by the Figure 6 engine"
        elif mode == "subsequence":
            refusal = f"cannot be ordered under mode {mode!r}"
        else:
            refusal = f"cannot be ordered conflict-free under mode {mode!r}"
        return Finding(
            "CF104", "error", where, f"{shape} {refusal} ({geometry}): {error}"
        )
    if conflict_free and not config.conflict_free_is_minimal:
        return Finding(
            "CF102",
            "warn",
            where,
            f"{shape} is conflict-free via scheme {scheme!r} "
            f"({geometry}), but with T=1 and a one-slot input queue "
            f"(q=1) back-to-back requests to one module stall on the "
            f"input register, so latency may exceed the "
            f"T+L+1 = {minimum} minimum; q >= 2 restores it",
        )
    if conflict_free:
        return Finding(
            "CF101",
            "info",
            where,
            f"{shape} is conflict-free via scheme {scheme!r} "
            f"({geometry}); predicted minimum access time "
            f"T+L+1 = {minimum} cycles"
            f"{_window_note(access, config)}",
        )
    # One port issues one request a cycle, so a stall always shows; a
    # second port may hide it behind the T+L+1 minimum.
    exceed = "will exceed" if config.ports == 1 else "may exceed"
    return Finding(
        "CF102",
        "warn",
        where,
        f"{shape} is conflict-prone under mode {mode!r} ({geometry}): "
        f"the ordered request stream revisits a busy module within "
        f"T={config.service_ratio} cycles, so latency {exceed} the "
        f"T+L+1 = {minimum} minimum",
    )


def _window_note(access: VectorAccess, config: MemoryConfig) -> str:
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
    resolved: ResolvedProgram, mode: PlanMode, location: str
) -> list[Finding]:
    """CF105 verdicts for the plans the value pass made for a program's
    strided memory instructions."""
    findings = []
    prone = 0
    for access in resolved.accesses:
        plan = access.plan
        if not isinstance(plan, AccessPlan) or plan.conflict_free:
            continue
        prone += 1
        if prone <= _PROGRAM_FINDING_CAP:
            vector = plan.vector
            findings.append(
                Finding(
                    "CF105",
                    "warn",
                    f"{location}.program[{access.position}]",
                    f"{access.mnemonic} stride {vector.stride} "
                    f"(family x={vector.family}), length {vector.length} is "
                    f"conflict-prone under plan mode {mode!r}; the access "
                    f"unit will stall past the T+L+1 minimum",
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
