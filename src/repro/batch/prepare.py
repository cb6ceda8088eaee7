"""Single-pass design-point classification for the batch evaluator.

:func:`prepare_point` decides once, per spec, which tier evaluates it:

* ``"analytic"`` — every access is conflict-free, so the full
  :class:`~repro.scenarios.ScenarioResult` is closed-form arithmetic
  (the prepared result rides along);
* ``"soa"`` — planner-drive points with at least one conflict-prone or
  indexed access carry their per-access plans to the kernel (the tier
  name is kept so manifests and history stay comparable);
* ``"fallback"`` — programs and the figure6/decoupled drives, which
  need the per-point engines.

The classification leans on :mod:`repro.batch.fastpath`: for the
paper's XOR mappings, conflict-free feasibility is decided by the
Lemma-1 chunk arithmetic, so a conflict-free access never materialises
its request order.  Every other access is planned by the real
:class:`~repro.core.planner.AccessPlanner`, whose plans are
authoritative by construction.  Build and validation errors surface
exactly as :func:`repro.scenarios.simulate` raises them: the same
factories and constructors run in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.batch.fastpath import cf_order_feasible
from repro.core.gather import IndexedAccess, plan_indexed
from repro.core.planner import AccessPlanner
from repro.core.vector import VectorAccess
from repro.mappings.linear import MatchedXorMapping
from repro.scenarios.components import PlannerDrive
from repro.scenarios.facade import (
    ScenarioResult,
    build_config,
    build_workload,
)
from repro.scenarios.registry import DRIVE, build
from repro.scenarios.spec import ScenarioSpec

__all__ = ["PreparedPoint", "prepare_point"]


@dataclass(frozen=True)
class PreparedPoint:
    """One classified design point.

    ``kind`` is ``"analytic"`` (``result`` holds the finished
    :class:`ScenarioResult`), ``"soa"`` (``config`` and ``planned`` —
    ``(scheme, plan)`` per access — feed the kernel) or ``"fallback"``
    (everything ``None``; run :func:`simulate`).
    """

    kind: str
    result: ScenarioResult | None = None
    config: object = None
    planned: tuple[tuple[str, object], ...] = ()


@dataclass(frozen=True)
class _AccessVerdict:
    """Scheme, conflict-freedom and plan data for one access.

    ``plan`` is the access plan when one was built; a conflict-free
    fast-path verdict leaves it ``None`` and ``histogram`` carries the
    per-module request counts instead (they are order-invariant).
    """

    scheme: str
    conflict_free: bool
    indexed: bool = False
    plan: object = None
    histogram: list[int] | None = None


def prepare_point(spec: ScenarioSpec) -> PreparedPoint:
    """Classify ``spec`` and prepare whatever its tier needs.

    Raises exactly what :func:`repro.scenarios.simulate` would raise
    for the same spec — unknown kinds, bad geometry, an
    :class:`~repro.errors.OrderingError` under a forced plan mode.
    """
    if spec.program is not None or spec.workload is None:
        return PreparedPoint("fallback")
    drive = build(DRIVE, spec.drive)
    if not isinstance(drive, PlannerDrive):
        return PreparedPoint("fallback")
    workload = build_workload(spec)
    config = build_config(spec, workload)
    planner = AccessPlanner(config.mapping, config.t)
    accesses = workload.accesses()
    verdicts = [
        _classify_access(planner, config, drive, access)
        for access in accesses
    ]
    # With ``T = 1`` every sequence is conflict-free by definition, yet
    # back-to-back requests to one module still stall on a one-slot
    # input queue, so the closed form needs ``T >= 2`` (as the kernel's
    # own closed form does).
    if (
        config.service_ratio > 1
        and all(v.conflict_free for v in verdicts)
        and not any(v.indexed for v in verdicts)
    ):
        return PreparedPoint(
            "analytic", result=_analytic_result(spec, config, verdicts)
        )
    # A conflict-free access inside a mixed workload has no plan yet;
    # the kernel needs its true issue order, so build it.
    planned = tuple(
        (v.scheme, v.plan or planner.plan(access, mode=drive.mode))
        for access, v in zip(accesses, verdicts)
    )
    return PreparedPoint("soa", config=config, planned=planned)


def _classify_access(
    planner: AccessPlanner, config, drive: PlannerDrive, access
) -> _AccessVerdict:
    """One access's scheme/verdict, via the cheapest sound route."""
    mapping = config.mapping
    if isinstance(access, IndexedAccess):
        plan = plan_indexed(
            mapping, config.t, access, mode=drive.indexed_mode
        )
        return _AccessVerdict(
            plan.scheme, plan.conflict_free, indexed=True, plan=plan
        )
    mode = drive.mode
    if (
        mode in ("auto", "conflict_free")
        and cf_order_feasible(mapping, config.t, access) is True
    ):
        return _AccessVerdict(
            "conflict_free",
            True,
            histogram=_cf_histogram(mapping, access, config.service_ratio),
        )
    # Everything else plans exactly as simulate() does: a forced mode
    # raises the same OrderingError, ``auto`` falls back to the
    # canonical order, and the plan cache is shared with the per-point
    # path.
    plan = planner.plan(access, mode=mode)
    return _AccessVerdict(plan.scheme, plan.conflict_free, plan=plan)


def _cf_histogram(mapping, access: VectorAccess, service: int) -> list[int]:
    """Per-module request counts of a conflict-free access.

    Order-invariant, so the canonical address set serves.  A truly
    matched memory (``M = T``) is exactly uniform: each block of ``T``
    consecutive conflict-free requests hits every module once.
    """
    if type(mapping) is MatchedXorMapping and mapping.module_count == service:
        return [access.length // service] * service
    return _histogram(
        mapping.module_sequence(access.base, access.stride, access.length),
        mapping.module_count,
    )


def _histogram(modules, module_count: int) -> list[int]:
    counts = [0] * module_count
    for module in modules:
        counts[module] += 1
    return counts


def _analytic_result(
    spec: ScenarioSpec, config, verdicts: list[_AccessVerdict]
) -> ScenarioResult:
    service = config.service_ratio
    module_count = config.module_count
    schemes: list[str] = []
    busy = [0] * module_count
    latency = 0
    elements = 0
    for verdict in verdicts:
        if verdict.scheme not in schemes:
            schemes.append(verdict.scheme)
        counts = verdict.histogram
        if counts is None:
            counts = _histogram(verdict.plan.modules, module_count)
        length = sum(counts)
        latency += service + length + 1
        elements += length
        for module, count in enumerate(counts):
            busy[module] += count * service
    return ScenarioResult(
        name=spec.name,
        drive=spec.drive.kind,
        schemes=tuple(schemes),
        access_count=len(verdicts),
        element_count=elements,
        latency=latency,
        minimum_latency=latency,
        conflict_free=True,
        issue_stalls=0,
        wait_count=0,
        service_ratio=service,
        module_count=module_count,
        module_busy_cycles=tuple(busy),
    )
