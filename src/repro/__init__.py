"""repro — reproduction of Valero et al., "Increasing the Number of
Strides for Conflict-Free Vector Access" (ISCA 1992).

The library implements the paper's out-of-order conflict-free vector
access scheme end to end: XOR/skewing/interleaved address mappings, the
Lemma-2/4 subsequence reorderings, Theorem-1/3 conflict-free windows, a
cycle-accurate multi-module memory simulator, register-level models of
the paper's address-generation hardware (Figures 4-6), a decoupled
access/execute vector machine with LOAD->EXECUTE chaining, and the
Section-5 analytic models.

Quickstart::

    from repro import MatchedDesign, VectorAccess, AccessPlanner
    from repro.memory import MemoryConfig, MemorySystem

    design = MatchedDesign.recommended(lambda_exponent=7, t=3)
    planner = AccessPlanner(design.mapping(), design.t)
    plan = planner.plan(VectorAccess(base=16, stride=12, length=128))
    result = MemorySystem(MemoryConfig.matched(3, design.s)).run_plan(plan)
    assert result.conflict_free and result.latency == 8 + 128 + 1

Or declaratively, through the scenario API (one serializable spec per
machine + workload design point)::

    from repro import ComponentSpec, MemorySpec, ScenarioSpec, simulate

    result = simulate(ScenarioSpec(
        mapping=ComponentSpec.of("matched-xor", t=3, s=4),
        memory=MemorySpec(t=3),
        workload=ComponentSpec.of("strided", base=16, stride=12, length=128),
    ))
    assert result.conflict_free and result.latency == 8 + 128 + 1

Module map
----------

* :mod:`repro.core` — vectors, stride families, subsequence
  decompositions, orderings, the access planner, conflict-free windows;
* :mod:`repro.mappings` — every address-mapping scheme (interleaved,
  skewed, Eq. (1)/(2) XOR, GF(2) matrix, pseudo-random, dynamic);
* :mod:`repro.memory` — the unified cycle-accurate memory kernel
  (M modules x k ports x n streams), its single-stream
  ``MemorySystem`` view and the configuration;
* :mod:`repro.hardware` — register-level models of the Figures 4-6
  address-generation hardware;
* :mod:`repro.processor` — the decoupled access/execute vector machine
  with LOAD->EXECUTE chaining (``DecoupledVectorMachine.run`` runs a
  whole program and returns every timing, memory result and
  correctness verdict), its ISA, assembler and strip-mined kernel
  builders;
* :mod:`repro.workloads` — stride populations, kernel access patterns
  and gather/scatter index generators;
* :mod:`repro.analysis` — the Section 5 analytic models (fractions,
  efficiency, trade-offs) and design-space sweeps;
* :mod:`repro.scenarios` — declarative, JSON-serializable scenario
  specs (machine + workload *or* whole program) + the ``simulate()``
  facade over all of the above and design-point diffing.  ``simulate()``
  is the one evaluation path: it answers conflict-free planner points
  with the closed-form ``T + L + 1`` and runs the memory kernel for
  everything else (always, when traced).  The planner's process-wide
  LRU plan cache memoizes the hot path (``repro.obs.cache_stats()``
  snapshots it with the program and kernel timing memos);
* :mod:`repro.check` — conflict/hazard analysis of specs and vector
  programs (closed-form conflict verdicts, RAW/WAR/WAW chains and the
  decoupled machine's batches, spec lint, grid dedupe) behind
  ``repro check`` and the lab/serve submission gates;
* :mod:`repro.report` — experiment runners (E01..E16) and table/figure
  rendering;
* :mod:`repro.obs` — observability: zero-cost-when-disabled cycle-level
  tracing (``Tracer``, Chrome/Perfetto ``trace_event`` export) and the
  cross-run metric history behind ``repro lab history``, read from each
  lab root's run manifests and results;
* :mod:`repro.lab` — parallel experiment orchestration with
  content-addressed result caching, cross-run diffing and pluggable
  execution backends (in-process, process pool, or a filesystem-spool
  sharding protocol served by ``repro lab worker`` processes on any
  host; detached stores fold back via ``repro lab merge``);
* :mod:`repro.serve` — the persistent HTTP experiment service behind
  ``repro lab serve``: submit scenario specs/grids over HTTP, poll
  runs, fetch any cached result by config hash with strong ETags;
* :mod:`repro.cli` — the ``repro`` command line
  (``plan``/``window``/``survey``/``run``/``scenario``/``check``/
  ``lab``), one module per command group, imported only when its
  command runs.

Every name in ``__all__`` but ``__version__`` is imported from its
subpackage on first use (PEP 562), so ``import repro`` loads nothing
else and ``from repro import X`` costs only what ``X`` needs.
"""

import importlib

__version__ = "1.8.0"

#: Every lazily exported name -> the module it is imported from.
_EXPORTS = {
    **dict.fromkeys(
        (
            "AccessPlan",
            "AccessPlanner",
            "CompositePlan",
            "MatchedDesign",
            "RequestOrder",
            "StrideFamily",
            "SubsequencePlan",
            "UnmatchedDesign",
            "VectorAccess",
            "Window",
            "build_subsequences",
            "decompose_stride",
            "family_of",
            "is_conflict_free",
            "matched_window",
            "plan_short_vector",
            "recommended_s",
            "recommended_y",
            "unmatched_windows",
        ),
        "repro.core",
    ),
    **dict.fromkeys(
        (
            "ConfigurationError",
            "HardwareModelError",
            "OrderingError",
            "ProgramError",
            "RegisterFileError",
            "ReproError",
            "SimulationError",
            "VectorSpecError",
        ),
        "repro.errors",
    ),
    **dict.fromkeys(
        (
            "AddressMapping",
            "FieldInterleaved",
            "LowOrderInterleaved",
            "MatchedXorMapping",
            "PseudoRandomMapping",
            "SectionXorMapping",
            "SkewedMapping",
            "XorMatrixMapping",
        ),
        "repro.mappings",
    ),
    **dict.fromkeys(
        ("AccessResult", "MemoryConfig", "MemorySystem"), "repro.memory"
    ),
    **dict.fromkeys(
        (
            "ComponentSpec",
            "MemorySpec",
            "ScenarioGrid",
            "ScenarioResult",
            "ScenarioSpec",
            "build_machine",
            "simulate",
        ),
        "repro.scenarios",
    ),
}

__all__ = [*sorted(_EXPORTS), "__version__"]


def _lazy_exports(namespace: dict, exports: dict[str, str]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package's lazy exports.

    ``exports`` maps each name to the module that defines it; the module
    is imported when the name is first looked up.  ``dir()`` lists the
    names with the package's own attributes.  Every ``repro`` package
    with lazy exports installs its hooks through this function.
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        return getattr(importlib.import_module(module), name)

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
