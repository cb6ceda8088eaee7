"""repro.scenarios — declarative, serializable machine + workload specs.

Every design point the paper (and this repository) studies — which
address mapping, what memory geometry ``(t, q, q', address bits)``,
which workload, how the memory is driven — is expressible as one
JSON-serializable :class:`ScenarioSpec` and executed by one call:

    from repro.scenarios import ScenarioSpec, ComponentSpec, MemorySpec, simulate

    spec = ScenarioSpec(
        mapping=ComponentSpec.of("matched-xor", t=3, s=4),
        memory=MemorySpec(t=3),
        workload=ComponentSpec.of("strided", base=16, stride=12, length=128),
    )
    result = simulate(spec)
    assert result.conflict_free and result.latency == 8 + 128 + 1

    restored = ScenarioSpec.from_json(spec.to_json())
    assert restored == spec          # specs are pure data

Modules:

* :mod:`repro.scenarios.spec` — ``ScenarioSpec``/``ComponentSpec``/
  ``MemorySpec`` and their JSON round-trip;
* :mod:`repro.scenarios.registry` — kind -> factory tables per layer;
* :mod:`repro.scenarios.components` — the registered factories
  (mappings, workloads, drive modes);
* :mod:`repro.scenarios.facade` — ``simulate``/``simulate_access``/
  ``build_machine`` and the normalised ``ScenarioResult``;
* :mod:`repro.scenarios.grid` — ``ScenarioGrid`` parameter sweeps over
  spec fields;
* :mod:`repro.scenarios.diff` — metric-by-metric comparison of two
  results (``repro scenario diff``), loaded on first use.

The lab (:mod:`repro.lab`) accepts specs as jobs (``scenario_jobs``), so
distinct design points land in distinct cache entries; the CLI front
end is ``repro scenario run|list``.
"""

from repro import _lazy_exports
from repro.scenarios import components as _components  # registration
from repro.scenarios.components import ScenarioProgram
from repro.scenarios.facade import (
    TIMELINE_FIELDS,
    ScenarioResult,
    build_machine,
    build_workload,
    resolve_mapping,
    simulate,
    simulate_access,
)
from repro.scenarios.grid import ScenarioGrid, load_grid, load_scenarios
from repro.scenarios.registry import (
    CATEGORIES,
    DRIVE,
    MAPPING,
    PROGRAM,
    WORKLOAD,
    build,
    example_params,
    kinds,
    summary,
    validate_kind,
    validate_spec_kinds,
)
from repro.scenarios.spec import (
    ComponentSpec,
    MemorySpec,
    ScenarioSpec,
    freeze_params,
    freeze_value,
)

del _components

_EXPORTS = dict.fromkeys(
    ("ScenarioDiff", "diff_results", "render_scenario_diff"),
    "repro.scenarios.diff",
)

__all__ = [
    "CATEGORIES",
    "DRIVE",
    "MAPPING",
    "PROGRAM",
    "TIMELINE_FIELDS",
    "WORKLOAD",
    "ComponentSpec",
    "MemorySpec",
    "ScenarioDiff",
    "ScenarioGrid",
    "ScenarioProgram",
    "ScenarioResult",
    "ScenarioSpec",
    "build",
    "build_machine",
    "build_workload",
    "diff_results",
    "example_params",
    "freeze_params",
    "freeze_value",
    "kinds",
    "load_grid",
    "load_scenarios",
    "render_scenario_diff",
    "resolve_mapping",
    "simulate",
    "simulate_access",
    "summary",
    "validate_kind",
    "validate_spec_kinds",
]

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
