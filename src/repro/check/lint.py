"""Spec lint: registry and shape checks that need no simulation.

* ``SL301`` *error* — unknown component kind (with close-match hints);
* ``SL302`` *error* — unknown, reserved, missing or wrong-typed
  factory parameter, one finding per sentence of the registry's
  parameter rule (:func:`repro.scenarios.registry.parameter_errors`:
  the names and types the kind's factory signature declares), whose
  first sentence is what ``simulate()`` raises;
* ``SL305`` *warn* — a grid axis lists the same value twice (every
  repeat expands to an identical design point);
* ``SL306`` *error* — a program spec whose drive is not ``decoupled``,
  in the words :func:`repro.scenarios.facade.build_point` refuses it
  with (:func:`~repro.scenarios.facade.program_drive_refusal`).

Lint builds nothing.  The remaining ``SL3xx`` rules live in the runner,
which owns parsing (``SL304``) and building (``SL303``).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.scenarios.facade import program_drive_refusal
from repro.scenarios.grid import ScenarioGrid
from repro.scenarios.registry import (
    parameter_errors,
    spec_components,
    validate_kind,
)
from repro.scenarios.spec import ScenarioSpec

from repro.check.findings import Finding

__all__ = ["lint_grid_axes", "lint_spec"]


def lint_spec(spec: ScenarioSpec, *, location: str) -> list[Finding]:
    """Registry-level findings for one spec (no components built)."""
    findings = []
    for category, component in spec_components(spec):
        where = f"{location}.{category}"
        try:
            validate_kind(category, component.kind)
        except ConfigurationError as error:
            findings.append(Finding("SL301", "error", where, str(error)))
            continue
        findings.extend(
            Finding("SL302", "error", where, message)
            for message in parameter_errors(category, component)
        )
    refusal = program_drive_refusal(spec)
    if refusal is not None:
        findings.append(
            Finding("SL306", "error", f"{location}.drive", refusal)
        )
    return findings


def lint_grid_axes(grid: ScenarioGrid, *, location: str) -> list[Finding]:
    """``SL305``: axis values that repeat within one axis."""
    findings = []
    for path, values in grid.axes:
        seen = []
        for value in values:
            if value in seen:
                findings.append(
                    Finding(
                        "SL305",
                        "warn",
                        f"{location}.axes[{path}]",
                        f"axis {path!r} lists value {value!r} more than "
                        f"once; the repeats expand to identical design "
                        f"points",
                    )
                )
                break
            seen.append(value)
    return findings
