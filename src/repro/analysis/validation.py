"""Model-vs-simulation validation (experiments E09/E16).

The Section 5-B efficiency model predicts that a family ``i`` beyond the
window costs ``2**min(i, t)`` cycles per element in steady state.  These
helpers simulate representative strides of each family on a machine-only
design spec through :func:`repro.scenarios.simulate_access` (so a
conflict-free family is answered in closed form) and compare the
measured steady-state cost to the model, giving the per-family rows of
experiment E16 and the aggregate efficiency comparison of E09.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.efficiency import family_cycles_per_element
from repro.core.vector import VectorAccess
from repro.scenarios import ScenarioSpec, simulate_access


@dataclass(frozen=True)
class FamilyValidation:
    """One family's model-vs-measured steady-state cost."""

    family: int
    model_cycles_per_element: float
    measured_cycles_per_element: float
    conflict_free: bool

    @property
    def relative_error(self) -> float:
        model = self.model_cycles_per_element
        return abs(self.measured_cycles_per_element - model) / model


def validate_family(
    design: ScenarioSpec,
    family: int,
    window_high: int,
    length: int,
    sigma: int = 1,
    base: int = 0,
    mode: str = "auto",
) -> FamilyValidation:
    """Simulate one representative stride of ``family`` and compare.

    The measured cost is the issue span per element, ``(latency - T -
    1) / L`` (start-up excluded), which converges to the model value for
    ``length >> T``.
    """
    vector = VectorAccess(base, sigma * (1 << family), length)
    result = simulate_access(design, vector, mode)
    measured = (result.latency - result.service_ratio - 1) / length
    model = float(
        family_cycles_per_element(family, window_high, design.memory.t)
    )
    return FamilyValidation(
        family=family,
        model_cycles_per_element=model,
        measured_cycles_per_element=measured,
        conflict_free=result.conflict_free,
    )


def validate_families(
    design: ScenarioSpec,
    window_high: int,
    length: int,
    max_family: int,
    mode: str = "auto",
) -> list[FamilyValidation]:
    """Validate every family ``0..max_family``."""
    return [
        validate_family(design, family, window_high, length, mode=mode)
        for family in range(max_family + 1)
    ]


def weighted_measured_efficiency(
    validations: list[FamilyValidation], tail_t: int, window_high: int
) -> float:
    """Aggregate measured per-family costs into an overall efficiency.

    Families beyond the measured range contribute their asymptotic model
    cost (weight ``2**-(max+1)``, cost ``2**t``), mirroring
    :func:`repro.analysis.efficiency.average_cycles_truncated`.
    """
    total = 0.0
    weight_used = 0.0
    for validation in validations:
        weight = 2.0 ** -(validation.family + 1)
        total += weight * validation.measured_cycles_per_element
        weight_used += weight
    total += (1.0 - weight_used) * (1 << tail_t)
    return 1.0 / total
