"""Closed-form models and validation for the paper's evaluation section.

The validation simulates through :mod:`repro.scenarios`, so its names
load on first use and the closed-form models alone load no simulator.
"""

from repro import _lazy_exports
from repro.analysis.efficiency import (
    average_cycles_per_element,
    average_cycles_truncated,
    efficiency,
    family_cycles_per_element,
    matched_ordered_efficiency,
    matched_proposed_efficiency,
    unmatched_ordered_efficiency,
    unmatched_proposed_efficiency,
)
from repro.analysis.fractions import (
    conflict_free_fraction,
    family_histogram,
    matched_design_fraction,
    monte_carlo_fraction,
    unmatched_design_fraction,
)
from repro.analysis.sweeps import (
    DesignRow,
    design_row,
    efficiency_crossover_t,
    sweep_lambda,
    sweep_t,
)
from repro.analysis.tradeoffs import (
    DesignPoint,
    LengthSensitivity,
    families_vs_length,
    matched_design_point,
    maximum_extra_families,
    ordered_design_point,
    unmatched_design_point,
    window_doubling_cost,
)

_EXPORTS = dict.fromkeys(
    (
        "FamilyValidation",
        "validate_families",
        "validate_family",
        "weighted_measured_efficiency",
    ),
    "repro.analysis.validation",
)

__all__ = [
    "DesignPoint",
    "DesignRow",
    "FamilyValidation",
    "LengthSensitivity",
    "average_cycles_per_element",
    "average_cycles_truncated",
    "conflict_free_fraction",
    "design_row",
    "efficiency_crossover_t",
    "efficiency",
    "families_vs_length",
    "family_cycles_per_element",
    "family_histogram",
    "matched_design_fraction",
    "matched_design_point",
    "matched_ordered_efficiency",
    "matched_proposed_efficiency",
    "maximum_extra_families",
    "monte_carlo_fraction",
    "sweep_lambda",
    "sweep_t",
    "ordered_design_point",
    "unmatched_design_fraction",
    "unmatched_design_point",
    "unmatched_ordered_efficiency",
    "unmatched_proposed_efficiency",
    "validate_families",
    "validate_family",
    "weighted_measured_efficiency",
    "window_doubling_cost",
]

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
