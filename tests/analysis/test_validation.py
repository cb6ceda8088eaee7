"""Tests for model-vs-simulation validation."""

from __future__ import annotations

import pytest

from repro.analysis.validation import (
    validate_families,
    validate_family,
    weighted_measured_efficiency,
)
from repro.scenarios import ComponentSpec, MemorySpec, ScenarioSpec


@pytest.fixture
def design():
    """Matched M = T = 8 memory, Eq. (1) with s = 4, q = q' = 8."""
    return ScenarioSpec(
        mapping=ComponentSpec.of("matched-xor", t=3, s=4),
        memory=MemorySpec(t=3, q=8, qp=8),
    )


class TestValidateFamily:
    def test_in_window_family_unit_cost(self, design):
        validation = validate_family(
            design, family=2, window_high=4, length=128
        )
        assert validation.conflict_free
        assert validation.measured_cycles_per_element == 1.0
        assert validation.relative_error == 0.0

    def test_out_of_window_cost_near_model(self, design):
        for family, model in [(5, 2.0), (6, 4.0), (7, 8.0), (8, 8.0)]:
            validation = validate_family(
                design,
                family=family,
                window_high=4,
                length=512,
            )
            assert validation.model_cycles_per_element == model
            assert validation.relative_error < 0.1, family


class TestValidateFamilies:
    def test_covers_requested_range(self, design):
        validations = validate_families(
            design, window_high=4, length=128, max_family=7
        )
        assert [v.family for v in validations] == list(range(8))


class TestWeightedEfficiency:
    def test_matches_closed_form(self, design):
        validations = validate_families(
            design, window_high=4, length=256, max_family=8
        )
        measured = weighted_measured_efficiency(validations, 3, 4)
        assert measured == pytest.approx(0.914, abs=0.03)
