"""Tests for model-vs-simulation validation."""

from __future__ import annotations

import pytest

from repro.analysis.efficiency import family_cycles_per_element
from repro.analysis.validation import (
    validate_families,
    validate_family,
    weighted_measured_efficiency,
)
from repro.core.vector import VectorAccess
from repro.scenarios import (
    ComponentSpec,
    MemorySpec,
    ScenarioSpec,
    simulate_access,
)


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


class TestSteadyState:
    @pytest.mark.parametrize("q, qp", [(1, 1), (2, 1), (2, 2), (8, 8)])
    def test_latency_slope_is_the_section_5b_cost(self, q, qp):
        # Doubling L from 1024 adds exactly the model's steady-state
        # cost per element: 1 inside the window s - N..s = 0..4, then
        # 2**min(x - 4, t) for each family x beyond it.
        design = ScenarioSpec(
            mapping=ComponentSpec.of("matched-xor", t=3, s=4),
            memory=MemorySpec(t=3, q=q, qp=qp),
        )
        for family in range(10):
            short, long = (
                simulate_access(
                    design, VectorAccess(0, 1 << family, length)
                ).latency
                for length in (1024, 2048)
            )
            assert (long - short) / 1024 == family_cycles_per_element(
                family, 4, 3
            ), family
