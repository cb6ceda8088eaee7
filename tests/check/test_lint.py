"""Spec lint (SL3xx), grid-axis lint (SL305) and dedupe (DD401)."""

from __future__ import annotations

import pytest

from repro.check.dedupe import dedupe_findings
from repro.check.lint import lint_grid_axes, lint_spec
from repro.errors import ConfigurationError
from repro.scenarios import (
    ComponentSpec,
    MemorySpec,
    ScenarioGrid,
    ScenarioSpec,
    validate_kind,
)


def spec(**overrides) -> ScenarioSpec:
    fields = dict(
        mapping=ComponentSpec.of("matched-xor", t=3, s=4),
        memory=MemorySpec(t=3),
        workload=ComponentSpec.of("strided", base=16, stride=12, length=128),
        name="lint-demo",
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestValidateKind:
    def test_known_kind_passes(self):
        validate_kind("mapping", "matched-xor")

    def test_unknown_kind_lists_registry(self):
        with pytest.raises(ConfigurationError, match="registered:"):
            validate_kind("mapping", "warp")

    def test_close_misspelling_gets_a_hint(self):
        with pytest.raises(ConfigurationError, match="did you mean"):
            validate_kind("mapping", "matched-xo")


class TestLintSpec:
    def test_clean_spec_has_no_findings(self):
        assert lint_spec(spec(), location="here") == []

    def test_unknown_kind_is_sl301(self):
        [finding] = lint_spec(
            spec(mapping=ComponentSpec.of("warp", t=3)), location="here"
        )
        assert finding.rule_id == "SL301"
        assert finding.severity == "error"
        assert finding.location == "here.mapping"

    def test_unknown_parameter_is_sl302(self):
        [finding] = lint_spec(
            spec(mapping=ComponentSpec.of("matched-xor", t=3, s=4, warp=1)),
            location="here",
        )
        assert finding.rule_id == "SL302"
        assert "unknown parameter 'warp'" in finding.message

    def test_unknown_parameter_hints_at_unused_accepted_names(self):
        findings = lint_spec(
            spec(mapping=ComponentSpec.of("matched-xor", t=3, warp=1)),
            location="here",
        )
        unknown = next(f for f in findings if "unknown parameter" in f.message)
        assert "accepted:" in unknown.message and "'s'" not in unknown.message
        assert "s" in unknown.message.split("accepted:")[1]

    def test_missing_required_parameter_is_sl302(self):
        [finding] = lint_spec(
            spec(mapping=ComponentSpec.of("matched-xor", t=3)),
            location="here",
        )
        assert finding.rule_id == "SL302"
        assert "missing required parameter 's'" in finding.message

    def test_reserved_context_name_is_sl302(self):
        bad = spec(
            workload=None,
            program=ComponentSpec.of("daxpy", n=64, register_length=32),
            drive=ComponentSpec.of("decoupled"),
        )
        findings = lint_spec(bad, location="here")
        assert any(
            f.rule_id == "SL302" and "reserved context name" in f.message
            for f in findings
        )

    def test_program_with_non_decoupled_drive_is_sl306(self):
        bad = spec(
            workload=None,
            program=ComponentSpec.of("daxpy", n=64),
            drive=ComponentSpec.of("planner"),
        )
        findings = lint_spec(bad, location="here")
        assert [f.rule_id for f in findings] == ["SL306"]
        assert "decoupled" in findings[0].message


class TestLintGridAxes:
    def test_duplicate_axis_value_is_sl305(self):
        grid = ScenarioGrid.of(spec(), memory__q=(2, 2, 4))
        [finding] = lint_grid_axes(grid, location="grid.json")
        assert finding.rule_id == "SL305"
        assert finding.severity == "warn"
        assert "memory.q" in finding.location

    def test_distinct_axis_values_are_clean(self):
        grid = ScenarioGrid.of(spec(), memory__q=(1, 2, 4))
        assert lint_grid_axes(grid, location="grid.json") == []


class TestDedupe:
    def test_identical_points_up_to_name_are_dd401(self):
        pairs = [
            (spec(name="a"), "f:a"),
            (spec(name="b"), "f:b"),
            (spec(name="c", memory=MemorySpec(t=3, q=2)), "f:c"),
        ]
        [finding] = dedupe_findings(pairs)
        assert finding.rule_id == "DD401"
        assert finding.severity == "warn"
        assert finding.location == "f:a"
        assert "f:a, f:b" in finding.message
        assert finding.message.endswith(
            "each simulates separately but measures the same machine"
        )

    def test_byte_identical_repeats_are_one_job(self):
        [finding] = dedupe_findings(
            [(spec(name="a"), "f:a"), (spec(name="a"), "f:a")]
        )
        assert finding.message.endswith(
            "repeats run once, so the machine simulates once"
        )
        [finding] = dedupe_findings(
            [
                (spec(name="a"), "f:a"),
                (spec(name="a"), "f:a"),
                (spec(name="b"), "f:b"),
            ]
        )
        assert finding.message.endswith("so the machine simulates 2 times")

    def test_distinct_points_produce_nothing(self):
        pairs = [
            (spec(name="a"), "f:a"),
            (spec(name="b", memory=MemorySpec(t=3, q=2)), "f:b"),
        ]
        assert dedupe_findings(pairs) == []
