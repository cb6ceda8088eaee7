"""Spec lint (SL3xx), grid-axis lint (SL305) and dedupe (DD401)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.dedupe import dedupe_findings
from repro.check.findings import Finding
from repro.check.lint import lint_grid_axes, lint_spec
from repro.errors import ConfigurationError
from repro.scenarios import (
    ComponentSpec,
    MemorySpec,
    ScenarioGrid,
    ScenarioSpec,
    validate_kind,
)
from repro.scenarios.spec import canonical_json


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


def all_points_dedupe(specs: list[tuple[ScenarioSpec, str]]) -> list[Finding]:
    """DD401 as it was first written: every point's nameless canonical
    JSON is its group key, and groups report in order of first member."""
    groups: dict[str, list[tuple[str, str]]] = {}
    for spec_, location in specs:
        body = canonical_json(
            {
                key: value
                for key, value in spec_.to_dict().items()
                if key != "name"
            }
        )
        groups.setdefault(body, []).append((spec_.name, location))
    findings = []
    for members in groups.values():
        if len(members) < 2:
            continue
        locations = [location for _name, location in members]
        runs = len({name for name, _location in members})
        times = "once" if runs == 1 else f"{runs} times"
        effect = (
            "each simulates separately but measures the same machine"
            if runs == len(members)
            else f"repeats run once, so the machine simulates {times}"
        )
        findings.append(
            Finding(
                "DD401",
                "warn",
                locations[0],
                f"{len(members)} design points are identical up to "
                f"their names ({', '.join(locations)}); {effect}",
            )
        )
    return findings


#: Values Python's equality merges (1, 1.0, True; 0, 0.0, -0.0, False)
#: but canonical JSON tells apart, alone and inside tuples.
LOOKALIKES = (1, 1.0, True, 0, 0.0, -0.0, False, (1, 2), (1.0, 2), (True, 2), (-0.0,))
DEDUPE_POOL = [
    spec(
        name=name,
        mapping=ComponentSpec.of("matched-xor", t=t, s=4),
        workload=ComponentSpec.of("strided", base=0, stride=value, length=128),
    )
    for value in LOOKALIKES
    for t in (3, 3.0)
    for name in ("a", "b", "")
]


class TestDedupe:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, len(DEDUPE_POOL) - 1), st.sampled_from("xyz")
            ),
            max_size=30,
        )
    )
    def test_findings_match_the_all_points_grouping(self, picks):
        pairs = [(DEDUPE_POOL[index], f"f:{where}") for index, where in picks]

        def shown(findings):
            return [
                (f.rule_id, f.severity, f.location, f.message) for f in findings
            ]

        assert shown(dedupe_findings(pairs)) == shown(all_points_dedupe(pairs))

    def test_a_hand_built_list_param_is_compared_by_its_json(self):
        frozen = ComponentSpec.of("strided", base=0, stride=[1, 2], length=128)
        by_hand = ComponentSpec(
            "strided", (("base", 0), ("length", 128), ("stride", [1, 2]))
        )
        [finding] = dedupe_findings(
            [
                (spec(name="a", workload=frozen), "f:a"),
                (spec(name="x", memory=MemorySpec(t=3, q=2)), "f:x"),
                (spec(name="b", workload=by_hand), "f:b"),
            ]
        )
        assert finding.location == "f:a"
        assert "(f:a, f:b)" in finding.message

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
