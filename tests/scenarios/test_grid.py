"""Grid tests: deterministic expansion, JSON round-trip, sweep bridge."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    ComponentSpec,
    MemorySpec,
    ScenarioGrid,
    ScenarioSpec,
    load_scenarios,
    simulate,
)


def base_spec() -> ScenarioSpec:
    return ScenarioSpec(
        mapping=ComponentSpec.of("matched-xor", t=3, s=4),
        memory=MemorySpec(t=3),
        workload=ComponentSpec.of("strided", base=16, stride=12, length=128),
        name="grid-base",
    )


class TestExpansion:
    def test_product_order_is_deterministic(self):
        grid = ScenarioGrid.of(
            base_spec(),
            memory__q=(1, 2),
            workload__params__stride=(3, 12),
        )
        assert grid.size == 4
        points = [
            (spec.memory.q, spec.workload.param_dict()["stride"])
            for spec in grid.expand()
        ]
        assert points == [(1, 3), (1, 12), (2, 3), (2, 12)]

    def test_point_names_record_their_coordinates(self):
        grid = ScenarioGrid.of(base_spec(), memory__t=(2, 3))
        names = [spec.name for spec in grid.expand()]
        assert names == ["grid-base[t=2]", "grid-base[t=3]"]

    def test_axisless_grid_is_the_base(self):
        grid = ScenarioGrid(base_spec(), ())
        assert grid.expand() == [base_spec()]

    def test_points_equal_applying_each_axis_with_replace(self):
        grid = ScenarioGrid.of(
            base_spec(),
            memory__q=(1, 2),
            mapping__params__s=(4, 5),
            workload__params__offset=(0, 7),
            name=("renamed",),
        )
        for point, spec in zip(grid.points(), grid.expand()):
            expected = base_spec()
            for path, value in point:
                expected = expected.replace(path, value)
            suffix = ",".join(
                f"{path.rsplit('.', 1)[-1]}={value}" for path, value in point
            )
            assert spec == expected.replace("name", f"renamed[{suffix}]")

    def test_expansion_builds_each_point_once(self, monkeypatch):
        grid = ScenarioGrid.of(base_spec(), memory__q=(1, 2, 4))
        calls = []
        original = ScenarioSpec.from_dict.__func__

        def counting(cls, data):
            calls.append(data)
            return original(cls, data)

        monkeypatch.setattr(ScenarioSpec, "from_dict", classmethod(counting))
        monkeypatch.setattr(ScenarioSpec, "replace", None)
        assert len(grid.expand()) == 3
        assert len(calls) == 3

    def test_every_point_simulates(self):
        grid = ScenarioGrid.of(base_spec(), workload__params__stride=(1, 12, 48))
        for spec in grid.expand():
            assert simulate(spec).conflict_free


class TestGridValidation:
    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="no values"):
            ScenarioGrid(base_spec(), (("memory.q", ()),))

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            ScenarioGrid(
                base_spec(), (("memory.q", (1,)), ("memory.q", (2,)))
            )

    def test_bad_axis_path_rejected_up_front(self):
        with pytest.raises(ConfigurationError, match="no field at path"):
            ScenarioGrid(base_spec(), (("memory.banks", (1, 2)),))

    def test_bad_first_value_rejected_up_front(self):
        with pytest.raises(ConfigurationError, match="t must be >= 0"):
            ScenarioGrid(base_spec(), (("memory.t", (-1, 3)),))

    def test_non_string_name_value_is_not_decorated(self):
        with pytest.raises(ConfigurationError, match="name must be a string"):
            ScenarioGrid(base_spec(), (("name", (5,)),))


class TestGridRoundTrip:
    def test_dict_round_trip(self):
        grid = ScenarioGrid.of(
            base_spec(), memory__q=(1, 2), mapping__params__s=(4, 5)
        )
        assert ScenarioGrid.from_dict(grid.to_dict()) == grid
        assert ScenarioGrid.from_json(grid.to_json()) == grid

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario grid"):
            ScenarioGrid.from_dict({"base": base_spec().to_dict(), "axis": {}})

    def test_non_list_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="must list"):
            ScenarioGrid.from_dict(
                {"base": base_spec().to_dict(), "axes": {"memory.q": 2}}
            )


class TestLoadScenarios:
    def test_single_spec_document(self):
        specs = load_scenarios(base_spec().to_json())
        assert specs == [base_spec()]

    def test_grid_document_expands(self):
        grid = ScenarioGrid.of(base_spec(), memory__q=(1, 2, 4))
        assert load_scenarios(grid.to_json()) == grid.expand()

    def test_list_document_mixes_specs_and_grids(self):
        import json

        grid = ScenarioGrid.of(base_spec(), memory__q=(1, 2))
        text = json.dumps([base_spec().to_dict(), grid.to_dict()])
        specs = load_scenarios(text)
        assert len(specs) == 3

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid scenario JSON"):
            load_scenarios("[{]")


class TestSweepBridge:
    def test_bridged_design_points_are_conflict_free(self):
        """Each (lambda, t) row of a design sweep, run as the recommended
        matched machine (s = lambda - t, floored at t) on a stride
        3 * 2**s vector of 2**lambda elements, is conflict-free at the
        T + L + 1 minimum."""
        from repro.analysis.sweeps import SweepSpec
        from repro.core.windows import recommended_s

        sweep = SweepSpec(axis="lambda", fixed=3, start=6, stop=9)
        rows = sweep.design_rows()
        assert len(rows) == 3
        for row in rows:
            s = max(recommended_s(row.lambda_exponent, row.t), row.t)
            result = simulate(
                ScenarioSpec(
                    mapping=ComponentSpec.of("matched-xor", t=row.t, s=s),
                    memory=MemorySpec(t=row.t),
                    workload=ComponentSpec.of(
                        "strided", stride=3 * (1 << s), length=row.vector_length
                    ),
                )
            )
            assert result.conflict_free
            assert result.latency == result.minimum_latency
            assert result.latency == (1 << row.t) + row.vector_length + 1
