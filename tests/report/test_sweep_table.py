"""The sweep comparison table: axis columns straight from the grid."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.report.sweeps import sweep_table
from repro.report.tables import render_table
from repro.scenarios import ScenarioGrid, ScenarioSpec, load_grid

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
GRIDS = [
    "scenario_ports_grid.json",
    "scenario_program_grid.json",
    "scenario_unmatched_grid.json",
]


def records_for(grid: ScenarioGrid) -> list[dict]:
    return [
        {"latency": 100 + i, "extra:total_cycles": 7 * i}
        for i in range(grid.size)
    ]


def expanded_axis_cells(grid: ScenarioGrid) -> list[list]:
    """Each expanded design point's value at every axis path, read from
    the point's dict form."""
    cells = []
    for spec in grid.expand():
        row = []
        for path, _values in grid.axes:
            cursor = spec.to_dict()
            for part in path.split("."):
                cursor = cursor[part]
            row.append(cursor)
        cells.append(row)
    return cells


@pytest.mark.parametrize("name", GRIDS)
def test_axis_cells_are_the_expanded_points_values(name):
    grid = load_grid((EXAMPLES / name).read_text())
    headers, rows = sweep_table(grid, records_for(grid))
    axes = len(grid.axes)
    assert [row[:axes] for row in rows] == expanded_axis_cells(grid)
    assert headers[axes:] == ["latency", "total_cycles"]
    assert [row[axes:] for row in rows] == [
        [record["latency"], record["extra:total_cycles"]]
        for record in records_for(grid)
    ]


def test_ports_grid_table_is_unchanged():
    grid = load_grid((EXAMPLES / "scenario_ports_grid.json").read_text())
    headers, rows = sweep_table(grid, records_for(grid))
    assert render_table(headers, rows).splitlines() == [
        "ports  latency  total_cycles",
        "-----  -------  ------------",
        "1      100      0           ",
        "2      101      7           ",
        "4      102      14          ",
    ]


def test_list_valued_axis_renders_as_a_list():
    base = ScenarioSpec.from_json(
        (EXAMPLES / "scenario_daxpy_program.json").read_text()
    )
    grid = ScenarioGrid.of(base, program__params__extra=[[1, 2], (3, 4), 5])
    _headers, rows = sweep_table(grid, [{} for _ in range(grid.size)])
    assert rows == [[[1, 2]], [[3, 4]], [5]]
    assert rows == expanded_axis_cells(grid)


def test_builds_no_spec(monkeypatch):
    grid = load_grid((EXAMPLES / "scenario_program_grid.json").read_text())
    calls = []
    original = ScenarioSpec.from_dict.__func__

    def counting(cls, data):
        calls.append(data)
        return original(cls, data)

    monkeypatch.setattr(ScenarioSpec, "from_dict", classmethod(counting))
    sweep_table(grid, records_for(grid))
    assert calls == []


def test_record_count_must_match_the_grid():
    grid = load_grid((EXAMPLES / "scenario_ports_grid.json").read_text())
    with pytest.raises(ValueError, match="expands to 3 design points"):
        sweep_table(grid, [{}])
