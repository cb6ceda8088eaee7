"""One comparison table across a scenario grid's design points.

``repro lab sweep grid.json`` expands a
:class:`~repro.scenarios.grid.ScenarioGrid`, runs every design point
through the lab's content-addressed cache, and renders *one* table —
swept axes as the leading columns, one row per point — replacing the
ad-hoc per-bench tables those sweeps used to be.  The helpers here are
pure formatting: they take the grid plus each point's metric mapping
(:func:`repro.lab.jobs.record_metrics` of its stored record) and return
``(headers, rows)`` for :func:`repro.report.tables.render_table` /
``render_markdown``.  Which metrics the table shows, and in what order,
is :data:`repro.result_schema.SWEEP_COLUMNS`.
"""

from __future__ import annotations

from repro.result_schema import SWEEP_COLUMNS, bare_metric
from repro.scenarios.grid import ScenarioGrid


def axis_columns(grid: ScenarioGrid) -> list[str]:
    """Column labels for the grid's axes: the path leaf, or the full
    dotted path when two axes share a leaf name."""
    paths = [path for path, _values in grid.axes]
    leaves = [path.rsplit(".", 1)[-1] for path in paths]
    return [
        leaf if leaves.count(leaf) == 1 else path
        for path, leaf in zip(paths, leaves)
    ]


def sweep_table(
    grid: ScenarioGrid, records: list[dict]
) -> tuple[list[str], list[list]]:
    """Headers and rows of the sweep comparison table.

    ``records`` maps metric name -> value for each design point, in the
    grid's expansion order (one entry per point; a point whose job
    failed may pass an empty dict and renders as dashes).  The axis
    columns come from the grid's points without expanding any spec.
    """
    if len(records) != grid.size:
        raise ValueError(
            f"grid expands to {grid.size} design points but "
            f"{len(records)} result records were given"
        )
    metrics = [
        metric
        for metric in SWEEP_COLUMNS
        if any(metric in record for record in records)
    ]
    headers = axis_columns(grid) + [bare_metric(metric) for metric in metrics]
    rows = []
    for point, record in zip(grid.points(), records):
        # A list-valued axis shows in its JSON form, as a spec holds it.
        row = [
            list(value) if isinstance(value, tuple) else value
            for _path, value in point
        ]
        row += [record.get(metric, "-") for metric in metrics]
        rows.append(row)
    return headers, rows
