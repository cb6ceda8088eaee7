"""Reporting: experiment runners and table rendering for the benches.

The E01..E16 runners (:mod:`repro.report.experiments`) load on first
use, so rendering a table does not import the experiments.
"""

from repro import _lazy_exports
from repro.report.figures import bar_chart, latency_profile, sparkline
from repro.report.tables import format_cell, render_markdown, render_table

_EXPORTS = dict.fromkeys(
    (
        "ALL_EXPERIMENTS",
        "Check",
        "ExperimentResult",
        "run_e01",
        "run_e02",
        "run_e03",
        "run_e04",
        "run_e05",
        "run_e07",
        "run_e08",
        "run_e09",
        "run_e10",
        "run_e11",
        "run_e12",
        "run_e13",
        "run_e14",
        "run_e15",
        "run_e16",
    ),
    "repro.report.experiments",
)

__all__ = [
    "ALL_EXPERIMENTS",
    "Check",
    "ExperimentResult",
    "bar_chart",
    "format_cell",
    "latency_profile",
    "render_markdown",
    "sparkline",
    "render_table",
    "run_e01",
    "run_e02",
    "run_e03",
    "run_e04",
    "run_e05",
    "run_e07",
    "run_e08",
    "run_e09",
    "run_e10",
    "run_e11",
    "run_e12",
    "run_e13",
    "run_e14",
    "run_e15",
    "run_e16",
]

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
