"""The schema of a design point's result: its metrics, order and directions.

A simulated design point reports the paper's numbers: the Section 2
bound ``T + L + 1`` (``minimum_latency``), the measured ``latency`` and
its excess over that bound, the Section 5-B ``efficiency`` and the
Section 5-F ``chaining_speedup``, plus what its drive observes.  This
module names them once; ``ScenarioResult``, the lab's stored scenario
record (:mod:`repro.lab.jobs`), ``repro scenario diff``, the ``lab
sweep`` table, ``lab history`` and the decoupled machine's timeline all
read them from here.  It imports nothing, so a command that only reads
a lab root learns a metric's direction without loading the simulator.
"""

from __future__ import annotations

#: Headers of a result's ``[metric, value]`` table, as stored and printed.
METRIC_HEADERS = ("metric", "value")

#: What every result reports, in ``ScenarioResult.metric_rows`` order,
#: and which way each improves (``None``: direction-free).  A flag
#: improves upward (True is better).  ``minimum_latency`` is the bound a
#: design point is measured against, not an outcome; ``schemes`` is a
#: label.
CORE_METRICS: dict[str, str | None] = {
    "drive": None,
    "access_count": None,
    "element_count": None,
    "latency": "lower",
    "minimum_latency": None,
    "excess_latency": "lower",
    "conflict_free": "higher",
    "issue_stalls": "lower",
    "wait_count": "lower",
    "cycles_per_element": "lower",
    "efficiency": "higher",
    "module_utilisation": None,
    "schemes": None,
}

#: What a drive may report after the core metrics, each in a row named
#: ``extra:<name>``, and which way each improves.  Losing memory-level
#: parallelism or chaining speedup is a regression; the rest are
#: observations, design choices or the chaining model's predictions.
EXTRA_METRICS: dict[str, str | None] = {
    "total_cycles": "lower",
    "overlap_fraction": "higher",
    "stream_concurrency_peak": "higher",
    "chaining_speedup": "higher",
    "numerically_correct": "higher",
    **dict.fromkeys(
        (
            "chained_instructions", "conflict_free_loads", "load_scheme",
            "latch_peak_occupancy", "latch_capacity", "generator_adds",
            "program", "instruction_count", "memory_instructions",
            "register_length", "memory_ports", "memory_streams",
            "output_errors", "chaining_model_applicable",
            "chaining_speedup_model", "chaining_model_tolerance",
        )
    ),
}

#: The pytest-benchmark statistics each bench contributes to a history,
#: as ``<stat>_seconds`` metrics.
BENCH_METRICS = {
    f"{stat}_seconds": stat for stat in ("mean", "min", "max", "median")
}

#: What lab runs and bench files add to a history, and which way each
#: improves: a job's wall time, a run's cache-hit rate and verdict, and
#: the bench statistics.
HISTORY_METRICS: dict[str, str | None] = {
    "elapsed_seconds": "lower",
    "cache_hit_rate": "higher",
    "all_passed": "higher",
    **dict.fromkeys(BENCH_METRICS, "lower"),
}

#: Which way every known metric improves, by its name without ``extra:``.
DIRECTIONS = {**CORE_METRICS, **EXTRA_METRICS, **HISTORY_METRICS}

_EXTRA_PREFIX = "extra:"


def extra_metric(name: str) -> str:
    """The row name of the extra metric ``name``."""
    return _EXTRA_PREFIX + name


def bare_metric(metric: str) -> str:
    """A row name without its ``extra:`` prefix (a core name unchanged)."""
    return metric.removeprefix(_EXTRA_PREFIX)


#: The metrics a ``lab sweep`` table shows, in column order: each one
#: that any of its design points reports.
SWEEP_COLUMNS = (
    "latency", "minimum_latency", "conflict_free", "efficiency",
    "issue_stalls", "cycles_per_element", extra_metric("total_cycles"),
    extra_metric("overlap_fraction"), extra_metric("chaining_speedup"),
    extra_metric("numerically_correct"),
)

#: Columns of one timeline row: one row per instruction the decoupled
#: machine executed.  ``port`` and ``stream`` are the address/result
#: port a memory access issued on and its concurrent stream slot in its
#: batch (``None`` for execute instructions).
TIMELINE_FIELDS = (
    "position", "mnemonic", "unit", "start_cycle", "end_cycle", "duration",
    "mode", "conflict_free", "port", "stream",
)
