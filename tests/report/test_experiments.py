"""Integration tests: every experiment runner passes all its checks.

These are the repository's strongest end-to-end statements — each runner
regenerates one artifact of the paper and compares it against the paper's
stated values in-process.  The runners that measure through
``simulate()`` are also a differential test of its ``T + L + 1`` closed
form: forcing the kernel must reproduce every table exactly.
"""

from __future__ import annotations

import pytest

from repro.memory.config import MemoryConfig
from repro.report.experiments import ALL_EXPERIMENTS
from repro.scenarios import facade

#: Runners that measure strided accesses through ``simulate()``; each
#: answers its conflict-free accesses in closed form.
ACCESS_RUNNERS = ("E03", "E04", "E07", "E09", "E12", "E16")
#: E14 runs a program spec through ``simulate()``, whose program path
#: has no access closed form.
SIMULATE_RUNNERS = ACCESS_RUNNERS + ("E14",)


@pytest.mark.parametrize("experiment_id", sorted(ALL_EXPERIMENTS))
def test_experiment_passes(experiment_id):
    result = ALL_EXPERIMENTS[experiment_id]()
    failures = [check for check in result.checks if not check.passed]
    assert not failures, "\n".join(
        f"{check.claim}: expected {check.expected}, measured {check.measured}"
        for check in failures
    )


def test_every_experiment_has_checks():
    for experiment_id, runner in ALL_EXPERIMENTS.items():
        result = runner()
        assert result.checks, f"{experiment_id} asserts nothing"
        assert result.rows, f"{experiment_id} renders nothing"


def test_result_table_renderable():
    from repro.report.tables import render_markdown, render_table

    result = ALL_EXPERIMENTS["E01"]()
    assert render_table(result.headers, result.rows)
    assert render_markdown(result.headers, result.rows, title=result.title)


@pytest.mark.parametrize("experiment_id", SIMULATE_RUNNERS)
def test_closed_form_tables_equal_kernel_tables(experiment_id, monkeypatch):
    runner = ALL_EXPERIMENTS[experiment_id]
    calls = []
    closed_form = facade._closed_form

    def counting_closed_form(*args):
        calls.append(args)
        return closed_form(*args)

    monkeypatch.setattr(facade, "_closed_form", counting_closed_form)
    with_closed_form = runner()
    closed_form_answers = len(calls)
    assert (closed_form_answers > 0) == (experiment_id in ACCESS_RUNNERS)

    # A memory that does not honour the bound never takes the closed
    # form, so every access runs through the kernel.
    monkeypatch.setattr(
        MemoryConfig, "conflict_free_is_minimal", property(lambda self: False)
    )
    with_kernel = runner()
    assert len(calls) == closed_form_answers
    assert with_kernel.headers == with_closed_form.headers
    assert with_kernel.rows == with_closed_form.rows
    assert with_kernel.checks == with_closed_form.checks
    assert with_kernel.notes == with_closed_form.notes
