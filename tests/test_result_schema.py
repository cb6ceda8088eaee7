"""One vocabulary for a design point's metrics.

``repro scenario diff`` and ``repro lab history`` must agree on which
way every metric a result reports improves, and the vocabulary must
know every metric a registered drive or program kind emits.
"""

from __future__ import annotations

import pytest

from repro.obs.history import metric_direction
from repro.result_schema import (
    CORE_METRICS,
    DIRECTIONS,
    bare_metric,
    extra_metric,
)
from repro.scenarios import (
    DRIVE,
    PROGRAM,
    ComponentSpec,
    MemorySpec,
    ScenarioSpec,
    diff_results,
    example_params,
    kinds,
    simulate,
)

MACHINE = dict(
    mapping=ComponentSpec.of("matched-xor", t=3, s=4),
    memory=MemorySpec(t=3, q=2),
)


def example_specs() -> dict[str, ScenarioSpec]:
    """Every registered drive kind's example on a strided workload, and
    every program kind's example on the chaining decoupled machine."""
    specs = {}
    for kind in kinds(DRIVE):
        specs[f"drive-{kind}"] = ScenarioSpec(
            **MACHINE,
            workload=ComponentSpec.of("strided", base=16, stride=12, length=128),
            drive=ComponentSpec.of(kind, **example_params(DRIVE, kind)),
        )
    for kind in kinds(PROGRAM):
        specs[f"program-{kind}"] = ScenarioSpec(
            **MACHINE,
            program=ComponentSpec.of(kind, **example_params(PROGRAM, kind)),
            drive=ComponentSpec.of("decoupled", chaining=True),
        )
    return specs


EXAMPLES = example_specs()


def moved(value):
    """``(value moved, whether it moved up)``; up is None for labels."""
    if isinstance(value, bool):
        return not value, not value
    if isinstance(value, (int, float)):
        return value + 1, True
    if isinstance(value, list):
        return [*value, "moved"], None
    return f"{value}-moved", None


def severity(direction: str | None, up: bool | None) -> str:
    """What a move ``up`` (or down) of a metric going ``direction`` is."""
    if direction is None or up is None:
        return "change"
    better = up if direction == "higher" else not up
    return "improvement" if better else "regression"


@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_scenario_diff_and_history_agree_on_every_emitted_metric(example):
    result = simulate(EXAMPLES[example])
    rows = result.metric_rows()
    names = [name for name, _value in rows]
    assert names[: len(CORE_METRICS)] == list(CORE_METRICS)
    assert names[len(CORE_METRICS) :] == [
        extra_metric(key) for key, _value in result.extras
    ]
    for name in names:
        bare = bare_metric(name)
        assert bare in DIRECTIONS, f"{name} is not in the vocabulary"
        baseline = result.to_dict()
        candidate = result.to_dict()
        holder = candidate["extras"] if bare != name else candidate
        holder[bare], up = moved(holder[bare])
        (entry,) = diff_results(baseline, candidate).entries
        assert entry.metric == name
        assert entry.severity == severity(metric_direction(bare), up), name

