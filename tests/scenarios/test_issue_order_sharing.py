"""Issue orders are shared through the one plan cache.

A gather's cooldown schedule and the Figure 6 engine's order read only
the mapping's address function, ``t`` and the access, so design points
that differ only in ``q``, ``q'`` or ports share one plan-cache entry
(``plan_indexed`` and ``facade.figure6_run``).  A shared entry must
never change a result, a trace or an error: every point is simulated
with a warm cache and again after ``clear_plan_cache()``, field for
field.  Both plan kinds reach the kernel as one
:class:`~repro.memory.kernel.PlanRequests` view, which must read as the
plan's ``request_stream()``; ``tests/memory/test_strided_requests.py``
holds it to strided plans, this file to gathers.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gather import IndexedAccess, IndexedPlan, plan_indexed
from repro.core.planner import clear_plan_cache, plan_cache_stats
from repro.errors import HardwareModelError, VectorSpecError
from repro.hardware.oos_engine import Figure6Engine
from repro.mappings.interleaved import LowOrderInterleaved
from repro.mappings.linear import MatchedXorMapping
from repro.mappings.section import SectionXorMapping
from repro.memory.config import MemoryConfig
from repro.memory.kernel import KernelStream, PlanRequests
from repro.memory.system import MemorySystem
from repro.obs import Tracer
from repro.scenarios import ScenarioGrid, ScenarioSpec, load_scenarios, simulate
from repro.scenarios.facade import build_point, figure6_run

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

GATHER_BASE = {
    "mapping": {"kind": "section-xor", "params": {"t": 3, "s": 4, "y": 9}},
    "memory": {"t": 3},
    "drive": {"kind": "planner"},
}


def figure6_points() -> list[ScenarioSpec]:
    return load_scenarios(
        (EXAMPLES / "scenario_figure6_grid.json").read_text()
    )


def gather_points(workload: dict, axis: str, values: list) -> list:
    """A gather sweep over its own axis x q x ports."""
    return ScenarioGrid.from_dict(
        {
            "base": {**GATHER_BASE, "workload": workload},
            "axes": {
                axis: values,
                "memory.q": [1, 2, 4],
                "memory.ports": [1, 2],
            },
        }
    ).expand()


SWEEPS = {
    "figure6-grid": figure6_points,
    "bit-reversal": lambda: gather_points(
        {"kind": "bit-reversal", "params": {"bits": 5}},
        "workload.params.bits",
        [5, 7],
    ),
    "csr-gather": lambda: gather_points(
        {
            "kind": "csr-gather",
            "params": {"row_length": 32, "column_count": 4096},
        },
        "workload.params.row_length",
        [32, 128],
    ),
}


@pytest.fixture(autouse=True)
def empty_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture
def engines(monkeypatch):
    """How many Figure 6 engines are built from here on."""
    built = []
    original = Figure6Engine.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Figure6Engine, "__init__", counted)
    return built


def traced(spec: ScenarioSpec):
    tracer = Tracer()
    return simulate(spec, tracer=tracer).to_dict(), tracer.events


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_a_shared_order_simulates_as_a_fresh_one(sweep):
    points = SWEEPS[sweep]()
    warm = [simulate(spec).to_dict() for spec in points]
    warm_traced = [traced(spec) for spec in points]
    assert plan_cache_stats()["plan_cache_hits"] > 0
    for spec, result, (traced_result, events) in zip(
        points, warm, warm_traced
    ):
        clear_plan_cache()
        assert simulate(spec).to_dict() == result, spec.name
        clear_plan_cache()
        assert traced(spec) == (traced_result, events), spec.name
        assert traced_result == result, spec.name


def test_the_figure6_grid_builds_one_engine_per_distinct_vector(engines):
    points = figure6_points()
    assert len(points) == 40
    built = [build_point(spec) for spec in points]
    distinct = {
        (point.config.mapping.address_key(), point.config.t, point.vector)
        for point in built
    }
    assert len(distinct) == 20
    for spec in points:
        simulate(spec)
    assert len(engines) == 20
    stats = plan_cache_stats()
    assert (stats["plan_cache_hits"], stats["plan_cache_misses"]) == (20, 20)


def test_a_gather_sweep_plans_each_gather_once():
    points = SWEEPS["bit-reversal"]()
    for spec in points:
        simulate(spec)
    stats = plan_cache_stats()
    assert stats["plan_cache_entries"] == 2  # bits 5 and 7
    assert stats["plan_cache_hits"] == len(points) - 2


FIGURE6_REFUSED = {
    "mapping": {"kind": "matched-xor", "params": {"t": 1, "s": 2}},
    "memory": {"t": 0},
    "workload": {"kind": "strided", "params": {"stride": 1, "length": 8}},
    "drive": {"kind": "figure6"},
}


def test_an_engine_that_refuses_stores_nothing(engines):
    spec = ScenarioSpec.from_dict(FIGURE6_REFUSED)
    messages = []
    for _ in range(2):
        with pytest.raises(HardwareModelError) as raised:
            simulate(spec)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert "outside the 1-slot latch bank" in messages[0]
    assert plan_cache_stats()["plan_cache_entries"] == 0
    assert len(engines) == 2


def test_an_unknown_indexed_mode_stores_nothing():
    access = IndexedAccess(0, [3, 1, 4, 1, 5, 9, 2, 6])
    messages = []
    for _ in range(2):
        with pytest.raises(VectorSpecError) as raised:
            plan_indexed(MatchedXorMapping(3, 4), 3, access, mode="bogus")
        messages.append(str(raised.value))
    assert messages == ["unknown indexed plan mode 'bogus'"] * 2
    assert plan_cache_stats()["plan_cache_entries"] == 0


class Untokened(MatchedXorMapping):
    """Eq. (1) with no declared address identity."""

    def cache_token(self):
        return None


def test_a_mapping_without_an_address_key_is_never_shared(engines):
    mapping = Untokened(3, 4)
    assert mapping.address_key() is None
    access = IndexedAccess(16, range(64))
    first = plan_indexed(mapping, 3, access)
    assert plan_indexed(mapping, 3, access) == first
    spec = ScenarioSpec.from_dict(
        {
            "mapping": {"kind": "matched-xor", "params": {"t": 3, "s": 4}},
            "memory": {"t": 3},
            "workload": {
                "kind": "strided",
                "params": {"base": 16, "stride": 12, "length": 128},
            },
            "drive": {"kind": "figure6"},
        }
    )
    point = build_point(spec)
    point = replace(point, config=replace(point.config, mapping=mapping))
    assert figure6_run(point) == figure6_run(point)
    assert len(engines) == 2
    stats = plan_cache_stats()
    assert (stats["plan_cache_entries"], stats["plan_cache_hits"]) == (0, 0)


MAPPINGS = [
    (MatchedXorMapping(3, 4), 3),
    (SectionXorMapping(3, 4, 9), 3),
    (LowOrderInterleaved(3), 2),
]


@st.composite
def gather_plans(draw):
    """A gather plan and a memory over its mapping (or another one)."""
    mapping, t = draw(st.sampled_from(MAPPINGS))
    indices = draw(
        st.lists(st.integers(-(1 << 20), 1 << 20), min_size=1, max_size=96)
    )
    access = IndexedAccess(draw(st.integers(-5000, 5000)), indices)
    plan = plan_indexed(
        mapping, t, access, mode=draw(st.sampled_from(["ordered", "scheduled"]))
    )
    if draw(st.booleans()):
        memory = MemoryConfig(mapping, t, ports=draw(st.sampled_from([1, 2])))
    else:
        memory = MemoryConfig(LowOrderInterleaved(mapping.module_bits), t)
    return plan, memory


@given(gather_plans())
@settings(max_examples=100, deadline=None)
def test_the_view_reads_as_a_gathers_request_stream(case):
    plan, _memory = case
    view = PlanRequests(plan)
    stream = plan.request_stream()
    assert len(view) == len(stream)
    assert list(view) == stream
    assert [view[i] for i in range(len(view))] == stream
    assert KernelStream.of("access", view).requests is view


@given(gather_plans(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_a_gather_run_through_the_view_records_and_traces_the_same(
    case, traced_run
):
    plan, memory = case
    tracers = (Tracer(), Tracer()) if traced_run else (None, None)
    through_view = MemorySystem(memory).run_plan(plan, tracer=tracers[0])
    modules = plan.modules if memory.mapping is plan.mapping else None
    materialised = MemorySystem(memory).run_stream(
        plan.request_stream(), modules=modules, tracer=tracers[1]
    )
    assert through_view == materialised
    assert list(through_view.requests) == list(materialised.requests)
    if traced_run:
        assert tracers[0].events == tracers[1].events


@pytest.mark.parametrize("bad", [-1, 8, 1 << 40])
def test_a_gather_element_outside_the_access_raises_its_own_error(bad):
    access = IndexedAccess(-16, [5, -3, 9, 0, 2, 7, 1, 4])
    with pytest.raises(VectorSpecError) as expected:
        access.address_of(bad)
    plan = IndexedPlan(
        access=access,
        order=(0, 1, 2, bad, 4, 5, 6, 7),
        modules=(0,) * 8,
        service_ratio=4,
        conflict_free=False,
        scheme="canonical",
    )
    with pytest.raises(VectorSpecError) as raised:
        MemorySystem(MemoryConfig.matched(2, 3)).run_plan(plan)
    assert str(raised.value) == str(expected.value)
    with pytest.raises(VectorSpecError) as built:
        plan.request_stream()
    assert str(built.value) == str(expected.value)
