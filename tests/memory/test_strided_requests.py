"""The kernel's read-on-demand view of a strided plan's request stream.

``MemorySystem.run_plan`` hands the kernel a
:class:`~repro.memory.kernel.PlanRequests` view of a strided plan's
issue order instead of ``plan.request_stream()``.  Over every mapping
kind and plan mode, negative bases and strides and lengths 1-1024, the
view must read as that stream, and a run through it must give the same
request records and the same kernel trace.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.orderings import RequestOrder
from repro.core.planner import AccessPlan, AccessPlanner
from repro.core.scheduler import OraclePlanner
from repro.core.vector import VectorAccess
from repro.errors import OrderingError, VectorSpecError
from repro.mappings.interleaved import FieldInterleaved, LowOrderInterleaved
from repro.mappings.linear import MatchedXorMapping
from repro.mappings.matrix import PseudoRandomMapping
from repro.mappings.section import SectionXorMapping
from repro.mappings.skewed import SkewedMapping
from repro.memory.config import MemoryConfig
from repro.memory.kernel import KernelStream, PlanRequests
from repro.memory.system import MemorySystem
from repro.obs import Tracer

PLAN_MODES = ["auto", "ordered", "subsequence", "conflict_free", "oracle"]


@st.composite
def mappings_and_t(draw):
    """A mapping of every kind, with a service time it can hide."""
    kind = draw(
        st.sampled_from(
            ["matched", "section", "low-order", "field", "skewed", "random"]
        )
    )
    t = draw(st.integers(1, 3))
    if kind == "matched":
        return MatchedXorMapping(t, draw(st.integers(t, 6))), t
    if kind == "section":
        s = draw(st.integers(t, t + 2))
        return SectionXorMapping(t, s, draw(st.integers(s + t, 12))), t
    m = draw(st.integers(t, 4))
    if kind == "low-order":
        return LowOrderInterleaved(m), t
    if kind == "field":
        return FieldInterleaved(m, draw(st.integers(0, 6))), t
    if kind == "skewed":
        skew = draw(st.integers(0, 3)) * 2 + 1
        return SkewedMapping(m, draw(st.integers(m, 8)), skew), t
    return PseudoRandomMapping(m, 16, seed=draw(st.integers(0, 9))), t


@st.composite
def strided_plans(draw):
    """A strided plan and a memory over its mapping (or another one)."""
    mapping, t = draw(mappings_and_t())
    stride = draw(st.integers(-300, 300).filter(bool))
    vector = VectorAccess(
        draw(st.integers(-5000, 5000)), stride, draw(st.integers(1, 1024))
    )
    planner = AccessPlanner(mapping, t)
    mode = draw(st.sampled_from(PLAN_MODES))
    try:
        if mode == "oracle":
            plan = OraclePlanner(planner).plan(vector)
        else:
            plan = planner.plan(vector, mode=mode)
    except OrderingError:
        plan = planner.plan(vector, mode="ordered")
    # A memory on another mapping derives each module from the addresses.
    if draw(st.booleans()):
        memory = MemoryConfig(mapping, t, ports=draw(st.sampled_from([1, 2])))
    else:
        memory = MemoryConfig(LowOrderInterleaved(mapping.module_bits), t)
    return plan, memory


def _stream_run(memory: MemoryConfig, plan: AccessPlan, tracer=None):
    """The run the parent took: the plan's materialised request stream."""
    modules = plan.modules if memory.mapping is plan.mapping else None
    return MemorySystem(memory).run_stream(
        plan.request_stream(), modules=modules, tracer=tracer
    )


@given(strided_plans())
@settings(max_examples=120, deadline=None)
def test_the_view_reads_as_the_request_stream(case):
    plan, _memory = case
    view = PlanRequests(plan)
    stream = plan.request_stream()
    assert len(view) == len(stream)
    assert list(view) == stream
    assert [view[i] for i in range(len(view))] == stream
    assert KernelStream.of("access", view).requests is view


@given(strided_plans(), st.booleans())
@settings(max_examples=120, deadline=None)
def test_a_run_through_the_view_records_and_traces_the_same(case, traced):
    plan, memory = case
    tracers = (Tracer(), Tracer()) if traced else (None, None)
    through_view = MemorySystem(memory).run_plan(plan, tracer=tracers[0])
    materialised = _stream_run(memory, plan, tracer=tracers[1])
    assert through_view == materialised
    assert list(through_view.requests) == list(materialised.requests)
    if traced:
        assert tracers[0].events == tracers[1].events


@pytest.mark.parametrize("bad", [-1, 8, 1 << 40])
def test_an_index_outside_the_vector_raises_as_address_of_does(bad):
    vector = VectorAccess(-16, -3, 8)
    indices = (0, 1, 2, bad, 4, 5, 6, 7)
    with pytest.raises(VectorSpecError) as expected:
        vector.address_of(bad)
    plan = AccessPlan(
        vector=vector,
        order=RequestOrder("canonical", indices, vector),
        modules=(0,) * 8,
        service_ratio=4,
        conflict_free=False,
    )
    with pytest.raises(VectorSpecError) as raised:
        MemorySystem(MemoryConfig.matched(2, 3)).run_plan(plan)
    assert str(raised.value) == str(expected.value)
    with pytest.raises(VectorSpecError) as built:
        plan.request_stream()
    assert str(built.value) == str(expected.value)
