"""Tests for the Figure 6 out-of-order engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planner import AccessPlanner
from repro.core.subsequences import build_subsequences
from repro.core.vector import VectorAccess
from repro.errors import HardwareModelError, OrderingError
from repro.hardware.oos_engine import Figure6Engine
from repro.mappings.linear import MatchedXorMapping
from repro.mappings.section import SectionXorMapping

SIGMAS = st.integers(min_value=-9, max_value=9).filter(lambda v: v % 2 != 0)


def draw_access(draw, t: int, w: int, x: int) -> VectorAccess:
    """A family-``x`` vector whose length is a whole number of chunks
    ``2**(w+t-x)``, so the Lemma-2/4 decomposition applies."""
    sigma = draw(SIGMAS)
    base = draw(st.integers(min_value=-5000, max_value=2**20))
    chunks = draw(st.integers(min_value=1, max_value=4))
    return VectorAccess(base, sigma * (1 << x), chunks << (w + t - x))


@st.composite
def matched_accesses(draw):
    t = draw(st.sampled_from((2, 3, 4)))
    s = draw(st.integers(min_value=t, max_value=t + 2))
    x = draw(st.integers(min_value=0, max_value=s))
    return AccessPlanner(MatchedXorMapping(t, s), t), draw_access(draw, t, s, x)


@st.composite
def section_accesses(draw):
    t = draw(st.sampled_from((2, 3, 4)))
    s = draw(st.integers(min_value=t, max_value=t + 2))
    y = draw(st.integers(min_value=s + t, max_value=s + t + 2))
    x = draw(st.integers(min_value=0, max_value=y))
    w = s if x <= s else y
    planner = AccessPlanner(SectionXorMapping(t, s, y), t)
    return planner, draw_access(draw, t, w, x)


def assert_engine_matches_plan(planner: AccessPlanner, vector: VectorAccess):
    """The stream equals the plan, and the Section 5-D audit has its
    closed form: one request per cycle, two adds per element after the
    first, and one bank filled ahead whenever there is a second
    subsequence."""
    plan = planner.plan(vector, mode="conflict_free")
    engine = Figure6Engine(planner, vector)
    assert engine.request_stream() == plan.request_stream()
    length, slots = vector.length, 1 << planner.t
    report = engine.report()
    assert report.total_cycles == length
    assert report.generator1_adds + report.generator2_adds == 2 * (length - 1)
    assert report.latch_peak_occupancy == (slots if length > slots else 0)
    assert report.latch_capacity == 2 * slots
    assert report.order_queue_depth == slots
    assert [produced.cycle for produced in engine.run()] == list(
        range(1, length + 1)
    )


class TestMatchedEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(case=matched_accesses())
    def test_stream_equals_plan(self, case):
        assert_engine_matches_plan(*case)


class TestUnmatchedEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(case=section_accesses())
    def test_stream_equals_plan(self, case):
        assert_engine_matches_plan(*case)


class TestResourceBudgets:
    def test_latch_capacity_respected(self):
        planner = AccessPlanner(MatchedXorMapping(3, 4), 3)
        for family in range(5):
            engine = Figure6Engine(
                planner, VectorAccess(99, 3 * (1 << family), 128)
            )
            report = engine.report()
            assert report.latch_capacity == 16  # 2 * 2**t
            assert report.latch_peak_occupancy <= 8  # one bank's worth

    def test_one_cycle_per_request(self):
        planner = AccessPlanner(MatchedXorMapping(3, 4), 3)
        engine = Figure6Engine(planner, VectorAccess(0, 12, 128))
        stream = engine.run()
        assert [produced.cycle for produced in stream] == list(range(1, 129))

    def test_generator1_only_first_subsequence(self):
        """'One of them is only used in the first 2**t cycles'."""
        planner = AccessPlanner(MatchedXorMapping(3, 4), 3)
        engine = Figure6Engine(planner, VectorAccess(0, 12, 128))
        report = engine.report()
        # Address + register adds of generator 1: bounded by 2 * 2**t.
        assert report.generator1_adds <= 2 * 8

    def test_single_subsequence_vector_uses_no_latches(self):
        planner = AccessPlanner(MatchedXorMapping(3, 4), 3)
        # Family x = s: the chunk is one subsequence; with L = 2**t... use
        # L=8, one subsequence total.
        engine = Figure6Engine(planner, VectorAccess(5, 16, 8))
        report = engine.report()
        assert report.latch_peak_occupancy == 0
        assert report.generator2_adds == 0


class TestErrors:
    def test_outside_window_raises(self):
        planner = AccessPlanner(MatchedXorMapping(3, 4), 3)
        with pytest.raises(OrderingError):
            Figure6Engine(planner, VectorAccess(0, 1 << 6, 128))

    def test_bad_length_raises(self):
        planner = AccessPlanner(MatchedXorMapping(3, 4), 3)
        with pytest.raises(OrderingError):
            Figure6Engine(planner, VectorAccess(0, 12, 100))


class TestStructuralFaults:
    """Faults in the key path raise through the engine with the datapath's
    messages (matched ``t=3, s=4``, vector ``(0, 12, 128)``)."""

    VECTOR = VectorAccess(0, 12, 128)

    def remap_keys(self, monkeypatch, remap):
        """Replace each alignment key ``k`` of ``address`` with
        ``remap(address, k)``."""
        original = AccessPlanner._reorder_parameters

        def reorder_parameters(planner, vector):
            w, key_of = original(planner, vector)
            return w, lambda address: remap(address, key_of(address))

        monkeypatch.setattr(
            AccessPlanner, "_reorder_parameters", reorder_parameters
        )

    def engine_error(self, planner, vector) -> str:
        with pytest.raises(HardwareModelError) as raised:
            Figure6Engine(planner, vector).run()
        return str(raised.value)

    def test_duplicate_key_overflows_the_filling_bank(self, monkeypatch):
        self.remap_keys(monkeypatch, lambda address, key: 0 if key == 1 else key)
        planner = AccessPlanner(MatchedXorMapping(3, 4), 3)
        assert self.engine_error(planner, self.VECTOR) == (
            "latch bank 'bank-a': slot 0 overwritten while occupied — the "
            "subsequence pipeline overflowed its budget"
        )

    def test_duplicate_key_in_the_order_queue_reads_an_empty_latch(
        self, monkeypatch
    ):
        first = {
            self.VECTOR.address_of(index)
            for index in build_subsequences(self.VECTOR, 4, 3).subsequence_indices(
                0, 0
            )
        }
        self.remap_keys(
            monkeypatch,
            lambda address, key: 0 if key == 1 and address in first else key,
        )
        planner = AccessPlanner(MatchedXorMapping(3, 4), 3)
        assert self.engine_error(planner, self.VECTOR) == (
            "latch bank 'bank-a': slot 0 read while empty — an address was "
            "issued before its generator produced it"
        )

    def test_key_outside_the_latch_bank(self):
        # Sixteen modules behind an eight-slot bank: a real geometry.
        planner = AccessPlanner(MatchedXorMapping(4, 5), 3)
        assert self.engine_error(planner, VectorAccess(0, 3, 256)) == (
            "alignment key 9 outside the 8-slot latch bank — this "
            "mapping/stride pair is not supported by the Figure 6 engine"
        )


class TestRunIsCached:
    def test_second_run_returns_same_object(self):
        planner = AccessPlanner(MatchedXorMapping(3, 4), 3)
        engine = Figure6Engine(planner, VectorAccess(0, 12, 128))
        assert engine.run() is engine.run()


class TestOtherGeometries:
    """The engine is geometry-generic: t=2 and t=4 machines."""

    @pytest.mark.parametrize(
        "t,s,length", [(2, 3, 32), (2, 4, 64), (4, 5, 512), (4, 4, 256)]
    )
    def test_matched_geometries(self, t, s, length):
        planner = AccessPlanner(MatchedXorMapping(t, s), t)
        for family in range(min(s, 3) + 1):
            vector = VectorAccess(99, 3 * (1 << family), length)
            try:
                plan = planner.plan(vector, mode="conflict_free")
            except OrderingError:
                continue  # outside this geometry's window
            engine = Figure6Engine(planner, vector)
            assert engine.request_stream() == plan.request_stream()
            report = engine.report()
            assert report.latch_capacity == 2 * (1 << t)

    def test_figure7_geometry(self):
        planner = AccessPlanner(SectionXorMapping(2, 3, 7), 2)
        for family in range(8):
            vector = VectorAccess(6, 1 << family, 32)
            plan = planner.plan(vector, mode="conflict_free")
            engine = Figure6Engine(planner, vector)
            assert engine.request_stream() == plan.request_stream()
