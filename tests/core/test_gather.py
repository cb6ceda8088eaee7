"""Tests for indexed (gather/scatter) access planning."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gather import IndexedAccess, plan_indexed
from repro.errors import VectorSpecError
from repro.mappings.linear import MatchedXorMapping
from repro.memory.config import MemoryConfig
from repro.memory.system import MemorySystem

MAPPING = MatchedXorMapping(3, 4)


class TestIndexedAccess:
    def test_addresses(self):
        access = IndexedAccess(100, [0, 5, 2])
        assert access.addresses() == [100, 105, 102]
        assert access.address_of(1) == 105
        assert access.length == 3

    def test_empty_rejected(self):
        with pytest.raises(VectorSpecError):
            IndexedAccess(0, [])

    def test_an_empty_iterator_is_rejected(self):
        with pytest.raises(VectorSpecError):
            IndexedAccess(0, iter(()))

    def test_bounds(self):
        access = IndexedAccess(0, [1, 2])
        with pytest.raises(VectorSpecError):
            access.address_of(2)

    def test_duplicates_allowed(self):
        access = IndexedAccess(0, [7, 7, 7])
        assert access.addresses() == [7, 7, 7]


class TestPlanIndexed:
    def test_ordered_mode_is_identity(self):
        access = IndexedAccess(0, list(range(16)))
        plan = plan_indexed(MAPPING, 3, access, mode="ordered")
        assert plan.order == tuple(range(16))
        assert plan.scheme == "canonical"

    def test_scheduled_mode_conflict_free_for_balanced_indices(self):
        # A permutation gather of 64 consecutive addresses: balanced.
        rng = random.Random(3)
        indices = list(range(64))
        rng.shuffle(indices)
        access = IndexedAccess(0, indices)
        plan = plan_indexed(MAPPING, 3, access, mode="scheduled")
        assert plan.scheme == "scheduled"
        assert plan.conflict_free

    def test_scheduled_cannot_fix_clustered_indices(self):
        # Every index hits the same module: best-effort scheduling still
        # produces an order, but it honestly reports the conflicts.
        access = IndexedAccess(0, [i * 128 for i in range(16)])
        plan = plan_indexed(MAPPING, 3, access, mode="scheduled")
        assert plan.scheme == "scheduled"
        assert not plan.conflict_free

    def test_best_effort_improves_non_t_matched_population(self):
        # 32 elements, two modules overloaded: strict scheduling is
        # infeasible, best-effort still spreads the clusters.
        import random as _random

        rng = _random.Random(9)
        indices = [0] * 20 + [rng.randrange(4096) for _ in range(12)]
        access = IndexedAccess(0, indices)
        scheduled = plan_indexed(MAPPING, 3, access, mode="scheduled")
        ordered = plan_indexed(MAPPING, 3, access, mode="ordered")
        from repro.core.distributions import conflict_count

        assert conflict_count(scheduled.modules, 8) <= conflict_count(
            ordered.modules, 8
        )

    def test_bad_mode(self):
        with pytest.raises(VectorSpecError):
            plan_indexed(MAPPING, 3, IndexedAccess(0, [1]), mode="bogus")

    def test_stream_carries_element_indices(self):
        access = IndexedAccess(10, [3, 1, 2])
        plan = plan_indexed(MAPPING, 3, access, mode="ordered")
        assert plan.request_stream() == [(0, 13), (1, 11), (2, 12)]

    @settings(max_examples=50, deadline=None)
    @given(
        indices=st.lists(
            st.integers(min_value=0, max_value=4095), min_size=1, max_size=96
        ),
        base=st.integers(min_value=0, max_value=10000),
    )
    def test_scheduled_is_permutation_and_verdict_correct(self, indices, base):
        from repro.core.distributions import is_conflict_free

        access = IndexedAccess(base, indices)
        plan = plan_indexed(MAPPING, 3, access, mode="scheduled")
        assert sorted(plan.order) == list(range(len(indices)))
        assert plan.conflict_free == is_conflict_free(plan.modules, 8)


class TestSimulatedGather:
    def test_scheduled_beats_ordered_on_random_permutation(self):
        rng = random.Random(17)
        indices = list(range(128))
        rng.shuffle(indices)
        access = IndexedAccess(0, indices)
        system = MemorySystem(MemoryConfig.matched(t=3, s=4, input_capacity=2))

        ordered = plan_indexed(MAPPING, 3, access, mode="ordered")
        scheduled = plan_indexed(MAPPING, 3, access, mode="scheduled")
        ordered_latency = system.run_stream(ordered.request_stream()).latency
        scheduled_result = system.run_stream(scheduled.request_stream())
        assert scheduled_result.conflict_free
        assert scheduled_result.latency == 8 + 128 + 1
        assert scheduled_result.latency < ordered_latency
