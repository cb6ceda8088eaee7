"""The process-wide plan cache.

A cache hit must be indistinguishable from recomputation across the
same geometry sweep that pins the Lemma-1 feasibility arithmetic
(tests/core/test_cf_order_feasible.py): every proven mapping kind,
stride family, length and base.  Plans and simulations computed cold,
after ``clear_plan_cache()``, must equal the cached ones, the LRU must
evict oldest-first, and mappings without a declared ``cache_token``
must never be cached.
"""

from __future__ import annotations

import pytest

from repro.core.planner import (
    AccessPlanner,
    PlanCache,
    clear_plan_cache,
    plan_cache_stats,
)
from repro.core.vector import VectorAccess
from repro.errors import ConfigurationError
from repro.mappings.base import AddressMapping
from repro.mappings.interleaved import FieldInterleaved, LowOrderInterleaved
from repro.mappings.linear import MatchedXorMapping
from repro.mappings.section import SectionXorMapping
from repro.mappings.skewed import SkewedMapping

#: The feasibility geometry sweep (tests/core/test_cf_order_feasible.py),
#: reused as the cache-correctness population: every proven mapping
#: kind, stride family (negative and odd included), non-chunk lengths,
#: length 1, and nonzero bases.
CASES = [
    (MatchedXorMapping(3, 4), 3),
    (MatchedXorMapping(3, 3), 3),
    (MatchedXorMapping(2, 5), 2),
    (MatchedXorMapping(4, 6), 3),
    (SectionXorMapping(3, 4, 9), 3),
    (SectionXorMapping(2, 3, 7), 2),
    (SectionXorMapping(3, 4, 8), 2),
    (LowOrderInterleaved(3), 3),
    (FieldInterleaved(3, 4), 3),
    (SkewedMapping(3, 4, distance=3), 3),
]

STRIDES = [1, 2, 3, 4, 5, 7, 8, 12, 16, 24, 96, -3, -8]
LENGTHS = [1, 4, 8, 16, 24, 64, 128]
BASES = [0, 5, 64]


def sweep():
    for mapping, t in CASES:
        for stride in STRIDES:
            for length in LENGTHS:
                for base in BASES:
                    yield mapping, t, VectorAccess(base, stride, length)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestPlanCacheCorrectness:
    def test_warm_plans_equal_cold_plans_across_the_sweep(self):
        cold = [
            AccessPlanner(mapping, t).plan(access)
            for mapping, t, access in sweep()
        ]
        before = plan_cache_stats()
        warm = [
            AccessPlanner(mapping, t).plan(access)
            for mapping, t, access in sweep()
        ]
        after = plan_cache_stats()
        assert cold == warm
        # Every sweep point carries a cache token, so the second pass
        # is all hits — and hits return the identical frozen object.
        assert after["plan_cache_hits"] - before["plan_cache_hits"] == len(
            cold
        )
        for left, right in zip(cold, warm):
            assert left is right

    def test_plans_computed_after_clearing_equal_cached_plans(self):
        for mapping, t, access in sweep():
            AccessPlanner(mapping, t).plan(access)
        cached = [
            AccessPlanner(mapping, t).plan(access)
            for mapping, t, access in sweep()
        ]
        clear_plan_cache()
        cold = [
            AccessPlanner(mapping, t).plan(access)
            for mapping, t, access in sweep()
        ]
        stats = plan_cache_stats()
        assert stats["plan_cache_hits"] == 0  # every plan recomputed
        assert stats["plan_cache_misses"] == len(cold)
        assert cold == cached
        assert all(left is not right for left, right in zip(cold, cached))

    def test_tokenless_mappings_are_never_cached(self):
        class AnonymousMapping(AddressMapping):
            def __init__(self):
                super().__init__(module_bits=3, address_bits=32)

            def module_of(self, address: int) -> int:
                return address % 8

            def displacement_of(self, address: int) -> int:
                return address // 8

            def describe(self) -> str:
                return "anonymous"

        mapping = AnonymousMapping()
        assert mapping.cache_token() is None
        planner = AccessPlanner(mapping, 3)
        before = plan_cache_stats()
        first = planner.plan(VectorAccess(0, 3, 64))
        second = planner.plan(VectorAccess(0, 3, 64))
        assert first == second
        assert plan_cache_stats() == before

    def test_simulation_results_match_after_clearing_the_cache(self):
        from repro.scenarios import ScenarioSpec, simulate

        spec = ScenarioSpec.from_dict(
            {
                "name": "uncached",
                "mapping": {
                    "kind": "matched-xor",
                    "params": {"t": 3, "s": 4},
                },
                "memory": {"t": 3, "q": 2},
                "workload": {
                    "kind": "strided",
                    "params": {"base": 0, "stride": 3, "length": 64},
                },
                "drive": {"kind": "planner", "params": {"mode": "ordered"}},
            }
        )
        simulate(spec)
        cached = simulate(spec).to_dict()
        assert plan_cache_stats()["plan_cache_hits"] >= 1
        clear_plan_cache()
        cold = simulate(spec).to_dict()
        assert plan_cache_stats()["plan_cache_hits"] == 0
        assert cold == cached

    def test_same_token_different_type_do_not_collide(self):
        # A subclass overriding module_of but not cache_token must get
        # its own entries: the key pairs the token with type(mapping).
        class ShiftedXor(MatchedXorMapping):
            def module_of(self, address: int) -> int:
                return (super().module_of(address) + 1) % self.module_count

        base = MatchedXorMapping(3, 4)
        shifted = ShiftedXor(3, 4)
        assert base.cache_token() == shifted.cache_token()
        access = VectorAccess(0, 3, 64)
        plan_base = AccessPlanner(base, 3).plan(access, mode="ordered")
        plan_shifted = AccessPlanner(shifted, 3).plan(
            access, mode="ordered"
        )
        assert plan_base.modules != plan_shifted.modules


class TestPlanCacheMechanics:
    def test_lru_evicts_oldest_first(self):
        cache = PlanCache(capacity=2)
        cache.store(("a",), "plan-a")
        cache.store(("b",), "plan-b")
        assert cache.lookup(("a",)) == "plan-a"  # refreshes a
        cache.store(("c",), "plan-c")  # evicts b, the LRU entry
        assert cache.lookup(("b",)) is None
        assert cache.lookup(("a",)) == "plan-a"
        assert cache.lookup(("c",)) == "plan-c"
        stats = cache.stats()
        assert stats["plan_cache_entries"] == 2
        assert stats["plan_cache_hits"] == 3
        assert stats["plan_cache_misses"] == 1

    def test_capacity_below_one_is_rejected(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            PlanCache(capacity=0)

    def test_clear_resets_counters_and_entries(self):
        cache = PlanCache(capacity=4)
        cache.store(("a",), "plan-a")
        cache.lookup(("a",))
        cache.lookup(("missing",))
        cache.clear()
        assert cache.stats() == {
            "plan_cache_hits": 0,
            "plan_cache_misses": 0,
            "plan_cache_entries": 0,
            "plan_cache_capacity": 4,
        }

    def test_stats_surface_through_obs(self):
        """``cache_stats`` reports the plan cache under its four names,
        plus the program memo's and the kernel timing memo's counters."""
        from repro.memory.kernel import LOOP_MEMO_SIZE, kernel_timing
        from repro.obs import cache_stats
        from repro.scenarios import ScenarioSpec, simulate
        from repro.scenarios.facade import (
            PROGRAM_MEMO_SIZE,
            clear_program_memo,
        )

        spec = ScenarioSpec.from_dict(
            {
                "mapping": {"kind": "matched-xor", "params": {"t": 3, "s": 4}},
                "memory": {"t": 3},
                "program": {"kind": "daxpy", "params": {"n": 64}},
                "drive": {"kind": "decoupled"},
            }
        )
        clear_program_memo()
        try:
            simulate(spec)
            simulate(spec)
            stats = cache_stats()
        finally:
            clear_program_memo()
        kernel = kernel_timing.cache_info()
        assert list(plan_cache_stats()) == [
            "plan_cache_hits",
            "plan_cache_misses",
            "plan_cache_entries",
            "plan_cache_capacity",
        ]
        assert stats == {
            **plan_cache_stats(),
            "program_memo_hits": 1,
            "program_memo_misses": 1,
            "program_memo_entries": 1,
            "program_memo_capacity": PROGRAM_MEMO_SIZE,
            "kernel_timing_hits": kernel.hits,
            "kernel_timing_misses": kernel.misses,
            "kernel_timing_entries": kernel.currsize,
            "kernel_timing_capacity": LOOP_MEMO_SIZE,
        }
        # The second point timed the first one's batches again.
        assert kernel.hits >= 1
