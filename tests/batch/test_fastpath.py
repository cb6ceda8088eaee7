"""The closed-form planner shortcut, pinned against the real planner.

:func:`cf_order_feasible` claims to mirror ``AccessPlanner._conflict_free``
exactly wherever it answers ``True``/``False``; the geometry sweep here
holds it to that across every proven mapping kind, stride family
(including negative and odd strides), length (including non-chunk
lengths and length 1) and base.
"""

from __future__ import annotations

import pytest

from repro.batch.fastpath import cf_order_feasible
from repro.core.planner import AccessPlanner
from repro.core.vector import VectorAccess
from repro.errors import OrderingError
from repro.mappings.interleaved import FieldInterleaved, LowOrderInterleaved
from repro.mappings.linear import MatchedXorMapping
from repro.mappings.section import SectionXorMapping
from repro.mappings.skewed import SkewedMapping

#: (mapping, planner t) pairs spanning every branch of the shortcut:
#: truly matched XOR (both s == t and s > t), unmatched Eq. (1)
#: (module bits above t — undecided), section XOR (matched and
#: t-mismatched), and the mappings outside the closed forms.
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
        planner = AccessPlanner(mapping, t)
        for stride in STRIDES:
            for length in LENGTHS:
                for base in BASES:
                    yield planner, mapping, t, VectorAccess(
                        base, stride, length
                    )


class TestCfOrderFeasible:
    def test_matches_the_planner_across_the_geometry_sweep(self):
        verdicts = {True: 0, False: 0, None: 0}
        for planner, mapping, t, access in sweep():
            verdict = cf_order_feasible(mapping, t, access)
            verdicts[verdict] += 1
            if verdict is None:
                continue
            where = (mapping.describe(), t, access)
            try:
                plan = planner.plan(access, mode="conflict_free")
            except OrderingError:
                assert verdict is False, where
            else:
                assert verdict is True, where
                # Success is not merely "an order exists": the produced
                # plan is always conflict-free, which is what lets the
                # analytic tier skip measurement entirely.
                assert plan.conflict_free, where
        # The sweep must actually exercise all three answers.
        assert verdicts[True] > 0
        assert verdicts[False] > 0
        assert verdicts[None] > 0

    def test_unmatched_eq1_memory_is_undecided(self):
        # m != t: the alignment key sets can differ across subsequences,
        # so the closed form stays silent and the planner decides.
        mapping = MatchedXorMapping(4, 6)
        access = VectorAccess(0, 2, 64)
        assert cf_order_feasible(mapping, 3, access) is None

    def test_section_planner_t_mismatch_is_undecided(self):
        mapping = SectionXorMapping(3, 4, 8)
        access = VectorAccess(0, 2, 64)
        assert cf_order_feasible(mapping, 2, access) is None

    def test_mapping_without_window_structure_is_refused(self):
        mapping = LowOrderInterleaved(3)
        access = VectorAccess(0, 1, 64)
        assert cf_order_feasible(mapping, 3, access) is False
        with pytest.raises(OrderingError):
            AccessPlanner(mapping, 3).plan(access, mode="conflict_free")

    def test_subclassed_mapping_is_undecided(self):
        # A subclass may override module_of; the closed form only
        # vouches for the exact paper mappings.
        class Tweaked(MatchedXorMapping):
            def module_of(self, address: int) -> int:
                return super().module_of(address ^ 1)

        access = VectorAccess(0, 1, 64)
        assert cf_order_feasible(Tweaked(3, 4), 3, access) is None

    def test_non_mapping_object_is_undecided(self):
        assert cf_order_feasible(object(), 3, VectorAccess(0, 1, 8)) is None
