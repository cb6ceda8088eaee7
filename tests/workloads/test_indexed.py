"""Tests for index-vector generators and their scheduling behaviour."""

from __future__ import annotations

import pytest

from repro.core.gather import IndexedAccess, plan_indexed
from repro.errors import VectorSpecError
from repro.mappings.linear import MatchedXorMapping
from repro.workloads.indexed import (
    bit_reversal_indices,
    block_shuffle_indices,
    csr_row_indices,
    histogram_indices,
)

MAPPING = MatchedXorMapping(3, 4)


class TestBitReversal:
    def test_small_case(self):
        assert bit_reversal_indices(3) == [0, 4, 2, 6, 1, 5, 3, 7]

    @pytest.mark.parametrize("bits", range(15))
    def test_matches_the_bitwise_definition(self, bits):
        """Bit ``b`` of ``i`` is bit ``bits - 1 - b`` of its reversal."""
        expected = [
            sum(
                1 << (bits - 1 - bit)
                for bit in range(bits)
                if value >> bit & 1
            )
            for value in range(1 << bits)
        ]
        assert bit_reversal_indices(bits) == expected

    def test_is_involution(self):
        indices = bit_reversal_indices(6)
        assert [indices[i] for i in indices] == list(range(64))

    def test_is_permutation(self):
        assert sorted(bit_reversal_indices(7)) == list(range(128))

    def test_gather_schedules_conflict_free(self):
        """Bit reversal of a full range is balanced: the scheduler finds
        a conflict-free order for an access no stride can express."""
        access = IndexedAccess(0, bit_reversal_indices(7))
        plan = plan_indexed(MAPPING, 3, access, mode="scheduled")
        assert plan.conflict_free
        ordered = plan_indexed(MAPPING, 3, access, mode="ordered")
        assert not ordered.conflict_free

    def test_bits_validation(self):
        with pytest.raises(VectorSpecError):
            bit_reversal_indices(-1)


class TestCsrRow:
    def test_sorted_distinct(self):
        indices = csr_row_indices(50, 1000, seed=2)
        assert indices == sorted(indices)
        assert len(set(indices)) == 50

    def test_validation(self):
        with pytest.raises(VectorSpecError):
            csr_row_indices(10, 5)
        with pytest.raises(VectorSpecError):
            csr_row_indices(0, 5)

    def test_deterministic(self):
        assert csr_row_indices(20, 100, seed=7) == csr_row_indices(
            20, 100, seed=7
        )


class TestHistogram:
    def test_skewed_toward_low_buckets(self):
        indices = histogram_indices(5000, 64, skew=1.5, seed=3)
        low = sum(1 for i in indices if i < 8)
        high = sum(1 for i in indices if i >= 56)
        assert low > 4 * high

    def test_validation(self):
        with pytest.raises(VectorSpecError):
            histogram_indices(0, 8)
        with pytest.raises(VectorSpecError):
            histogram_indices(10, 8, skew=0)

    def test_within_bucket_range(self):
        indices = histogram_indices(100, 16, seed=1)
        assert all(0 <= i < 16 for i in indices)


class TestBlockShuffle:
    def test_partition(self):
        indices = block_shuffle_indices(8, 16, seed=4)
        assert sorted(indices) == list(range(128))

    def test_blocks_stay_dense(self):
        indices = block_shuffle_indices(8, 4, seed=5)
        for start in range(0, 32, 8):
            chunk = indices[start : start + 8]
            assert chunk == list(range(chunk[0], chunk[0] + 8))

    def test_validation(self):
        with pytest.raises(VectorSpecError):
            block_shuffle_indices(0, 4)
