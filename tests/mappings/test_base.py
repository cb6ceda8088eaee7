"""Tests for the mapping base utilities."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.mappings.base import (
    AddressMapping,
    bit_field,
    empirical_period,
    is_power_of_two,
)
from repro.mappings.interleaved import FieldInterleaved, LowOrderInterleaved
from repro.mappings.linear import MatchedXorMapping
from repro.mappings.matrix import PseudoRandomMapping, XorMatrixMapping, gf2_rank
from repro.mappings.section import SectionXorMapping
from repro.mappings.skewed import SkewedMapping


class UndeclaredLowOrder(AddressMapping):
    """Low-order interleaving that declares no address bits."""

    def module_of(self, address: int) -> int:
        return self.reduce(address) & (self.module_count - 1)

    def displacement_of(self, address: int) -> int:
        return self.reduce(address) >> self.module_bits


class ExtendedXor(MatchedXorMapping):
    """Eq. (1) plus address bit ``s + t`` on module bit 0: it reads one
    bit more than its parent declares, so it must not inherit the
    declaration."""

    def module_of(self, address: int) -> int:
        address = self.reduce(address)
        return super().module_of(address) ^ (
            (address >> (self.s + self.module_bits)) & 1
        )


@st.composite
def mappings(draw):
    """Every mapping kind at a geometry small enough to check one period
    element by element (at most 10 address bits read)."""
    kind = draw(
        st.sampled_from(
            [
                "matched", "section", "low-order", "field", "skewed",
                "xor-matrix", "pseudo-random", "undeclared", "extended-xor",
            ]
        )
    )
    bits = 16
    if kind == "matched":
        t = draw(st.integers(1, 3))
        return MatchedXorMapping(t, draw(st.integers(t, 7 - t)), bits)
    if kind == "section":
        t = draw(st.integers(1, 2))
        s = draw(st.integers(t, t + 2))
        return SectionXorMapping(t, s, draw(st.integers(s + t, 10 - t)), bits)
    if kind == "low-order":
        return LowOrderInterleaved(draw(st.integers(0, 4)), bits)
    if kind == "field":
        m = draw(st.integers(1, 3))
        return FieldInterleaved(m, draw(st.integers(0, 10 - m)), bits)
    if kind == "skewed":
        m = draw(st.integers(1, 3))
        return SkewedMapping(
            m, draw(st.integers(m, 10 - m)),
            draw(st.integers(0, 3)) * 2 + 1, bits,
        )
    if kind == "xor-matrix":
        m = draw(st.integers(1, 3))
        masks = draw(
            st.lists(st.integers(1, (1 << 10) - 1), min_size=m, max_size=m)
            .filter(lambda rows: gf2_rank(rows) == len(rows))
        )
        return XorMatrixMapping(masks, bits)
    if kind == "pseudo-random":
        m = draw(st.integers(1, 3))
        return PseudoRandomMapping(
            m, draw(st.integers(m, 10)), draw(st.integers(0, 50)), bits
        )
    if kind == "undeclared":
        return UndeclaredLowOrder(draw(st.integers(0, 4)), bits)
    t = draw(st.integers(1, 3))
    return ExtendedXor(t, draw(st.integers(t, 9 - 2 * t)), bits)


def pointwise(mapping, base, stride, length):
    return [
        mapping.module_of(mapping.reduce(base + i * stride))
        for i in range(length)
    ]


class TestIsPowerOfTwo:
    def test_accepts_powers(self):
        for exponent in range(20):
            assert is_power_of_two(1 << exponent)

    def test_rejects_non_powers(self):
        for value in (0, -1, -8, 3, 5, 6, 7, 12, 100):
            assert not is_power_of_two(value)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_matches_bit_count(self, value):
        assert is_power_of_two(value) == (bin(value).count("1") == 1)


class TestBitField:
    def test_basic_extraction(self):
        assert bit_field(0b110100, 2, 3) == 0b101

    def test_zero_width(self):
        assert bit_field(0xFFFF, 4, 0) == 0

    def test_negative_low_rejected(self):
        with pytest.raises(ValueError):
            bit_field(1, -1, 2)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=28),
        st.integers(min_value=0, max_value=8),
    )
    def test_agrees_with_shift_mask(self, value, low, width):
        assert bit_field(value, low, width) == (value >> low) & ((1 << width) - 1)


class TestMappingBasics:
    def test_module_count(self):
        assert LowOrderInterleaved(3).module_count == 8

    def test_reduce_wraps(self):
        mapping = LowOrderInterleaved(3, address_bits=8)
        assert mapping.reduce(256) == 0
        assert mapping.reduce(257) == 1
        assert mapping.reduce(-1) == 255

    def test_bad_module_bits(self):
        with pytest.raises(ConfigurationError):
            LowOrderInterleaved(-1)

    def test_address_bits_must_cover_modules(self):
        with pytest.raises(ConfigurationError):
            LowOrderInterleaved(8, address_bits=4)

    @settings(max_examples=200, deadline=None)
    @given(
        mapping=mappings(),
        base=st.integers(-(1 << 17), 1 << 17),
        sigma=st.integers(-50, 49).map(lambda k: 2 * k + 1),
        data=st.data(),
    )
    def test_module_sequence_matches_pointwise(self, mapping, base, sigma, data):
        # Declared bits only shorten the work: the tiled sequence, the
        # residue lookup and the derived period all agree with
        # module_of(reduce(a)) taken element by element.
        declared = mapping.field_bits
        family = data.draw(st.integers(0, (declared or 4) + 3), label="family")
        stride = sigma << family
        period = mapping.period(family)
        length = data.draw(
            st.sampled_from([1, period - 1, period, period + 1, 2 * period + 3])
            | st.integers(0, 3 * period + 5),
            label="length",
        )
        expected = pointwise(mapping, base, stride, length)
        assert mapping.module_sequence(base, stride, length) == expected
        addresses = [base + i * stride for i in range(length)]
        assert mapping.modules_of(addresses) == expected
        # period() is the minimal period of the element-by-element sequence.
        whole = pointwise(mapping, base, stride, 2 * period)
        assert whole[:period] == whole[period:]
        if period > 1:
            assert whole[: period // 2] != whole[period // 2 : period]

    def test_overriding_module_of_drops_the_declaration(self):
        assert MatchedXorMapping(3, 4).field_bits == 7
        assert ExtendedXor(3, 4).field_bits is None
        assert UndeclaredLowOrder(3).field_bits is None
        # A subclass that keeps its parent's address function keeps its
        # parent's declaration.
        assert PseudoRandomMapping(3, 12, seed=1).field_bits is not None


class TestEmpiricalPeriod:
    def test_matches_analytic_for_xor(self):
        mapping = MatchedXorMapping(3, 4, address_bits=16)
        for family in range(6):
            stride = 1 << family
            assert empirical_period(mapping, stride) == mapping.period(family)

    def test_low_order_interleaving(self):
        mapping = LowOrderInterleaved(3, address_bits=16)
        assert empirical_period(mapping, 1) == 8
        assert empirical_period(mapping, 2) == 4
        assert empirical_period(mapping, 8) == 1

    def test_odd_sigma_same_period(self):
        mapping = MatchedXorMapping(3, 4, address_bits=16)
        assert empirical_period(mapping, 3 * 4) == mapping.period(2)

    def test_default_period_uses_empirical(self):
        # A mapping that declares no bits measures its period.
        mapping = UndeclaredLowOrder(2, address_bits=12)
        assert mapping.field_bits is None
        assert mapping.period(0) == 4
        assert mapping.period(1) == 2


class TestDeclaredPeriod:
    @pytest.mark.parametrize(
        "mapping, family, expected",
        [
            (XorMatrixMapping([0x8001, 0x4002, 0x4]), 0, 1 << 16),
            (PseudoRandomMapping(3, seed=3), 3, 1 << 13),
            (PseudoRandomMapping(3, seed=0), 0, 1 << 16),
        ],
        ids=["xor-matrix", "pseudo-random-3", "pseudo-random-0"],
    )
    def test_matrix_period_reads_high_address_bits(
        self, mapping, family, expected
    ):
        # These read address bits above the 4096-element sample that
        # empirical_period takes, so only the declared bits get them right.
        assert mapping.period(family) == expected
        stride = 1 << family

        def module(index):
            return mapping.module_of(mapping.reduce(index * stride))

        for index in random.Random(0).sample(range(expected), 256):
            assert module(index) == module(index + expected)
        # Half the period flips the highest address bit F reads.
        assert any(
            module(index) != module(index + expected // 2)
            for index in range(expected // 2)
        )
