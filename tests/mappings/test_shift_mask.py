"""The paper's mappings compute module numbers with shifts and masks.

Each property below holds one of those functions to its ``bit_field``
definition, written out here as the reference: reduce the address into
the address space, then cut out the Eq. (1)/(2) fields.  Addresses range
over +-2**40, so the draw includes negative addresses and addresses above
the address space.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mappings.base import bit_field
from repro.mappings.interleaved import LowOrderInterleaved
from repro.mappings.linear import MatchedXorMapping
from repro.mappings.section import SectionXorMapping

ADDRESSES = st.lists(
    st.integers(min_value=-(2**40), max_value=2**40), min_size=1, max_size=16
)
ADDRESS_BITS = st.integers(min_value=16, max_value=32)


def reference_reduce(mapping, address: int) -> int:
    return bit_field(address, 0, mapping.address_bits)


@st.composite
def matched_mappings(draw) -> MatchedXorMapping:
    bits = draw(ADDRESS_BITS)
    t = draw(st.integers(min_value=1, max_value=5))
    s = draw(st.integers(min_value=t, max_value=bits - t))
    return MatchedXorMapping(t, s, address_bits=bits)


@st.composite
def section_mappings(draw) -> SectionXorMapping:
    bits = draw(ADDRESS_BITS)
    t = draw(st.integers(min_value=1, max_value=4))
    s = draw(st.integers(min_value=t, max_value=bits - 2 * t))
    y = draw(st.integers(min_value=s + t, max_value=bits - t))
    return SectionXorMapping(t, s, y, address_bits=bits)


@st.composite
def low_order_mappings(draw) -> LowOrderInterleaved:
    bits = draw(ADDRESS_BITS)
    m = draw(st.integers(min_value=1, max_value=6))
    return LowOrderInterleaved(m, address_bits=bits)


class RotatedSection(SectionXorMapping):
    """Eq. (2) with every module number advanced by one."""

    def module_of(self, address: int) -> int:
        return (super().module_of(address) + 1) % self.module_count


@settings(max_examples=200, deadline=None)
@given(mapping=matched_mappings(), addresses=ADDRESSES)
def test_matched_xor_module_of_is_eq1(mapping, addresses):
    t, s = mapping.module_bits, mapping.s
    for address in addresses:
        reduced = reference_reduce(mapping, address)
        assert mapping.reduce(address) == reduced
        assert mapping.module_of(address) == bit_field(reduced, 0, t) ^ bit_field(
            reduced, s, t
        )


@settings(max_examples=200, deadline=None)
@given(mapping=section_mappings(), addresses=ADDRESSES)
def test_section_xor_functions_are_eq2(mapping, addresses):
    t, s, y = mapping.t, mapping.s, mapping.y
    for address in addresses:
        reduced = reference_reduce(mapping, address)
        low = bit_field(reduced, 0, t) ^ bit_field(reduced, s, t)
        section = bit_field(reduced, y, t)
        assert mapping.reduce(address) == reduced
        assert mapping.module_of(address) == (section << t) | low
        assert mapping.section_of(address) == section
        assert mapping.module_within_section(address) == low


@settings(max_examples=200, deadline=None)
@given(mapping=low_order_mappings(), addresses=ADDRESSES)
def test_low_order_module_of_is_the_low_bits(mapping, addresses):
    for address in addresses:
        reduced = reference_reduce(mapping, address)
        assert mapping.reduce(address) == reduced
        assert mapping.module_of(address) == bit_field(
            reduced, 0, mapping.module_bits
        )


@settings(max_examples=100, deadline=None)
@given(mapping=section_mappings(), addresses=ADDRESSES)
def test_module_within_section_follows_an_overridden_module_of(
    mapping, addresses
):
    rotated = RotatedSection(
        mapping.t, mapping.s, mapping.y, address_bits=mapping.address_bits
    )
    low_mask = rotated.modules_per_section - 1
    for address in addresses:
        assert rotated.module_within_section(address) == (
            rotated.module_of(address) & low_mask
        )
        assert rotated.module_within_section(
            address
        ) != mapping.module_within_section(address)
