"""Tests for the backing store.

The store keys words by reduced address; that every mapping is a
bijection, which makes that key equivalent to ``(module, displacement)``,
is checked in ``tests/mappings/test_bijection.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.mappings.linear import MatchedXorMapping
from repro.mappings.section import SectionXorMapping
from repro.mappings.skewed import SkewedMapping
from repro.memory.storage import MemoryStore


class TestReadWrite:
    def test_roundtrip(self):
        store = MemoryStore(MatchedXorMapping(3, 4))
        store.write(1234, 9.5)
        assert store.read(1234) == 9.5

    def test_uninitialised_read_raises(self):
        store = MemoryStore(MatchedXorMapping(3, 4))
        with pytest.raises(SimulationError):
            store.read(42)

    def test_uninitialised_read_names_module_and_displacement(self):
        # The address is reported as given; module and displacement are
        # those of its reduction (42 in a 12-bit space).
        store = MemoryStore(MatchedXorMapping(3, 4, address_bits=12))
        with pytest.raises(SimulationError) as caught:
            store.read(4138)
        assert str(caught.value) == (
            "read of uninitialised address 4138 (module 0, displacement 5)"
        )

    def test_overwrite(self):
        store = MemoryStore(MatchedXorMapping(3, 4))
        store.write(7, 1.0)
        store.write(7, 2.0)
        assert store.read(7) == 2.0

    def test_wraps_address_space(self):
        mapping = MatchedXorMapping(3, 4, address_bits=12)
        store = MemoryStore(mapping)
        store.write(5, 1.5)
        assert store.read(5 + 4096) == 1.5


class TestVectorHelpers:
    def test_vector_roundtrip(self):
        store = MemoryStore(MatchedXorMapping(3, 4))
        values = [float(i) * 1.5 for i in range(64)]
        store.write_vector(100, 12, values)
        assert store.read_vector(100, 12, 64) == values

    def test_negative_stride(self):
        store = MemoryStore(MatchedXorMapping(3, 4))
        store.write_vector(1000, -3, [1.0, 2.0, 3.0])
        assert store.read(994) == 3.0


class TestStreamHelpers:
    """Request streams of ``(element, address)`` pairs, in issue order."""

    def test_stream_roundtrip_by_element(self):
        store = MemoryStore(MatchedXorMapping(3, 4))
        stream = [(2, 30), (0, 10), (1, 20)]
        store.write_stream(stream, [5.0, 6.0, 7.0].__getitem__)
        assert [store.read(a) for a in (10, 20, 30)] == [5.0, 6.0, 7.0]
        assert store.read_stream(stream, 4) == [5.0, 6.0, 7.0, None]

    def test_repeated_address_keeps_the_last_write(self):
        store = MemoryStore(MatchedXorMapping(3, 4))
        store.write_stream([(0, 8), (1, 8)], [1.0, 2.0].__getitem__)
        assert store.read(8) == 2.0

    def test_first_uninitialised_address_in_issue_order_raises(self):
        store = MemoryStore(MatchedXorMapping(3, 4, address_bits=12))
        store.write(10, 1.0)
        with pytest.raises(SimulationError) as caught:
            store.read_stream([(0, 10), (1, 4138), (2, 7)], 3)
        assert str(caught.value) == (
            "read of uninitialised address 4138 (module 0, displacement 5)"
        )


class TestBijectivityViaStorage:
    """Distinct addresses never share a word: dense ranges and random
    address sets round-trip under each mapping kind."""

    @pytest.mark.parametrize(
        "mapping",
        [
            MatchedXorMapping(3, 4, address_bits=14),
            SectionXorMapping(2, 3, 7, address_bits=14),
            SkewedMapping(3, 4, address_bits=14),
        ],
        ids=["matched-xor", "section-xor", "skewed"],
    )
    def test_dense_range_no_collisions(self, mapping):
        store = MemoryStore(mapping)
        for address in range(2048):
            store.write(address, float(address))
        for address in range(2048):
            assert store.read(address) == float(address)

    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=0, max_value=2**14 - 1), max_size=64))
    def test_random_addresses(self, addresses):
        store = MemoryStore(SectionXorMapping(2, 3, 7, address_bits=14))
        reference = {}
        for i, address in enumerate(addresses):
            store.write(address, float(i))
            reference[address] = float(i)
        for address, value in reference.items():
            assert store.read(address) == value

