"""Every registered mapping kind is a bijection of its address space.

The backing store keys each word by its reduced address, which names the
same word as ``(module, displacement)`` only when ``map`` is injective.
This checks that exhaustively over a 12-bit address space for every kind
the scenario registry knows, and checks that the check itself rejects a
mapping that folds two addresses onto one cell.
"""

from __future__ import annotations

import pytest

from repro.mappings.base import AddressMapping
from repro.scenarios import ComponentSpec
from repro.scenarios.registry import MAPPING, build, example_params, kinds

ADDRESS_BITS = 12
#: ``dynamic`` builds a selector; it resolves to one mapping per stride.
DYNAMIC_STRIDES = (1, 2, 12, 96, 512)


def assert_bijection(mapping: AddressMapping) -> None:
    """``map`` agrees with ``module_of``/``displacement_of`` and sends
    the whole address space to distinct cells of the module grid."""
    rows = mapping.address_space // mapping.module_count
    owner: dict[tuple[int, int], int] = {}
    for address in range(mapping.address_space):
        cell = mapping.map(address)
        assert cell == (
            mapping.module_of(address),
            mapping.displacement_of(address),
        )
        assert 0 <= cell[0] < mapping.module_count and 0 <= cell[1] < rows
        assert cell not in owner, (
            f"addresses {owner.get(cell)} and {address} share cell {cell}"
        )
        owner[cell] = address


def registered_mappings():
    for kind in kinds(MAPPING):
        params = example_params(MAPPING, kind)
        if kind == "pseudo-random":
            params["window_bits"] = ADDRESS_BITS
        built = build(
            MAPPING, ComponentSpec.of(kind, **params), address_bits=ADDRESS_BITS
        )
        if kind == "dynamic":
            for stride in DYNAMIC_STRIDES:
                yield pytest.param(
                    built.mapping_for_stride(stride),
                    id=f"dynamic-stride{stride}",
                )
        else:
            yield pytest.param(built, id=kind)


@pytest.mark.parametrize("mapping", list(registered_mappings()))
def test_registered_mapping_is_a_bijection(mapping):
    assert mapping.address_bits == ADDRESS_BITS
    assert_bijection(mapping)


class FoldedMapping(AddressMapping):
    """Ignores the top address bit, so ``A`` and ``A + space / 2``
    land on the same cell."""

    def module_of(self, address: int) -> int:
        return address & (self.module_count - 1)

    def displacement_of(self, address: int) -> int:
        half_rows = self.address_space >> (self.module_bits + 1)
        return (address >> self.module_bits) & (half_rows - 1)


def test_check_rejects_a_non_injective_mapping():
    with pytest.raises(AssertionError, match="share cell"):
        assert_bijection(FoldedMapping(3, ADDRESS_BITS))
