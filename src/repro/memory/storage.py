"""Backing store: the actual data behind the simulated memory.

The latency results of the paper depend only on module numbers, but the
decoupled-processor examples move real data.  Every mapping is a
bijection of its address space onto ``(module, displacement)``
(``tests/mappings/test_bijection.py`` checks each registered kind), so a
word is named by its reduced address alone: the store is one flat dict
keyed by ``address & (address_space - 1)``, and a read or write costs one
mask and one dict access.  The mapping is consulted only to name the
module and displacement of an uninitialised read.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.mappings.base import AddressMapping


class MemoryStore:
    """Word-addressable data store over one mapping's address space."""

    def __init__(self, mapping: AddressMapping):
        self.mapping = mapping
        self._mask = mapping.address_space - 1
        self._words: dict[int, float] = {}

    def write(self, address: int, value: float) -> None:
        """Store ``value`` at ``address`` (reduced into the address space)."""
        self._words[address & self._mask] = value

    def read(self, address: int) -> float:
        """Load the value at ``address``.

        Raises
        ------
        SimulationError
            If the cell was never written — surfacing use-before-define
            bugs in example programs instead of silently returning zeros.
        """
        try:
            return self._words[address & self._mask]
        except KeyError:
            module, displacement = self.mapping.map(self.mapping.reduce(address))
            raise SimulationError(
                f"read of uninitialised address {address} "
                f"(module {module}, displacement {displacement})"
            ) from None

    def write_vector(self, base: int, stride: int, values) -> None:
        """Bulk store: ``values[i]`` at ``base + i * stride``."""
        words, mask = self._words, self._mask
        for i, value in enumerate(values):
            words[(base + i * stride) & mask] = value

    def read_vector(self, base: int, stride: int, length: int) -> list[float]:
        """Bulk load of a constant-stride vector."""
        return [self.read(base + i * stride) for i in range(length)]

    def write_stream(self, stream, value_of) -> None:
        """Bulk store of a request stream of ``(element, address)`` pairs,
        in issue order: each address gets ``value_of(element)``, so a
        repeated address keeps the last write."""
        words, mask = self._words, self._mask
        for element, address in stream:
            words[address & mask] = value_of(element)

    def read_stream(self, stream, length: int) -> list[float | None]:
        """Bulk load of a request stream of ``(element, address)`` pairs,
        in issue order, into an element-indexed list of ``length`` slots
        (``None`` where the stream names no element).  The first
        uninitialised address raises as :meth:`read` does."""
        words, mask = self._words, self._mask
        values: list[float | None] = [None] * length
        for element, address in stream:
            try:
                values[element] = words[address & mask]
            except KeyError:
                self.read(address)  # raises, naming module and displacement
        return values
