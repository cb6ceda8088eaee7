"""Interleaved address mappings.

Two classical schemes:

* :class:`LowOrderInterleaved` — the conventional arrangement where the low
  ``m`` address bits select the module.  Conflict-free for odd strides
  (family ``x = 0``) on a matched memory, which is the ordered-access
  baseline the paper quotes an efficiency of 0.4 for (Section 5-B).

* :class:`FieldInterleaved` — "using an internal field of the address as
  module number" (Section 1): bits ``s .. s+m-1`` select the module.  This
  shifts the single conflict-free family to ``x = s`` and has the same
  period structure as the XOR mapping, so the paper's out-of-order scheme
  applies to it as well.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.mappings.base import DEFAULT_ADDRESS_BITS, AddressMapping, bit_field


class LowOrderInterleaved(AddressMapping):
    """Module = low-order ``m`` bits of the address."""

    def __init__(self, module_bits: int, address_bits: int = DEFAULT_ADDRESS_BITS):
        super().__init__(module_bits, address_bits)
        self._field_mask = self.module_count - 1

    def cache_token(self) -> tuple:
        return ("low-order", self.module_bits, self.address_bits)

    @property
    def field_bits(self) -> int:
        """The low ``m`` bits, so ``Px = max(2**(m-x), 1)``."""
        return self.module_bits

    def module_of(self, address: int) -> int:
        """The low ``m`` bits in mask form, ``A & (2**m - 1)``; since
        ``m <= address_bits``, reducing first would change nothing."""
        return address & self._field_mask

    def displacement_of(self, address: int) -> int:
        return self.reduce(address) >> self.module_bits

    def describe(self) -> str:
        return f"LowOrderInterleaved(m={self.module_bits})"


class FieldInterleaved(AddressMapping):
    """Module = address bits ``s .. s+m-1``.

    The element sequence of a stride ``sigma * 2**s`` steps this field by
    ``sigma`` per element (the low ``s`` bits never change when a multiple
    of ``2**s`` is added), so family ``x = s`` is conflict-free for ordered
    access, mirroring the matched XOR mapping of Eq. (1).
    """

    def __init__(
        self, module_bits: int, s: int, address_bits: int = DEFAULT_ADDRESS_BITS
    ):
        super().__init__(module_bits, address_bits)
        if s < 0:
            raise ConfigurationError(f"field position s must be >= 0, got {s}")
        if s + module_bits > address_bits:
            raise ConfigurationError(
                f"module field [{s}, {s + module_bits}) exceeds the "
                f"{address_bits}-bit address space"
            )
        self.s = s

    def cache_token(self) -> tuple:
        return ("field", self.module_bits, self.s, self.address_bits)

    @property
    def field_bits(self) -> int:
        """Bits up to the field's top, so ``Px = max(2**(s+m-x), 1)``:
        the field cycles like a counter."""
        return self.s + self.module_bits

    def module_of(self, address: int) -> int:
        return bit_field(self.reduce(address), self.s, self.module_bits)

    def displacement_of(self, address: int) -> int:
        # Remove the module field: keep bits below s and bits above s+m,
        # concatenated.  This is a bijection between the address space and
        # (module, displacement).
        address = self.reduce(address)
        low = bit_field(address, 0, self.s)
        high = address >> (self.s + self.module_bits)
        return (high << self.s) | low

    def describe(self) -> str:
        return f"FieldInterleaved(m={self.module_bits}, s={self.s})"
