"""The unmatched-memory section mapping of Eq. (2).

For an unmatched memory with ``M = T**2`` modules (``m = 2t``) Section 4.1
of the paper divides the modules into ``T`` *sections* of ``T`` modules and
the address space into blocks of ``2**y`` words, mapping each block onto
one section.  The module number ``b`` has two fields:

    ``b_i = a_i XOR a_{s+i}``   for ``0 <= i <= t-1``   (s >= t)
    ``b_i = a_{y+i-t}``         for ``t <= i <= 2t-1``  (y >= s+t)

The low field selects the module *within* a section exactly like the
matched mapping of Eq. (1); the high field (``a[y+t-1..y]``) selects the
section.  A *supermodule* (Section 4.2) collects the i-th module of every
section; its number is determined by the address bits ``a[s+t-1..s]``.

Figure 7 of the paper shows this mapping for ``t=2, m=4, s=3, y=7``; it is
regenerated verbatim by experiment E05.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.mappings.base import DEFAULT_ADDRESS_BITS, AddressMapping, bit_field


class SectionXorMapping(AddressMapping):
    """Two-level XOR mapping for unmatched memories (Eq. 2, ``m = 2t``).

    Parameters
    ----------
    t:
        ``T = 2**t`` is the memory/processor cycle ratio; the memory has
        ``M = 2**(2t)`` modules arranged as ``T`` sections of ``T``.
    s:
        Low XOR field position, ``s >= t`` (same role as in Eq. 1).
    y:
        Section field position, ``y >= s + t``.  Section 4.3 recommends
        ``s = lambda - t`` and ``y = 2(lambda - t) + 1``, which yields the
        conflict-free window ``0 <= x <= 2(lambda - t) + 1``.
    """

    def __init__(
        self, t: int, s: int, y: int, address_bits: int = DEFAULT_ADDRESS_BITS
    ):
        super().__init__(2 * t, address_bits)
        if t < 1:
            raise ConfigurationError(f"t must be >= 1 for a sectioned memory, got {t}")
        if s < t:
            raise ConfigurationError(f"Eq. (2) requires s >= t (s={s}, t={t})")
        if y < s + t:
            raise ConfigurationError(
                f"Eq. (2) requires y >= s + t (y={y}, s={s}, t={t}); otherwise "
                "the section field overlaps the low XOR field"
            )
        if y + t > address_bits:
            raise ConfigurationError(
                f"section field [{y}, {y + t}) exceeds the "
                f"{address_bits}-bit address space"
            )
        self.t = t
        self.s = s
        self.y = y
        self._field_mask = (1 << t) - 1
        self._section_mask = self._field_mask << t

    def cache_token(self) -> tuple:
        return ("section-xor", self.t, self.s, self.y, self.address_bits)

    @property
    def field_bits(self) -> int:
        """Bits up to the section field's top, so ``Px = max(2**(y+t-x),
        1)`` (Section 4.1)."""
        return self.y + self.t

    @property
    def section_count(self) -> int:
        """Number of sections, ``T = 2**t``."""
        return 1 << self.t

    @property
    def modules_per_section(self) -> int:
        """Modules in each section, also ``T = 2**t``."""
        return 1 << self.t

    def module_of(self, address: int) -> int:
        """Eq. (2) in shift-and-mask form: the section field
        ``a[y+t-1..y]`` shifted down to ``b[2t-1..t]``, beside the Eq. (1)
        low field ``(A ^ (A >> s)) & (2**t - 1)``.

        Every field lies below ``y + t <= address_bits``, so reducing the
        address first would change nothing.
        """
        return ((address >> (self.y - self.t)) & self._section_mask) | (
            (address ^ (address >> self.s)) & self._field_mask
        )

    def section_of(self, address: int) -> int:
        """Section number = high module field = ``a[y+t-1..y]``, in
        shift-and-mask form: ``(A >> y) & (2**t - 1)``."""
        return (address >> self.y) & self._field_mask

    def module_within_section(self, address: int) -> int:
        """Low module field ``b[t-1..0]``, taken from :meth:`module_of`
        so a subclass that changes the module number changes this too."""
        return self.module_of(address) & self._field_mask

    def supermodule_of(self, address: int) -> int:
        """Supermodule number = address bits ``a[s+t-1..s]`` (Section 4.2).

        Inside one Lemma-2 subsequence the low ``t`` address bits are
        constant, so ordering requests by this field is equivalent to
        ordering by the within-section module number.
        """
        return bit_field(self.reduce(address), self.s, self.t)

    def displacement_of(self, address: int) -> int:
        """Bits of the address not consumed by the module number.

        Removes ``a[t-1..0]`` (recoverable from the low module field and
        ``a[s+t-1..s]``) and ``a[y+t-1..y]`` (the section field), then
        concatenates the remaining fields.  Together with
        :meth:`module_of` this is a bijection of the address space.
        """
        address = self.reduce(address)
        middle = bit_field(address, self.t, self.y - self.t)
        high = address >> (self.y + self.t)
        return (high << (self.y - self.t)) | middle

    def address_of(self, module: int, displacement: int) -> int:
        """Inverse mapping, used by tests to verify bijectivity."""
        middle = bit_field(displacement, 0, self.y - self.t)
        high = displacement >> (self.y - self.t)
        section = (module >> self.t) & (self.section_count - 1)
        partial = (high << (self.y + self.t)) | (section << self.y) | (middle << self.t)
        low = (module ^ bit_field(partial, self.s, self.t)) & (
            self.modules_per_section - 1
        )
        return self.reduce(partial | low)

    def inner_period(self, family: int) -> int:
        """Period of the *within-section* module field, ``max(2**(s+t-x), 1)``.

        This is the chunk size used by the Lemma-2 reordering when the
        stride family falls in the low window ``s-N <= x <= s``.
        """
        exponent = self.s + self.t - family
        return 1 << exponent if exponent > 0 else 1

    def describe(self) -> str:
        return f"SectionXorMapping(t={self.t}, s={self.s}, y={self.y})"
