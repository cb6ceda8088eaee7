"""General boolean-matrix (XOR) address mappings over GF(2).

Norton & Melton (1987) characterised the class of linear transformations
``b = H . a`` over GF(2) that give conflict-free power-of-two-stride
access; Rau (1991) used pseudo-random members of the class to spread
arbitrary strides.  This module implements the general class:

* :class:`XorMatrixMapping` — each module bit is the XOR (parity) of an
  arbitrary subset of address bits, given as a bit mask per module bit.
* :func:`gf2_rank` — rank of a set of masks over GF(2), used to check that
  a mapping actually spreads addresses over all modules.
* :class:`PseudoRandomMapping` — a seeded random full-rank member of the
  class, the Rau-style baseline used in the comparison benches.

Both Eq. (1) and Eq. (2) of the paper are members of this class; the
``from_matched``/``from_section`` constructors build them explicitly and
the test-suite checks they agree with the dedicated implementations.
"""

from __future__ import annotations

import random

from repro.errors import ConfigurationError
from repro.mappings.base import DEFAULT_ADDRESS_BITS, AddressMapping


def parity(value: int) -> int:
    """Parity (XOR of all bits) of a non-negative integer."""
    return bin(value).count("1") & 1


def gf2_rank(masks: list[int]) -> int:
    """Rank over GF(2) of the row vectors encoded as integer bit masks."""
    rank = 0
    rows = list(masks)
    while rows:
        pivot = max(rows)
        rows.remove(pivot)
        if pivot == 0:
            continue
        rank += 1
        high_bit = pivot.bit_length() - 1
        rows = [row ^ pivot if row >> high_bit & 1 else row for row in rows]
    return rank


class XorMatrixMapping(AddressMapping):
    """Module bit ``i`` = parity of ``address AND masks[i]``.

    Parameters
    ----------
    masks:
        One bit mask per module bit, least-significant module bit first.
        The rows must be linearly independent over GF(2) so that every
        module number is reachable (otherwise some modules would never be
        used and the memory could not be matched).
    """

    def __init__(self, masks: list[int], address_bits: int = DEFAULT_ADDRESS_BITS):
        super().__init__(len(masks), address_bits)
        space = 1 << address_bits
        for i, mask in enumerate(masks):
            if not 0 <= mask < space:
                raise ConfigurationError(
                    f"mask {i} (={mask:#x}) does not fit in {address_bits} bits"
                )
        if gf2_rank(masks) != len(masks):
            raise ConfigurationError(
                "mask rows are linearly dependent over GF(2); some modules "
                "would be unreachable"
            )
        self.masks = list(masks)

    def cache_token(self) -> tuple:
        # The mask rows fully determine ``module_of``, so the token is
        # exact even for the seeded random subclass.
        return ("xor-matrix", tuple(self.masks), self.address_bits)

    @property
    def field_bits(self) -> int:
        """The highest mask bit + 1.

        ``F`` is linear over GF(2) and reads bit ``k - 1``, so half the
        derived period adds ``2**(k-1)`` to the address mod ``2**k`` and
        flips ``F``: ``2**max(k - x, 0)`` is the minimal period.
        """
        return max(self.masks, default=0).bit_length()

    @classmethod
    def from_matched(
        cls, t: int, s: int, address_bits: int = DEFAULT_ADDRESS_BITS
    ) -> "XorMatrixMapping":
        """The Eq. (1) matched mapping as an explicit matrix."""
        masks = [(1 << i) | (1 << (s + i)) for i in range(t)]
        return cls(masks, address_bits)

    @classmethod
    def from_section(
        cls, t: int, s: int, y: int, address_bits: int = DEFAULT_ADDRESS_BITS
    ) -> "XorMatrixMapping":
        """The Eq. (2) section mapping as an explicit matrix."""
        low = [(1 << i) | (1 << (s + i)) for i in range(t)]
        high = [1 << (y + i) for i in range(t)]
        return cls(low + high, address_bits)

    def module_of(self, address: int) -> int:
        address = self.reduce(address)
        module = 0
        for i, mask in enumerate(self.masks):
            module |= parity(address & mask) << i
        return module

    def displacement_of(self, address: int) -> int:
        """Displacement = address with the matrix's pivot bits removed.

        Gaussian elimination (cached) identifies one pivot address bit per
        module bit; deleting those bits from the address yields a value
        that, together with the module number, reconstructs the address —
        hence a bijection.
        """
        address = self.reduce(address)
        pivots = self._pivot_bits()
        out = 0
        out_pos = 0
        for bit in range(self.address_bits):
            if bit in pivots:
                continue
            out |= ((address >> bit) & 1) << out_pos
            out_pos += 1
        return out

    def _pivot_bits(self) -> frozenset[int]:
        """One pivot address-bit column per mask row (cached)."""
        cached = getattr(self, "_pivot_cache", None)
        if cached is not None:
            return cached
        rows = list(self.masks)
        pivots: set[int] = set()
        for _ in range(len(rows)):
            candidates = [r for r in rows if r != 0]
            if not candidates:
                break
            row = max(candidates)
            rows.remove(row)
            high_bit = row.bit_length() - 1
            pivots.add(high_bit)
            rows = [r ^ row if (r >> high_bit) & 1 else r for r in rows]
        self._pivot_cache = frozenset(pivots)
        return self._pivot_cache

    def describe(self) -> str:
        return f"XorMatrixMapping(m={self.module_bits}, masks={self.masks})"


class PseudoRandomMapping(XorMatrixMapping):
    """A seeded random full-rank XOR mapping (Rau-1991-style baseline).

    Each module bit is the parity of a random subset of the low
    ``window_bits`` address bits, re-drawn until the rows are independent.
    Used by the comparison benches to show how a stride-insensitive
    spreading scheme trades worst-case behaviour for average behaviour.
    """

    def __init__(
        self,
        module_bits: int,
        window_bits: int = 16,
        seed: int = 0,
        address_bits: int = DEFAULT_ADDRESS_BITS,
    ):
        if window_bits < module_bits or window_bits > address_bits:
            raise ConfigurationError(
                f"window_bits must lie in [module_bits, address_bits], got "
                f"{window_bits}"
            )
        rng = random.Random(seed)
        masks: list[int] = []
        attempts = 0
        while True:
            masks = [rng.randrange(1, 1 << window_bits) for _ in range(module_bits)]
            if gf2_rank(masks) == module_bits:
                break
            attempts += 1
            if attempts > 1000:  # pragma: no cover - astronomically unlikely
                raise ConfigurationError("could not draw a full-rank matrix")
        super().__init__(masks, address_bits)
        self.seed = seed
        self.window_bits = window_bits

    def describe(self) -> str:
        return (
            f"PseudoRandomMapping(m={self.module_bits}, "
            f"window={self.window_bits}, seed={self.seed})"
        )
