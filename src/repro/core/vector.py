"""Vector access specification: base address, constant stride, fixed length.

The paper's access pattern (Section 2): the ``i``-th element of the vector
has address ``A1 + S * (i - 1)``; we use 0-based element indices, so
element ``i`` has address ``base + stride * i``.  The vector can start at
any address, and the interesting lengths are powers of two equal to the
machine's vector-register length ``L = 2**lambda``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.families import decompose_stride
from repro.errors import VectorSpecError
from repro.mappings.base import is_power_of_two


def check_integer(name: str, value) -> None:
    """Refuse an access field that is not an integer, a ``bool``
    included, with a :class:`~repro.errors.VectorSpecError` naming it.

    An access is an exact plan-cache key, and ``12.0 == 12`` and
    ``True == 1`` would share an entry with the integer they equal.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise VectorSpecError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class VectorAccess:
    """A single constant-stride vector access request.

    Attributes
    ----------
    base:
        Address of element 0 (the paper's ``A1``); any integer is legal,
        negative bases wrap in the machine address space.
    stride:
        Constant element separation ``S = sigma * 2**x`` (sigma odd,
        non-zero; negative strides are allowed).
    length:
        Number of elements ``L >= 1``.
    """

    base: int
    stride: int
    length: int

    def __post_init__(self) -> None:
        check_integer("base", self.base)
        check_integer("stride", self.stride)
        check_integer("length", self.length)
        if self.stride == 0:
            raise VectorSpecError(
                "stride must be non-zero; a zero-stride access touches a "
                "single address and is not a vector in the paper's sense"
            )
        if self.length < 1:
            raise VectorSpecError(f"length must be >= 1, got {self.length}")

    @property
    def sigma(self) -> int:
        """Odd part of the stride (may be negative)."""
        return decompose_stride(self.stride)[0]

    @property
    def family(self) -> int:
        """Family exponent ``x`` of the stride (``S = sigma * 2**x``)."""
        return decompose_stride(self.stride)[1]

    @property
    def lambda_exponent(self) -> int:
        """``lambda`` with ``L = 2**lambda``.

        Raises
        ------
        VectorSpecError
            If the length is not a power of two (short vectors go through
            :mod:`repro.core.shortvec` instead).
        """
        if not is_power_of_two(self.length):
            raise VectorSpecError(
                f"length {self.length} is not a power of two; use the "
                "short-vector planner for general lengths"
            )
        return self.length.bit_length() - 1

    def address_of(self, index: int) -> int:
        """Address of element ``index`` (0-based, unreduced)."""
        if not 0 <= index < self.length:
            raise VectorSpecError(
                f"element index {index} out of range for length {self.length}"
            )
        return self.base + self.stride * index

    def addresses(self) -> list[int]:
        """All element addresses in element order (unreduced)."""
        return [self.base + self.stride * i for i in range(self.length)]

    def slice(self, start: int, count: int) -> "VectorAccess":
        """Sub-vector of ``count`` elements starting at element ``start``.

        Used by the short-vector planner (Section 5-C) and by strip-mining
        to carve register-length pieces out of a long vector.
        """
        if start < 0 or count < 1 or start + count > self.length:
            raise VectorSpecError(
                f"slice [{start}, {start + count}) out of range for length "
                f"{self.length}"
            )
        return VectorAccess(self.base + self.stride * start, self.stride, count)

    def __str__(self) -> str:
        return f"vector(base={self.base}, stride={self.stride}, L={self.length})"
