"""Row-rotation skewing schemes.

Skewing predates the XOR schemes (Budnik & Kuck 1971, Lawrie 1975): the
address space is viewed as rows of ``2**c`` consecutive words and row ``r``
is rotated by ``r * d`` module positions.  The module number is

    ``b = (a + d * (a >> c)) mod M``

The paper's conclusions note that all its results can be achieved with
skewing by "selecting in a suitable manner ... the number of rows to
rotate": with ``c = s`` and odd ``d`` the family ``x = s`` is conflict-free
for ordered access, exactly like Eq. (1), and the out-of-order window of
Theorem 1 applies unchanged (the planner in :mod:`repro.core.planner` is
mapping-agnostic and verified against this scheme in the tests).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.mappings.base import DEFAULT_ADDRESS_BITS, AddressMapping


class SkewedMapping(AddressMapping):
    """Module = ``(a + d * (a >> s)) mod M`` — rotate each row of ``2**s``.

    Parameters
    ----------
    module_bits:
        ``m``; the memory has ``M = 2**m`` modules.
    s:
        Row size is ``2**s`` words; rows are rotated cumulatively.
    distance:
        Rotation distance ``d`` per row; must be odd so that stepping a
        stride of family ``x = s`` cycles through all modules.
    """

    def __init__(
        self,
        module_bits: int,
        s: int,
        distance: int = 1,
        address_bits: int = DEFAULT_ADDRESS_BITS,
    ):
        super().__init__(module_bits, address_bits)
        if s < module_bits:
            raise ConfigurationError(
                f"row exponent s must be >= m for an invertible skew "
                f"(s={s}, m={module_bits}); smaller rows make two addresses "
                "share one (module, displacement) cell"
            )
        if distance % 2 == 0:
            raise ConfigurationError(
                f"rotation distance must be odd for conflict-free family x=s, "
                f"got {distance}"
            )
        self.s = s
        self.distance = distance

    def cache_token(self) -> tuple:
        return (
            "skewed", self.module_bits, self.s, self.distance,
            self.address_bits,
        )

    @property
    def field_bits(self) -> int:
        """Bits up to ``s + m``, so ``Px = max(2**(s+m-x), 1)``.

        The module number depends only on ``a mod 2**(s+m)`` (the low bits
        directly and the row number modulo ``2**m``), and that residue
        cycles with period ``2**(s+m-x)`` for stride family ``x``.
        """
        return self.s + self.module_bits

    def module_of(self, address: int) -> int:
        address = self.reduce(address)
        return (address + self.distance * (address >> self.s)) & (
            self.module_count - 1
        )

    def displacement_of(self, address: int) -> int:
        """Displacement = the row number, ``a >> s`` combined with the
        within-row position above the module bits.

        For ``s >= m`` the pair ``(module, a >> m)`` is already a
        bijection; we use ``a >> m`` uniformly, which is bijective because
        the module number determines the low ``m`` bits once ``a >> m``
        (hence the rotation offset) is known.
        """
        return self.reduce(address) >> self.module_bits

    def describe(self) -> str:
        return (
            f"SkewedMapping(m={self.module_bits}, s={self.s}, d={self.distance})"
        )
