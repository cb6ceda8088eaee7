"""Abstract interface for memory-module address mappings.

The memory of the paper's machine is organised as ``M = 2**m`` modules.  An
*address mapping* transforms a one-dimensional address ``A`` into the
two-dimensional space ``(module, displacement)``.  Conflicts depend only on
the module-number component ``F`` (Section 2 of the paper), so that
component is the centre of this interface; the displacement component is
provided so the mapping is a real bijection and memory contents can be
stored and retrieved in simulations.

All mappings operate on an address space of ``2**address_bits`` words and
treat addresses modulo that size, which mirrors the fixed-width address
registers of the hardware in Figures 5 and 6.

A mapping whose module number reads only the low ``k`` address bits
declares ``k`` as :attr:`AddressMapping.field_bits`.  Three facts derive
from that one declaration: the period of every stride family (the
address residue ``A mod 2**k`` of ``A + i*S`` cycles every
``2**(k-x)`` elements), :meth:`~AddressMapping.module_sequence`, which
computes one period and tiles it, and :meth:`~AddressMapping.modules_of`,
which maps each distinct residue once.  A mapping that declares nothing
keeps the element-by-element path and the sampled
:func:`empirical_period`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from math import gcd
from typing import Iterable

from repro.errors import ConfigurationError

#: Default width of the machine address registers, in bits.
DEFAULT_ADDRESS_BITS = 32


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive integral power of two."""
    return value > 0 and (value & (value - 1)) == 0


def bit_field(value: int, low: int, width: int) -> int:
    """Extract ``width`` bits of ``value`` starting at bit ``low``.

    ``bit_field(0b110100, 2, 3)`` is ``0b101``.
    """
    if low < 0 or width < 0:
        raise ValueError("bit_field requires non-negative low and width")
    return (value >> low) & ((1 << width) - 1)


class AddressMapping(ABC):
    """Module-number component ``F`` of an address mapping.

    Parameters
    ----------
    module_bits:
        ``m`` such that the memory has ``M = 2**m`` modules.
    address_bits:
        Width of the address space; addresses are reduced modulo
        ``2**address_bits`` before mapping.
    """

    def __init__(self, module_bits: int, address_bits: int = DEFAULT_ADDRESS_BITS):
        if module_bits < 0:
            raise ConfigurationError(f"module_bits must be >= 0, got {module_bits}")
        if address_bits < module_bits or address_bits <= 0:
            raise ConfigurationError(
                f"address_bits ({address_bits}) must be positive and at least "
                f"module_bits ({module_bits})"
            )
        self.module_bits = module_bits
        self.address_bits = address_bits
        self._address_mask = (1 << address_bits) - 1

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # A new address function must declare its own bits: a subclass
        # that overrides ``module_of`` does not inherit its parent's.
        if "module_of" in vars(cls) and "field_bits" not in vars(cls):
            cls.field_bits = None

    @property
    def field_bits(self) -> int | None:
        """How many low address bits the module number reads, or None.

        A mapping that declares ``k`` promises ``F(A) == F(A mod 2**k)``
        for every address ``A``; :meth:`period`,
        :meth:`module_sequence` and :meth:`modules_of` all derive from
        it.  The base class declares nothing.
        """
        return None

    @property
    def module_count(self) -> int:
        """Number of memory modules ``M = 2**m``."""
        return 1 << self.module_bits

    @property
    def address_space(self) -> int:
        """Size of the address space, ``2**address_bits``."""
        return 1 << self.address_bits

    def reduce(self, address: int) -> int:
        """Wrap ``address`` into the machine's address space."""
        return address & self._address_mask

    @abstractmethod
    def module_of(self, address: int) -> int:
        """Return the module number ``b = F(A)`` for ``address``."""

    @abstractmethod
    def displacement_of(self, address: int) -> int:
        """Return the displacement (row inside the module) for ``address``.

        Together with :meth:`module_of` this must form a bijection of the
        address space onto ``module x displacement``.
        """

    def map(self, address: int) -> tuple[int, int]:
        """Return the pair ``(module, displacement)`` for ``address``."""
        return self.module_of(address), self.displacement_of(address)

    def period(self, family: int) -> int:
        """Period ``Px`` of the canonical temporal distribution.

        ``family`` is the exponent ``x`` of a stride ``sigma * 2**x`` with
        ``sigma`` odd.  With :attr:`field_bits` ``k`` declared it is
        ``2**max(k - x, 0)``: the residue ``A mod 2**k`` steps by
        ``sigma * 2**x`` and returns after exactly that many elements.
        This is each paper closed form (Sections 3 and 4.1) and, for a
        linear mapping that reads bit ``k - 1``, the minimal period.  An
        undeclared mapping falls back to :func:`empirical_period`.
        """
        bits = self.field_bits
        if bits is None:
            return empirical_period(self, stride=1 << family, start=0)
        return 1 << max(bits - family, 0)

    def module_sequence(self, start: int, stride: int, length: int) -> list[int]:
        """Module numbers of ``length`` elements from ``start`` by ``stride``.

        This is the canonical temporal distribution of the vector
        ``(start, stride, length)`` under this mapping.  With
        :attr:`field_bits` declared, one period is computed and tiled;
        otherwise every element is mapped.
        """
        start = self.reduce(start)
        bits = self.field_bits
        span = length
        if bits is not None:
            # The residue mod 2**k repeats every 2**k / gcd(S, 2**k)
            # elements: period(family) for a non-zero stride.
            span = min(length, (1 << bits) // gcd(stride, 1 << bits))
        head = [
            self.module_of(self.reduce(start + i * stride)) for i in range(span)
        ]
        if span == length:
            return head
        return (head * -(-length // span))[:length]

    def modules_of(self, addresses: Iterable[int]) -> list[int]:
        """Module number of each raw address, in order.

        With :attr:`field_bits` ``k`` declared, :meth:`module_of` runs
        once per distinct residue ``A mod 2**k``; otherwise once per
        address.
        """
        bits = self.field_bits
        if bits is None:
            return [self.module_of(self.reduce(address)) for address in addresses]
        mask = (1 << bits) - 1
        table: dict[int, int] = {}
        modules = []
        for address in addresses:
            residue = address & mask
            module = table.get(residue)
            if module is None:
                module = table[residue] = self.module_of(residue)
            modules.append(module)
        return modules

    def cache_token(self) -> tuple | None:
        """Hashable identity of this mapping's address function, or None.

        Two mappings of the same concrete type whose tokens compare
        equal must map every address identically — that is the contract
        the :mod:`repro.core.planner` plan cache keys on (it always
        pairs the token with ``type(self)``, so a subclass that changes
        ``module_of`` without overriding the token still gets its own
        cache entries).  The base implementation returns ``None``:
        mappings without a declared identity are never cached.
        """
        return None

    def describe(self) -> str:
        """One-line human-readable description of the mapping."""
        return f"{type(self).__name__}(m={self.module_bits})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


def empirical_period(
    mapping: AddressMapping, stride: int, start: int = 0, limit: int | None = None
) -> int:
    """Measure the period of the module sequence ``F(start + i*stride)``.

    The period is the smallest ``p > 0`` such that the module of element
    ``i + p`` equals the module of element ``i`` for every ``i``.  For the
    XOR-based mappings in this package the sequence is strictly periodic
    and the period divides ``2**address_bits / gcd(stride, 2**address_bits)``,
    so the search below always terminates.

    This samples: it compares at most 4096 elements, taken one by one
    through ``module_of`` (never through a declared period, which would
    confirm itself), so a mapping that reads address bits above about
    bit 12 can look periodic inside the sample.  It serves only mappings
    that declare no :attr:`AddressMapping.field_bits`.

    Parameters
    ----------
    limit:
        Upper bound for the search; defaults to the address-space size
        divided by the power-of-two part of the stride, which is an exact
        bound for linear mappings.
    """
    from math import gcd

    space = mapping.address_space
    if limit is None:
        limit = space // gcd(stride % space or space, space)
        limit = max(limit, 1)
    # A candidate period must make the whole orbit repeat; for the affine
    # sequence A + i*S the module sequence repeats with period p iff
    # F(A + (i+p)S) == F(A + iS) for all i in one candidate span.
    candidates = [p for p in _divisors_pow2(limit)]
    start = mapping.reduce(start)
    sample = [
        mapping.module_of(mapping.reduce(start + i * stride))
        for i in range(min(4 * limit, 4096))
    ]
    for p in candidates:
        if p >= len(sample):
            break
        if all(sample[i] == sample[i % p] for i in range(len(sample))):
            return p
    return limit


def _divisors_pow2(limit: int) -> list[int]:
    """Powers of two up to and including ``limit`` (itself a power of two)."""
    out = []
    p = 1
    while p <= limit:
        out.append(p)
        p <<= 1
    return out
