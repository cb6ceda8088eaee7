"""Memory-subsystem configuration (the Figure 2 machine).

Bundles the geometry of the multi-module memory: the address mapping, the
service-time ratio ``T = 2**t``, and the per-module buffer depths ``q``
(input) and ``q'`` (output).  The paper's two headline configurations are
provided as constructors:

* :meth:`MemoryConfig.matched` — ``M = T`` with the Eq. (1) mapping;
* :meth:`MemoryConfig.unmatched` — ``M = T**2`` with the Eq. (2) mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.mappings.base import AddressMapping
from repro.mappings.linear import MatchedXorMapping
from repro.mappings.section import SectionXorMapping


@dataclass(frozen=True)
class MemoryConfig:
    """Geometry and buffering of the multi-module memory.

    Attributes
    ----------
    mapping:
        Module-number component of the address mapping.
    t:
        Module service time is ``T = 2**t`` processor cycles.
    input_capacity:
        ``q`` — waiting slots per module (requests that have crossed the
        address bus but not yet entered service).  The processor stalls
        when the target module's input queue is full.  The conflict-free
        scheme of Section 3.2 needs only ``q = 1``.
    output_capacity:
        ``q'`` — completed results a module can hold while waiting for
        the single result bus.  Section 3.1's bounded-latency claim uses
        ``q = 2, q' = 1``.
    ports:
        ``k`` — address/result bus pairs (the Section 6 "several memory
        ports" outlook).  Each port carries one request and one result
        per cycle; the classic Figure 2 machine is ``ports = 1``.
    """

    mapping: AddressMapping
    t: int
    input_capacity: int = 1
    output_capacity: int = 1
    ports: int = 1

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ConfigurationError(f"t must be >= 0, got {self.t}")
        if self.mapping.module_bits < self.t:
            raise ConfigurationError(
                f"m={self.mapping.module_bits} modules cannot sustain one "
                f"access per cycle with T=2**{self.t} (need m >= t)"
            )
        if self.input_capacity < 1:
            raise ConfigurationError(
                f"input_capacity must be >= 1 (the module's request "
                f"register), got {self.input_capacity}"
            )
        if self.output_capacity < 1:
            raise ConfigurationError(
                f"output_capacity must be >= 1, got {self.output_capacity}"
            )
        if not isinstance(self.ports, int) or isinstance(self.ports, bool):
            raise ConfigurationError(
                f"memory config field 'ports' must be an integer, got "
                f"{self.ports!r}"
            )
        if self.ports < 1:
            raise ConfigurationError(
                f"memory config field 'ports' must be >= 1, got {self.ports}"
            )
        if self.ports > self.mapping.module_count:
            raise ConfigurationError(
                f"memory config field 'ports' ({self.ports}) cannot exceed "
                f"the module count M={self.mapping.module_count}: each port "
                "needs at least one module to talk to"
            )

    @property
    def service_ratio(self) -> int:
        """``T = 2**t``."""
        return 1 << self.t

    @property
    def module_count(self) -> int:
        """``M = 2**m``."""
        return self.mapping.module_count

    @property
    def is_matched(self) -> bool:
        """True when ``M == T`` (Section 3's case)."""
        return self.module_count == self.service_ratio

    @property
    def conflict_free_is_minimal(self) -> bool:
        """Whether a conflict-free access takes exactly ``T + L + 1`` cycles.

        With ``T = 1`` every module sequence is conflict-free by the
        Section 2 definition, yet back-to-back requests to one module
        stall on a one-slot input queue; ``T >= 2`` or ``q >= 2``
        restores the bound.  ``repro check`` (CF101) and the closed form
        of :func:`repro.scenarios.simulate` share this predicate.
        """
        return self.service_ratio >= 2 or self.input_capacity >= 2

    @classmethod
    def matched(
        cls,
        t: int,
        s: int,
        input_capacity: int = 1,
        output_capacity: int = 1,
        address_bits: int = 32,
        ports: int = 1,
    ) -> "MemoryConfig":
        """Matched memory with the Eq. (1) XOR mapping."""
        return cls(
            MatchedXorMapping(t, s, address_bits),
            t,
            input_capacity,
            output_capacity,
            ports,
        )

    @classmethod
    def unmatched(
        cls,
        t: int,
        s: int,
        y: int,
        input_capacity: int = 1,
        output_capacity: int = 1,
        address_bits: int = 32,
        ports: int = 1,
    ) -> "MemoryConfig":
        """Unmatched memory (``M = T**2``) with the Eq. (2) mapping."""
        return cls(
            SectionXorMapping(t, s, y, address_bits),
            t,
            input_capacity,
            output_capacity,
            ports,
        )

    def describe(self) -> str:
        ports = f", ports={self.ports}" if self.ports != 1 else ""
        return (
            f"MemoryConfig(M={self.module_count}, T={self.service_ratio}, "
            f"q={self.input_capacity}, q'={self.output_capacity}"
            f"{ports}, mapping={self.mapping.describe()})"
        )
