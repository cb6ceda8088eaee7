"""The Figure 4 control and Figure 5 address-generation datapath.

One address is produced per cycle, in the Section 3.1 subsequence order,
using exactly the resources of Figure 5:

* registers ``A`` (request address) and ``SUB`` (first address of the
  current subsequence), one budgeted adder, and muxes selecting between
  the increments ``sigma * 2**x`` and ``sigma * 2**w`` (the compiler loads
  both, Section 3.1);
* an identical-but-narrower datapath for the vector-register element
  number with increments ``1`` and ``2**(w-x)``;
* three down-counters ``I`` (element in subsequence), ``J`` (subsequence
  in chunk) and ``K`` (chunk).

The emitted ``(element_index, address)`` stream equals
``subsequence_order(...)`` of the abstract layer cycle for cycle — the
equivalence is asserted in the tests and in experiment E15.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.subsequences import SubsequencePlan, build_subsequences
from repro.core.vector import VectorAccess
from repro.errors import HardwareModelError
from repro.hardware.datapath import BudgetedAdder


@dataclass(frozen=True)
class GeneratedRequest:
    """One cycle's output of an address generator."""

    cycle: int
    element_index: int
    address: int


class Figure5AddressGenerator:
    """Cycle-stepped model of the Figure 5 address calculation unit.

    Parameters
    ----------
    plan:
        The subsequence decomposition to walk (carries the vector, ``w``
        and ``t``).
    start_subsequence:
        Global subsequence number to start from (0 = the whole vector).
        The Figure 6 engine uses ``start_subsequence=1`` for its second
        generator, which begins with the second subsequence while the
        first generator covers the first.
    """

    def __init__(self, plan: SubsequencePlan, start_subsequence: int = 0):
        total = plan.chunks * plan.subsequences_per_chunk
        if not 0 <= start_subsequence < total:
            raise HardwareModelError(
                f"start_subsequence {start_subsequence} out of range "
                f"[0, {total})"
            )
        self.plan = plan
        vector = plan.vector
        self.increment_x = vector.stride  # sigma * 2**x
        self.increment_w = plan.intra_step_address  # sigma * 2**w
        self.reg_increment_x = 1
        self.reg_increment_w = plan.intra_step_elements  # 2**(w-x)
        self.adder = BudgetedAdder("address")
        self.reg_adder = BudgetedAdder("register-number")

        # Position the FSM at the first element of start_subsequence.  The
        # hardware reaches this state by the compiler loading SUB/A with
        # the subsequence's first address (one extra instruction); the
        # model computes it directly.
        chunk, sub_in_chunk = divmod(start_subsequence, plan.subsequences_per_chunk)
        first_element = chunk * plan.chunk_elements + sub_in_chunk
        self._sub_address = vector.address_of(first_element)
        self._address = self._sub_address
        self._sub_element = first_element
        self._element = first_element

        self._i = 0  # element position within subsequence (0-based)
        self._j = sub_in_chunk
        self._k = chunk
        self._last_i = plan.elements_per_subsequence - 1
        self._last_j = plan.subsequences_per_chunk - 1
        self._last_k = plan.chunks - 1
        self._cycle = 0
        self._done = False

    @property
    def done(self) -> bool:
        """All remaining subsequences exhausted."""
        return self._done

    def step(self) -> GeneratedRequest:
        """Advance one cycle: emit the current address, update datapath."""
        element_index, address = self.advance()
        return GeneratedRequest(self._cycle, element_index, address)

    def advance(self) -> tuple[int, int]:
        """Advance one cycle and return its ``(element_index, address)``.

        The record-free form of :meth:`step`: the same datapath, with
        both adders' one-add-per-cycle budgets checked on every cycle,
        but no :class:`GeneratedRequest` is built.
        """
        if self._done:
            raise HardwareModelError("address generator stepped after done")
        self._cycle += 1
        self.adder.new_cycle()
        self.reg_adder.new_cycle()
        emitted = (self._element, self._address)

        if self._i < self._last_i:
            # Inner loop of Figure 4: A = A + sigma * 2**w.
            self._address = self.adder.add(self._address, self.increment_w)
            self._element = self.reg_adder.add(
                self._element, self.reg_increment_w
            )
            self._i += 1
        elif self._j < self._last_j:
            # Subsequence boundary: SUB = SUB + sigma*2**x || A = SUB',
            # one adder output feeding both registers.
            step = self.adder.add(self._sub_address, self.increment_x)
            self._sub_address = step
            self._address = step
            reg_step = self.reg_adder.add(self._sub_element, self.reg_increment_x)
            self._sub_element = reg_step
            self._element = reg_step
            self._i = 0
            self._j += 1
        elif self._k < self._last_k:
            # Chunk boundary: SUB = A + sigma*2**x || A = A + sigma*2**x.
            step = self.adder.add(self._address, self.increment_x)
            self._sub_address = step
            self._address = step
            reg_step = self.reg_adder.add(self._element, self.reg_increment_x)
            self._sub_element = reg_step
            self._element = reg_step
            self._i = 0
            self._j = 0
            self._k += 1
        else:
            self._done = True
        return emitted

    def run(self) -> list[GeneratedRequest]:
        """Emit the full remaining stream."""
        out: list[GeneratedRequest] = []
        while not self._done:
            out.append(self.step())
        return out


def ordered_generator_stream(vector: VectorAccess) -> list[GeneratedRequest]:
    """The baseline in-order address generator: ``A += stride`` per cycle.

    Provided for the complexity comparison of Section 5-D: the ordered
    unit is the degenerate ``w = x`` case of Figure 5 (one adder, one
    register, no SUB path).
    """
    adder = BudgetedAdder("ordered-address")
    address = vector.base
    out: list[GeneratedRequest] = []
    for index in range(vector.length):
        adder.new_cycle()
        out.append(GeneratedRequest(index + 1, index, address))
        if index + 1 < vector.length:
            address = adder.add(address, vector.stride)
    return out


def natural_order_stream(
    vector: VectorAccess, w: int, t: int
) -> list[GeneratedRequest]:
    """Convenience: full Figure 5 stream for ``vector`` against ``w``."""
    return Figure5AddressGenerator(build_subsequences(vector, w, t)).run()
