"""Structural budget primitives for the register-level models.

The paper's hardware argument (Section 5-D) is that the out-of-order
access unit costs roughly the same as an ordered address generator: one
adder per generator, a ``2 * 2**t`` latch file, a small order queue and an
arbiter.  The models in this package *enforce* those budgets — every
adder use and latch write goes through the classes below, which raise
:class:`~repro.errors.HardwareModelError` on any cycle that would need
more hardware than Figures 5 and 6 provide.  The equivalence benches then
demonstrate that, within those budgets, the models emit exactly the
streams the abstract planner promises.
"""

from __future__ import annotations

from repro.errors import HardwareModelError


class BudgetedAdder:
    """An adder usable at most once per cycle.

    Call :meth:`new_cycle` at each cycle boundary; :meth:`add` raises if
    used twice within one cycle.
    """

    def __init__(self, name: str):
        self.name = name
        self._used_this_cycle = False
        self.total_operations = 0

    def new_cycle(self) -> None:
        self._used_this_cycle = False

    def add(self, left: int, right: int) -> int:
        if self._used_this_cycle:
            raise HardwareModelError(
                f"adder {self.name!r} used twice in one cycle — the Figure 5 "
                "datapath has a single adder per generator"
            )
        self._used_this_cycle = True
        self.total_operations += 1
        return left + right


class LatchFile:
    """A bank of labelled latches with occupancy tracking.

    Models the ``2 * 2**t`` latch file of Figure 6 (two banks of ``2**t``;
    this class is one bank).  Writing an occupied latch or reading an
    empty one is a structural hazard and raises.  Occupancy is counted
    as latches are written and read, never by scanning the slots, and
    :attr:`peak_occupancy` is the exact maximum of that count.
    """

    def __init__(self, name: str, size: int):
        self.name = name
        self.size = size
        self._slots: list[tuple[int, int] | None] = [None] * size
        self._occupied = 0
        self.peak_occupancy = 0

    def write(self, label: int, element_index: int, address: int) -> None:
        if not 0 <= label < self.size:
            raise HardwareModelError(
                f"latch bank {self.name!r}: label {label} out of range "
                f"[0, {self.size})"
            )
        if self._slots[label] is not None:
            raise HardwareModelError(
                f"latch bank {self.name!r}: slot {label} overwritten while "
                "occupied — the subsequence pipeline overflowed its budget"
            )
        self._slots[label] = (element_index, address)
        self._occupied += 1
        if self._occupied > self.peak_occupancy:
            self.peak_occupancy = self._occupied

    def read(self, label: int) -> tuple[int, int]:
        if not 0 <= label < self.size:
            raise HardwareModelError(
                f"latch bank {self.name!r}: label {label} out of range "
                f"[0, {self.size})"
            )
        slot = self._slots[label]
        if slot is None:
            raise HardwareModelError(
                f"latch bank {self.name!r}: slot {label} read while empty — "
                "an address was issued before its generator produced it"
            )
        self._slots[label] = None
        self._occupied -= 1
        return slot

    @property
    def occupied(self) -> int:
        return self._occupied

    def is_empty(self) -> bool:
        return self._occupied == 0


class OrderQueue:
    """The queue storing the first subsequence's key order (Figure 6).

    Fixed capacity ``2**t``; filled once during the first subsequence and
    then read cyclically for every later subsequence.
    """

    def __init__(self, size: int):
        self.size = size
        self._keys: list[int] = []
        self._sealed = False

    def push(self, key: int) -> None:
        if self._sealed:
            raise HardwareModelError("order queue written after sealing")
        if len(self._keys) >= self.size:
            raise HardwareModelError(
                f"order queue overflow: capacity {self.size}"
            )
        self._keys.append(key)

    def seal(self) -> None:
        """Freeze the queue after the first subsequence."""
        if len(self._keys) != self.size:
            raise HardwareModelError(
                f"order queue sealed with {len(self._keys)} of {self.size} "
                "entries — the first subsequence did not cover every key"
            )
        self._sealed = True

    def key_at(self, position: int) -> int:
        if not self._sealed:
            raise HardwareModelError("order queue read before sealing")
        return self._keys[position % self.size]

    @property
    def keys(self) -> tuple[int, ...]:
        return tuple(self._keys)
