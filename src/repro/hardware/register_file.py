"""Vector register files: random-access vs FIFO (Section 5-D).

Out-of-order element return requires the vector register to be written by
element index — a random-access organisation — whereas ordered access can
use a simple FIFO.  Both are modelled so the processor layer (and the
tests) can demonstrate the paper's point: feeding an out-of-order result
stream into a FIFO register corrupts element placement and is rejected.
"""

from __future__ import annotations

from repro.errors import RegisterFileError


class RandomAccessVectorRegister:
    """A vector register writable at any element position."""

    def __init__(self, length: int):
        if length < 1:
            raise RegisterFileError(f"register length must be >= 1, got {length}")
        self.length = length
        self._values: list[float | None] = [None] * length

    def write(self, index: int, value: float) -> None:
        if not 0 <= index < self.length:
            raise RegisterFileError(
                f"element {index} out of range for register of length "
                f"{self.length}"
            )
        self._values[index] = value

    def read(self, index: int) -> float:
        if not 0 <= index < self.length:
            raise RegisterFileError(
                f"element {index} out of range for register of length "
                f"{self.length}"
            )
        value = self._values[index]
        if value is None:
            raise RegisterFileError(
                f"element {index} read before it was written"
            )
        return value

    def prefix(self, length: int) -> list[float]:
        """Elements ``0..length-1``, raising as :meth:`read` would for the
        first of them that is missing."""
        values = self._values[:length]
        if None in values:
            self.read(values.index(None))  # raises: not written
        if length > self.length:
            self.read(self.length)  # raises: out of range
        return values  # type: ignore[return-value]  # no None left

    def set(self, values) -> None:
        """Replace the contents: ``values`` fill elements ``0..n-1`` and
        every later element is cleared."""
        values = list(values)
        if len(values) > self.length:
            self.write(self.length, values[self.length])  # raises
        self._values = values + [None] * (self.length - len(values))

    @property
    def full(self) -> bool:
        """All elements present (the decoupled execute unit's ready bit)."""
        return all(value is not None for value in self._values)

    @property
    def valid_count(self) -> int:
        return sum(1 for value in self._values if value is not None)

    def as_list(self) -> list[float]:
        """The complete contents; raises if any element is missing."""
        if not self.full:
            raise RegisterFileError(
                f"register incomplete: {self.valid_count}/{self.length} "
                "elements written"
            )
        return [value for value in self._values if value is not None]

    def clear(self) -> None:
        self._values = [None] * self.length


class FifoVectorRegister:
    """A FIFO-organised register: elements must arrive in order.

    Adequate for ordered access (Section 5-D); raises on any
    out-of-order write, demonstrating why the out-of-order scheme needs
    the random-access organisation.
    """

    def __init__(self, length: int):
        if length < 1:
            raise RegisterFileError(f"register length must be >= 1, got {length}")
        self.length = length
        self._values: list[float] = []

    def write(self, index: int, value: float) -> None:
        expected = len(self._values)
        if index != expected:
            raise RegisterFileError(
                f"FIFO register expected element {expected} next but "
                f"received element {index}; out-of-order return requires a "
                "random-access register"
            )
        if expected >= self.length:
            raise RegisterFileError("FIFO register overflow")
        self._values.append(value)

    def read(self, index: int) -> float:
        if not 0 <= index < len(self._values):
            raise RegisterFileError(
                f"element {index} not yet available in FIFO register"
            )
        return self._values[index]

    @property
    def full(self) -> bool:
        return len(self._values) == self.length

    def as_list(self) -> list[float]:
        if not self.full:
            raise RegisterFileError(
                f"register incomplete: {len(self._values)}/{self.length} "
                "elements written"
            )
        return list(self._values)


class VectorRegisterFile:
    """A named set of random-access vector registers (V0, V1, ...)."""

    def __init__(self, count: int, length: int):
        if count < 1:
            raise RegisterFileError(f"register count must be >= 1, got {count}")
        self.count = count
        self.length = length
        self._registers = [RandomAccessVectorRegister(length) for _ in range(count)]

    def register(self, number: int) -> RandomAccessVectorRegister:
        if not 0 <= number < self.count:
            raise RegisterFileError(
                f"register V{number} does not exist (file has {self.count})"
            )
        return self._registers[number]

    def load_values(self, number: int, values) -> None:
        """Fill a register wholesale (test/benchmark convenience)."""
        self.register(number).set(values)
