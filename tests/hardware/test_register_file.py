"""Tests for the vector register files (Section 5-D)."""

from __future__ import annotations

import pytest

from repro.errors import RegisterFileError
from repro.hardware.register_file import (
    FifoVectorRegister,
    RandomAccessVectorRegister,
    VectorRegisterFile,
)


class TestRandomAccessRegister:
    def test_out_of_order_writes_allowed(self):
        register = RandomAccessVectorRegister(4)
        for index in (2, 0, 3, 1):
            register.write(index, float(index))
        assert register.as_list() == [0.0, 1.0, 2.0, 3.0]

    def test_full_flag(self):
        register = RandomAccessVectorRegister(2)
        assert not register.full
        register.write(0, 1.0)
        assert not register.full
        register.write(1, 2.0)
        assert register.full

    def test_read_before_write_raises(self):
        register = RandomAccessVectorRegister(2)
        with pytest.raises(RegisterFileError):
            register.read(0)

    def test_bounds(self):
        register = RandomAccessVectorRegister(2)
        with pytest.raises(RegisterFileError):
            register.write(2, 0.0)
        with pytest.raises(RegisterFileError):
            register.read(-1)

    def test_as_list_requires_full(self):
        register = RandomAccessVectorRegister(2)
        register.write(0, 1.0)
        with pytest.raises(RegisterFileError):
            register.as_list()

    def test_clear(self):
        register = RandomAccessVectorRegister(2)
        register.write(0, 1.0)
        register.write(1, 2.0)
        register.clear()
        assert not register.full

    def test_invalid_length(self):
        with pytest.raises(RegisterFileError):
            RandomAccessVectorRegister(0)

    def test_prefix_reads_the_first_elements(self):
        register = RandomAccessVectorRegister(4)
        register.set([1.0, 2.0, 3.0])
        assert register.prefix(2) == [1.0, 2.0]
        assert register.prefix(3) == [1.0, 2.0, 3.0]

    def test_prefix_raises_on_the_first_missing_element(self):
        register = RandomAccessVectorRegister(4)
        register.set([1.0, 2.0])
        with pytest.raises(
            RegisterFileError, match="^element 2 read before it was written$"
        ):
            register.prefix(4)
        register.set([1.0] * 4)
        with pytest.raises(RegisterFileError, match="^element 4 out of range"):
            register.prefix(5)

    def test_set_clears_the_rest(self):
        register = RandomAccessVectorRegister(3)
        register.set([1.0, 2.0, 3.0])
        register.set([9.0])
        assert register.valid_count == 1
        with pytest.raises(RegisterFileError):
            register.read(1)
        with pytest.raises(RegisterFileError, match="out of range"):
            register.set([0.0] * 4)


class TestFifoRegister:
    def test_in_order_writes(self):
        register = FifoVectorRegister(3)
        for index in range(3):
            register.write(index, float(index))
        assert register.as_list() == [0.0, 1.0, 2.0]

    def test_out_of_order_write_rejected(self):
        """The paper's point: OOO return needs a random-access register."""
        register = FifoVectorRegister(4)
        register.write(0, 0.0)
        with pytest.raises(RegisterFileError):
            register.write(2, 2.0)

    def test_overflow(self):
        register = FifoVectorRegister(1)
        register.write(0, 0.0)
        with pytest.raises(RegisterFileError):
            register.write(1, 1.0)

    def test_read_unavailable(self):
        register = FifoVectorRegister(2)
        register.write(0, 5.0)
        assert register.read(0) == 5.0
        with pytest.raises(RegisterFileError):
            register.read(1)


class TestRegisterFile:
    def test_register_lookup(self):
        file = VectorRegisterFile(4, 8)
        file.register(0).write(3, 1.5)
        assert file.register(0).read(3) == 1.5

    def test_missing_register(self):
        file = VectorRegisterFile(2, 8)
        with pytest.raises(RegisterFileError):
            file.register(2)

    def test_load_values(self):
        file = VectorRegisterFile(2, 4)
        file.load_values(1, [1.0, 2.0, 3.0, 4.0])
        assert file.register(1).as_list() == [1.0, 2.0, 3.0, 4.0]

    def test_invalid_count(self):
        with pytest.raises(RegisterFileError):
            VectorRegisterFile(0, 4)


class TestOutOfOrderStreamIntoFifo:
    def test_conflict_free_stream_breaks_fifo(self, matched_planner):
        """Feeding a Section 3.2 stream into a FIFO register fails."""
        from repro.core.vector import VectorAccess

        plan = matched_planner.plan(VectorAccess(16, 12, 128))
        register = FifoVectorRegister(128)
        with pytest.raises(RegisterFileError):
            for index, _address in plan.request_stream():
                register.write(index, float(index))
