"""ArrayHandle / AddressView addressing semantics."""

import numpy as np
import pytest

from repro.core.api import AddressView, ArrayHandle, alloc_plain_array
from repro.machine import Machine


@pytest.fixture
def machine():
    return Machine()


class TestArrayHandle:
    def test_addr_of_stride(self, machine):
        h = ArrayHandle(machine, 0x1000, 4, 10, stride=8)
        assert list(h.addr_of(np.array([0, 1, 2]))) == [0x1000, 0x1008, 0x1010]

    def test_index_bounds(self, machine):
        h = alloc_plain_array(machine, 4, 10)
        with pytest.raises(IndexError):
            h.addr_of(np.array([10]))
        with pytest.raises(IndexError):
            h.addr_of(np.array([-1]))

    def test_size_bytes_with_padding(self, machine):
        h = ArrayHandle(machine, 0x1000, 4, 10, stride=64)
        assert h.size_bytes == 9 * 64 + 4
        assert h.stride != h.elem_size

    def test_stride_smaller_than_elem_rejected(self, machine):
        with pytest.raises(ValueError):
            ArrayHandle(machine, 0x1000, 8, 10, stride=4)

    def test_banks_consistent_with_machine(self, machine):
        h = alloc_plain_array(machine, 4, 1024)
        i = np.arange(0, 1024, 100)
        assert (h.banks(i) == machine.banks_of(h.addr_of(i))).all()

    def test_lines_of(self, machine):
        h = alloc_plain_array(machine, 4, 64, align=64)
        lines = h.lines_of(np.array([0, 15, 16]))
        assert lines[0] == lines[1]
        assert lines[2] == lines[0] + 1

    def test_bank_of_one(self, machine):
        h = alloc_plain_array(machine, 4, 100)
        assert h.bank_of_one(0) == int(h.all_banks()[0])


class TestAddressView:
    def test_addr_lookup(self, machine):
        view = AddressView(machine, np.array([0x100, 0x900, 0x200]), 4)
        assert list(view.addr_of(np.array([2, 0]))) == [0x200, 0x100]
        assert view.num_elem == 3

    def test_banks_via_machine(self, machine):
        base = machine.malloc(1 << 16)
        addrs = base + np.arange(0, 1 << 16, 1024)
        view = AddressView(machine, addrs, 4)
        assert (view.all_banks() == machine.banks_of(addrs)).all()

    @pytest.mark.parametrize("idx", [[-1], [0, 64]])
    def test_index_bounds(self, machine, idx):
        """Out-of-range indices raise like ArrayHandle's: a negative one
        does not wrap to the last element."""
        view = AddressView(machine, machine.malloc(1 << 16)
                           + np.arange(0, 1 << 16, 1024), 4)
        with pytest.raises(IndexError, match="out of range"):
            view.addr_of(idx)
        with pytest.raises(IndexError, match="out of range"):
            view.banks(idx)
