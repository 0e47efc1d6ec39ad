"""Address arithmetic helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.arch.address import (AddressRange, align_down, align_up,
                                is_power_of_two, lines_spanned)


class TestAlignment:
    def test_align_down(self):
        assert align_down(100, 64) == 64
        assert align_down(64, 64) == 64
        assert align_down(63, 64) == 0

    def test_align_up(self):
        assert align_up(100, 64) == 128
        assert align_up(64, 64) == 64
        assert align_up(0, 64) == 0

    def test_zero_granule_rejected(self):
        with pytest.raises(ValueError):
            align_up(10, 0)
        with pytest.raises(ValueError):
            align_down(10, -4)

    @given(st.integers(0, 1 << 40), st.sampled_from([64, 128, 4096]))
    def test_align_properties(self, addr, g):
        d, u = align_down(addr, g), align_up(addr, g)
        assert d <= addr <= u
        assert d % g == 0 and u % g == 0
        assert u - d in (0, g)


class TestPowerOfTwo:
    def test_powers(self):
        for k in range(20):
            assert is_power_of_two(1 << k)

    def test_non_powers(self):
        for n in (0, -2, 3, 6, 96, 1000):
            assert not is_power_of_two(n)


class TestLinesSpanned:
    def test_within_one_line(self):
        assert lines_spanned(0, 64) == 1
        assert lines_spanned(10, 10) == 1

    def test_straddles(self):
        assert lines_spanned(60, 8) == 2
        assert lines_spanned(0, 65) == 2

    def test_empty(self):
        assert lines_spanned(0, 0) == 0

    @given(st.integers(0, 1 << 30), st.integers(1, 1 << 16))
    def test_count_bound(self, addr, size):
        n = lines_spanned(addr, size)
        # at least ceil(size/64) lines; at most one extra for misalignment
        assert (size + 63) // 64 <= n <= (size + 63) // 64 + 1


class TestAddressRange:
    def test_contains(self):
        r = AddressRange(10, 20)
        assert r.contains(10) and r.contains(19)
        assert not r.contains(20) and not r.contains(9)
        assert r.size == 10

    def test_invalid(self):
        with pytest.raises(ValueError):
            AddressRange(20, 10)

    def test_overlaps(self):
        a = AddressRange(0, 10)
        assert a.overlaps(AddressRange(5, 15))
        assert not a.overlaps(AddressRange(10, 20))  # half-open
