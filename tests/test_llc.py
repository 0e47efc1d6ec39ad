"""LLC bank mapping and the capacity/miss model."""

import numpy as np
import pytest

from repro.arch.iot import IotEntry
from repro.arch.llc import LlcModel
from repro.config import CacheConfig


@pytest.fixture
def llc():
    return LlcModel(64, CacheConfig())


class TestMapping:
    def test_default_static_nuca(self, llc):
        # 1 KiB interleave from physical 0
        assert llc.bank_of(0) == 0
        assert llc.bank_of(1024) == 1
        assert llc.bank_of(64 * 1024) == 0

    def test_iot_override(self, llc):
        llc.iot.install(IotEntry(1 << 30, (1 << 30) + (1 << 20), 64))
        base = 1 << 30
        assert llc.bank_of(base) == 0
        assert llc.bank_of(base + 64) == 1
        assert llc.bank_of(base + 64 * 64) == 0

    def test_vectorized_matches_scalar(self, llc):
        addrs = np.arange(0, 1 << 20, 4096)
        banks = llc.banks_of(addrs)
        for a, b in zip(addrs[:32], banks[:32]):
            assert llc.bank_of(int(a)) == b

    def test_non_power_of_two_default_rejected(self):
        with pytest.raises(ValueError):
            LlcModel(64, CacheConfig(default_interleave=1000))


class TestFootprint:
    def test_register_accumulates(self, llc):
        llc.register_range(0, 1024)
        assert llc.footprint_bytes.sum() == 1024.0
        assert llc.footprint_bytes[0] == 1024.0  # all within bank 0's 1 KiB

    def test_register_spreads_across_banks(self, llc):
        llc.register_range(0, 64 * 1024)  # exactly one 1 KiB chunk per bank
        fp = llc.footprint_bytes
        assert (fp == 1024.0).all()

    def test_unregister_reverses(self, llc):
        llc.register_range(0, 8192)
        llc.unregister_range(0, 8192)
        assert llc.footprint_bytes.sum() == 0.0

    def test_register_by_banks(self, llc):
        llc.register_by_banks(np.array([3, 3, 5]), 64.0)
        fp = llc.footprint_bytes
        assert fp[3] == 128.0 and fp[5] == 64.0

    def test_line_rounding(self, llc):
        llc.register_range(10, 10)  # sub-line range still occupies a line
        assert llc.footprint_bytes.sum() == 64.0


class TestMissModel:
    def test_fits_no_misses(self, llc):
        llc.register_range(0, 64 * 1024)
        assert llc.bank_miss_fraction().max() == 0.0

    def test_over_capacity_misses(self, llc):
        # put 8 MiB on one bank via slots
        llc.register_by_banks(np.array([7]), float(8 << 20))
        frac = llc.bank_miss_fraction()
        assert frac[7] == pytest.approx(1.0 - 1.0 / 8.0)
        assert frac[0] == 0.0

    def test_aggregate_weighted_by_accesses(self, llc):
        llc.register_by_banks(np.array([0]), float(2 << 20))  # 50% miss
        counts = np.zeros(64)
        counts[0] = 100
        counts[1] = 100  # bank 1 never misses
        assert llc.miss_fraction_for_banks(counts) == pytest.approx(0.25)

    def test_reuse_fraction_scales(self, llc):
        llc.register_by_banks(np.array([0]), float(2 << 20))
        counts = np.zeros(64)
        counts[0] = 100
        full = llc.miss_fraction_for_banks(counts, reuse_fraction=1.0)
        half = llc.miss_fraction_for_banks(counts, reuse_fraction=0.5)
        assert half == pytest.approx(full / 2)

    def test_no_accesses(self, llc):
        assert llc.miss_fraction_for_banks(np.zeros(64)) == 0.0
