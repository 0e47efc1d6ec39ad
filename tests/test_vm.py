"""Virtual memory: regions, translation, interleave pools."""

import numpy as np
import pytest

from repro.arch.iot import InterleaveOverrideTable
from repro.vm.layout import AddressSpace, LinearRegion, PagedRegion
from repro.vm.pools import POOL_INTERLEAVES, InterleavePool, PoolManager


class TestLinearRegion:
    def test_translate(self):
        r = LinearRegion("x", 0x1000, 0x9000, 0x100)
        assert r.translate(np.array([0x1010]))[0] == 0x9010


class TestPagedRegion:
    def test_map_and_translate(self):
        r = PagedRegion("p", 0x10000, 1 << 20)
        r.map_page(0, 0x500000)
        r.map_page(2, 0x700000)
        out = r.translate(np.array([0x10004, 0x12008]))
        assert out[0] == 0x500004
        assert out[1] == 0x700008

    def test_unmapped_raises(self):
        r = PagedRegion("p", 0x10000, 1 << 20)
        r.map_page(0, 0x500000)
        with pytest.raises(RuntimeError):
            r.translate(np.array([0x10000 + 4096]))

    def test_grows_lazily(self):
        r = PagedRegion("p", 0, 1 << 40)  # 1 TiB reservation, tiny table
        assert r._frames.size == 0
        r.map_page(100, 0x1000)
        assert r._frames[100] == 0x1000
        assert r._frames.size <= 5000

    def test_unaligned_frame_rejected(self):
        r = PagedRegion("p", 0, 1 << 20)
        with pytest.raises(ValueError):
            r.map_page(0, 0x1001)

    def test_page_index_bounds(self):
        r = PagedRegion("p", 0, 1 << 20)
        with pytest.raises(ValueError):
            r.map_page(1 << 20, 0x1000)


class TestAddressSpace:
    def test_dispatch_between_regions(self):
        sp = AddressSpace()
        sp.add(LinearRegion("a", 0x1000, 0x100000, 0x1000))
        sp.add(LinearRegion("b", 0x8000, 0x200000, 0x1000))
        out = sp.translate(np.array([0x1004, 0x8008]))
        assert out[0] == 0x100004
        assert out[1] == 0x200008

    def test_unmapped_raises(self):
        sp = AddressSpace()
        sp.add(LinearRegion("a", 0x1000, 0x100000, 0x1000))
        with pytest.raises(RuntimeError):
            sp.translate(np.array([0x0]))
        with pytest.raises(RuntimeError):
            sp.translate(np.array([0x2000]))  # past region end

    def test_overlap_rejected(self):
        sp = AddressSpace()
        sp.add(LinearRegion("a", 0x1000, 0x100000, 0x1000))
        with pytest.raises(ValueError):
            sp.add(LinearRegion("b", 0x1800, 0x200000, 0x1000))


@pytest.fixture
def pools():
    sp = AddressSpace()
    iot = InterleaveOverrideTable(64)
    return PoolManager(sp, iot, 64), iot


class TestInterleavePool:
    def test_seven_pools(self, pools):
        mgr, _ = pools
        assert mgr.interleaves == [64, 128, 256, 512, 1024, 2048, 4096]

    def test_slot_bank_invariant(self, pools):
        """Slot i of any pool maps to bank i mod 64 — the invariant the
        whole runtime relies on."""
        mgr, _ = pools
        for intrlv in POOL_INTERLEAVES:
            pool = mgr.pool(intrlv)
            vaddrs = pool.vbase + np.arange(200) * intrlv
            assert (pool.bank_of(vaddrs) == np.arange(200) % 64).all()

    def test_expand_page_rounds(self, pools):
        mgr, _ = pools
        rng = mgr.expand(64, 100)
        assert rng.size == 4096
        assert mgr.pool(64).backed_bytes == 4096

    def test_expand_updates_iot(self, pools):
        mgr, iot = pools
        mgr.expand(64, 4096)
        pool = mgr.pool(64)
        entry = iot.lookup(pool.pbase)
        assert entry is not None and entry.intrlv == 64
        mgr.expand(64, 4096)
        entry = iot.lookup(pool.pbase + 4096)
        assert entry is not None  # grew, not re-installed
        assert len(iot) == 1

    def test_untouched_pool_costs_no_iot_entry(self, pools):
        mgr, iot = pools
        assert len(iot) == 0

    def test_pool_containing(self, pools):
        mgr, _ = pools
        p = mgr.pool(256)
        assert mgr.pool_containing(p.vbase + 100) is p
        assert mgr.pool_containing(0x1) is None

    def test_round_to_valid(self, pools):
        mgr, _ = pools
        assert mgr.round_to_valid_interleave(1) == 64
        assert mgr.round_to_valid_interleave(64) == 64
        assert mgr.round_to_valid_interleave(65) == 128
        assert mgr.round_to_valid_interleave(4096) == 4096
        assert mgr.round_to_valid_interleave(4097) is None

    def test_unknown_pool(self, pools):
        mgr, _ = pools
        with pytest.raises(KeyError):
            mgr.pool(96)

    def test_expansion_counter(self, pools):
        mgr, _ = pools
        pool = mgr.pool(128)
        mgr.expand(128, 4096)
        mgr.expand(128, 4096)
        assert pool.expansions == 2

    def test_reservation_exhaustion(self):
        pool = InterleavePool(64, 0x1000000, 0x2000000, reserved=8192,
                              num_banks=64)
        pool.expand(8192)
        with pytest.raises(MemoryError):
            pool.expand(4096)
