"""Machine facade: heap, translation, bank queries."""

import numpy as np
import pytest

from repro.machine import Machine


class TestHeap:
    def test_malloc_returns_distinct_ranges(self):
        m = Machine()
        a = m.malloc(1000)
        b = m.malloc(1000)
        assert b >= a + 1000

    def test_malloc_alignment(self):
        m = Machine()
        m.malloc(10)
        b = m.malloc(10, align=256)
        assert b % 256 == 0

    def test_malloc_rejects_nonpositive(self):
        m = Machine()
        with pytest.raises(ValueError):
            m.malloc(0)

    def test_linear_heap_banks_follow_default_interleave(self):
        m = Machine(heap_mode="linear")
        va = m.malloc(64 * 1024, align=65536)
        banks = m.banks_of(va + np.arange(0, 64 * 1024, 1024))
        # consecutive 1 KiB chunks rotate through banks
        assert len(set(banks.tolist())) == 64

    def test_random_heap_pages_scattered(self):
        m = Machine(heap_mode="random", seed=1)
        va = m.malloc(1 << 20)
        pages = m.translate(va + np.arange(0, 1 << 20, 4096))
        diffs = np.diff(np.sort(pages))
        # random frames: not contiguous
        assert (diffs != 4096).any()

    def test_random_heap_deterministic_by_seed(self):
        a = Machine(heap_mode="random", seed=7)
        b = Machine(heap_mode="random", seed=7)
        va1, va2 = a.malloc(1 << 16), b.malloc(1 << 16)
        assert (a.translate(va1 + np.arange(0, 1 << 16, 4096))
                == b.translate(va2 + np.arange(0, 1 << 16, 4096))).all()

    def test_unknown_heap_mode(self):
        with pytest.raises(ValueError):
            Machine(heap_mode="bogus")

    def test_malloc_registers_footprint(self):
        m = Machine()
        m.malloc(1 << 20)
        assert m.llc.footprint_bytes.sum() >= float(1 << 20)


class TestQueries:
    def test_translate_roundtrip_linear(self):
        m = Machine()
        va = m.malloc(4096)
        pa = m.translate(np.array([va, va + 100]))
        assert pa[1] - pa[0] == 100

    def test_bank_of_matches_banks_of(self):
        m = Machine()
        va = m.malloc(1 << 16)
        addrs = va + np.arange(0, 1 << 16, 777)
        banks = m.banks_of(addrs)
        for a, b in zip(addrs[:16], banks[:16]):
            assert m.bank_of(int(a)) == b

    def test_paged_reserve_and_map(self):
        m = Machine()
        va = m.paged_reserve(8192)
        m.paged_map(va, 0x7000_0000_0000)
        m.paged_map(va + 4096, 0x7000_0000_2000)
        pa = m.translate(np.array([va + 5, va + 4096 + 5]))
        assert pa[0] == 0x7000_0000_0005
        assert pa[1] == 0x7000_0000_2005

    def test_paged_map_requires_alignment(self):
        m = Machine()
        va = m.paged_reserve(4096)
        with pytest.raises(ValueError):
            m.paged_map(va + 1, 0x7000_0000_0000)
