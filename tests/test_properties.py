"""Property-based tests over the core cross-layer invariants.

These are the load-bearing contracts of the reproduction: whatever inputs
a workload throws at the stack, slot/bank arithmetic, Eq. 1 mapping,
allocation bookkeeping, and traffic accounting must hold.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch.mesh import Mesh
from repro.arch.noc import MessageClass, TrafficAccountant
from repro.config import NocConfig
from repro.core.api import AffineArray
from repro.core.irregular import SlotPool
from repro.core.load import LoadTracker
from repro.core.policy import HybridPolicy
from repro.core.runtime import AffinityAllocator
from repro.machine import Machine

slow = settings(max_examples=30, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class TestBankMappingInvariants:
    @slow
    @given(intrlv_idx=st.integers(0, 6), slots=st.integers(1, 500))
    def test_pool_slots_rotate_banks(self, intrlv_idx, slots):
        m = Machine()
        intrlv = 64 << intrlv_idx
        sp = SlotPool(m.pools, intrlv)
        banks = np.arange(slots) % 17 % 64
        vaddrs = sp.alloc_many_on_banks(banks)
        # HW mapping path agrees with the pool's Eq. 1 arithmetic
        assert (m.banks_of(vaddrs) == banks).all()

    @slow
    @given(elem=st.sampled_from([1, 2, 4, 8, 16, 32]),
           n=st.integers(64, 5000))
    def test_default_affine_layout_spreads(self, elem, n):
        m = Machine()
        a = AffinityAllocator(m).malloc_affine(AffineArray(elem, n))
        banks = a.all_banks()
        total = n * elem
        if total >= 64 * 64:
            # an array spanning >= one slot per bank touches many banks
            assert len(set(banks.tolist())) >= 32

    @slow
    @given(seed=st.integers(0, 1000))
    def test_random_heap_still_maps_consistently(self, seed):
        m = Machine(heap_mode="random", seed=seed)
        va = m.malloc(1 << 14)
        addrs = va + np.arange(0, 1 << 14, 64)
        b1 = m.banks_of(addrs)
        b2 = m.banks_of(addrs)
        assert (b1 == b2).all()
        assert (b1 >= 0).all() and (b1 < 64).all()


class TestAllocatorInvariants:
    @slow
    @given(sizes=st.lists(st.integers(1, 4096), min_size=1, max_size=40))
    def test_irregular_allocations_never_overlap(self, sizes):
        m = Machine()
        alloc = AffinityAllocator(m)
        ranges = []
        for s in sizes:
            va = alloc.malloc_irregular(s)
            intrlv = m.pools.pool_containing(va).intrlv
            ranges.append((va, va + intrlv))
        ranges.sort()
        for (a0, a1), (b0, _b1) in zip(ranges, ranges[1:]):
            assert a1 <= b0

    @slow
    @given(st.lists(st.integers(1, 2000), min_size=1, max_size=20),
           st.integers(0, 5))
    def test_alloc_free_alloc_is_stable(self, sizes, seed):
        """Freeing everything returns the allocator to a state where the
        same allocations land on the same banks again."""
        m = Machine()
        alloc = AffinityAllocator(m, HybridPolicy(5.0))
        first = [alloc.malloc_irregular(s) for s in sizes]
        banks1 = [m.bank_of(v) for v in first]
        for v in first:
            alloc.free_aff(v)
        assert alloc.load.total == 0.0
        second = [alloc.malloc_irregular(s) for s in sizes]
        banks2 = [m.bank_of(v) for v in second]
        assert banks1 == banks2

    @slow
    @given(n=st.integers(1, 300))
    def test_batch_allocations_distinct(self, n):
        m = Machine()
        alloc = AffinityAllocator(m)
        vs = alloc.malloc_irregular_batch(64, np.empty(0, dtype=np.int64),
                                          np.empty(0, dtype=np.int64), n)
        assert len(set(vs.tolist())) == n

    @slow
    @given(ne=st.integers(1, 64), x=st.integers(0, 64))
    def test_affine_free_restores_footprint(self, ne, x):
        m = Machine()
        alloc = AffinityAllocator(m)
        base = m.llc.footprint_bytes.sum()
        h = alloc.malloc_affine(AffineArray(8, ne * 64 + x + 1))
        alloc.free_aff(h)
        assert m.llc.footprint_bytes.sum() == pytest.approx(base)


class TestTrafficInvariants:
    @slow
    @given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63),
                              st.integers(0, 256)), min_size=1, max_size=50))
    def test_flit_hops_additive(self, messages):
        mesh = Mesh(8, 8)
        both = TrafficAccountant(mesh, NocConfig())
        parts = [TrafficAccountant(mesh, NocConfig()) for _ in range(2)]
        for i, (s, d, payload) in enumerate(messages):
            both.record(s, d, payload, MessageClass.DATA)
            parts[i % 2].record(s, d, payload, MessageClass.DATA)
        merged = parts[0].merged_with(parts[1])
        assert merged.flit_hops() == pytest.approx(both.flit_hops())
        assert merged.total_flits() == pytest.approx(both.total_flits())

    @slow
    @given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 1024))
    def test_channel_loads_conserve_flits(self, s, d, payload):
        mesh = Mesh(8, 8)
        acct = TrafficAccountant(mesh, NocConfig())
        acct.record(s, d, payload, MessageClass.DATA)
        loads = acct.link_loads()
        flits = acct.total_flits()
        if s == d:
            assert loads.sum() == 0.0
        else:
            hops = mesh.hops(s, d)
            # route links + inject + eject
            assert loads.sum() == pytest.approx(flits * (hops + 2))


class TestLoadTrackerInvariants:
    @slow
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
    def test_total_equals_events(self, banks):
        t = LoadTracker(64)
        for b in banks:
            t.record(b)
        assert t.total == len(banks)
        assert t.loads.sum() == len(banks)
