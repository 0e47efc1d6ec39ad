"""AffinityAllocator end-to-end: the paper's malloc_aff/free_aff contract."""

import numpy as np
import pytest

from repro.core.api import AffineArray, ArrayHandle
from repro.core.policy import (HybridPolicy, LinearPolicy, MinHopPolicy,
                               RandomPolicy)
from repro.core.runtime import AffinityAllocator
from repro.machine import Machine


@pytest.fixture
def machine():
    return Machine()


@pytest.fixture
def alloc(machine):
    return AffinityAllocator(machine)


class TestAffinePath:
    def test_fig8b_vecadd_alignment(self, alloc):
        """Fig 8(b): B and C colocate elementwise with A through the full
        translation + IOT mapping path."""
        a = alloc.malloc_affine(AffineArray(4, 4096), name="A")
        b = alloc.malloc_affine(AffineArray(4, 4096, align_to=a), name="B")
        c = alloc.malloc_affine(AffineArray(8, 4096, align_to=a), name="C")
        i = np.arange(4096)
        assert (a.banks(i) == b.banks(i)).all()
        assert (a.banks(i) == c.banks(i)).all()

    def test_fig9_spatial_queue_alignment(self, alloc):
        """Fig 9: partitioned V, aligned Q, padded tails T."""
        n, p = 1 << 16, 64
        v = alloc.malloc_affine(AffineArray(8, n, partition=True), name="V")
        q = alloc.malloc_affine(AffineArray(4, n, align_to=v), name="Q")
        t = alloc.malloc_affine(AffineArray(8, p, align_to=v, align_p=n // p),
                                name="T")
        i = np.arange(n)
        assert (v.banks(i) == q.banks(i)).all()
        parts = np.arange(p)
        assert (t.banks(parts) == v.banks(parts * (n // p))).all()
        assert t.stride == 64 != t.elem_size

    def test_handles_know_their_layout(self, alloc):
        a = alloc.malloc_affine(AffineArray(4, 100))
        assert a.layout is not None
        assert a.layout.intrlv == 64

    def test_fallback_allocates_on_heap(self, alloc, machine):
        a = alloc.malloc_affine(AffineArray(4, 10000))
        bad = alloc.malloc_affine(AffineArray(4, 100, align_to=a, align_x=3))
        assert alloc.stats.fallbacks == 1
        # heap addresses live outside every pool
        assert machine.pools.pool_containing(bad.vaddr) is None

    def test_free_and_reuse_same_space(self, alloc):
        a = alloc.malloc_affine(AffineArray(4, 1024))
        va = a.vaddr
        alloc.free_aff(a)
        b = alloc.malloc_affine(AffineArray(4, 1024))
        assert b.vaddr == va

    def test_free_by_address(self, alloc):
        a = alloc.malloc_affine(AffineArray(4, 1024))
        alloc.free_aff(a.vaddr)
        b = alloc.malloc_affine(AffineArray(4, 1024))
        assert b.vaddr == a.vaddr

    def test_free_paged_returns_frames(self, alloc, machine):
        before = machine.llc.footprint_bytes.sum()
        v = alloc.malloc_affine(AffineArray(8, 1 << 17, partition=True))
        alloc.free_aff(v)
        assert machine.llc.footprint_bytes.sum() == pytest.approx(before)

    def test_footprint_registered(self, alloc, machine):
        before = machine.llc.footprint_bytes.sum()
        alloc.malloc_affine(AffineArray(4, 1 << 14))
        assert machine.llc.footprint_bytes.sum() >= before + (1 << 16) // 16


class TestIrregularPath:
    def test_allocation_near_affinity(self, machine):
        alloc = AffinityAllocator(machine, MinHopPolicy())
        first = alloc.malloc_irregular(64)
        second = alloc.malloc_irregular(64, [first])
        assert machine.bank_of(second) == machine.bank_of(first)

    def test_size_rounded_to_interleave(self, alloc, machine):
        va = alloc.malloc_irregular(100)
        pool = machine.pools.pool_containing(va)
        assert pool.intrlv == 128

    def test_oversized_rejected(self, alloc):
        with pytest.raises(ValueError):
            alloc.malloc_irregular(8192)

    def test_too_many_affinity_addresses(self, alloc):
        a = alloc.malloc_irregular(64)
        with pytest.raises(ValueError):
            alloc.malloc_irregular(64, [a] * 33)

    def test_free_infers_from_pool(self, alloc, machine):
        """Paper §5.1: no metadata for irregular objects — free infers the
        size class from the owning pool."""
        va = alloc.malloc_irregular(200)  # -> 256B class
        assert va not in alloc._records
        alloc.free_aff(va)
        assert alloc.load.total == 0.0
        # slot is reusable
        vb = alloc.malloc_irregular(200)
        assert machine.pools.pool_containing(vb).intrlv == 256

    def test_load_tracked(self, alloc):
        alloc.malloc_irregular(64)
        alloc.malloc_irregular(64)
        assert alloc.load.total == 2.0

    def test_heap_free_is_noop(self, alloc, machine):
        va = machine.malloc(64)
        alloc.free_aff(va)
        assert alloc.stats.heap_frees == 1


class TestBatchedPaths:
    def test_batch_matches_sequential_hybrid(self, machine):
        """malloc_irregular_batch must behave like back-to-back singles."""
        seq_m = Machine()
        seq = AffinityAllocator(seq_m, HybridPolicy(5.0))
        anchor_seq = seq.malloc_irregular(64)
        singles = [seq.malloc_irregular(64, [anchor_seq]) for _ in range(20)]

        bat = AffinityAllocator(machine, HybridPolicy(5.0))
        anchor_bat = bat.malloc_irregular(64)
        aff = np.full(20, anchor_bat, dtype=np.int64)
        ids = np.arange(20)
        batch = bat.malloc_irregular_batch(64, aff, ids, 20)
        seq_banks = [seq_m.bank_of(v) for v in singles]
        bat_banks = [machine.bank_of(int(v)) for v in batch]
        assert seq_banks == bat_banks

    def test_batch_without_affinity(self, alloc, machine):
        vs = alloc.malloc_irregular_batch(64, np.empty(0, dtype=np.int64),
                                          np.empty(0, dtype=np.int64), 50)
        assert vs.size == 50
        assert len(set(vs.tolist())) == 50

    def test_chained_colocates_chains(self, machine):
        alloc = AffinityAllocator(machine, HybridPolicy(5.0))
        # 64 chains of 64, interleaved allocation order (enough volume
        # that Eq. 4's balance term settles; early allocations spread)
        nchains, n = 64, 64 * 64
        t = np.arange(n)
        prev = np.where(t >= nchains, t - nchains, -1)
        vaddrs = alloc.malloc_irregular_chained(64, prev)
        banks = machine.banks_of(vaddrs)
        same = (banks[nchains:] == banks[:-nchains]).mean()
        assert same > 0.8

    def test_chained_head_affinity(self, machine):
        alloc = AffinityAllocator(machine, MinHopPolicy())
        head = alloc.malloc_affine(AffineArray(8, 64, partition=True))
        head_addrs = head.addr_of(np.array([17]))
        va = alloc.malloc_irregular_chained(
            64, np.array([-1]), head_addrs=head_addrs)
        assert machine.bank_of(int(va[0])) == head.bank_of_one(17)

    def test_chained_rejects_forward_refs(self, alloc):
        with pytest.raises(ValueError):
            alloc.malloc_irregular_chained(64, np.array([1, -1]))


class TestSelectionCount:
    """Every irregular allocation is exactly one selection: the summed
    ``len(sizes)`` that ``select_batch`` sees equals
    ``AllocStats.irregular_allocs`` (what the benchmark's
    ``core.policy.selections`` counts)."""

    @staticmethod
    def _spy(monkeypatch, cls):
        seen = []
        original = cls.select_batch

        def spy(self, sizes, *args, **kwargs):
            seen.append(len(sizes))
            return original(self, sizes, *args, **kwargs)

        monkeypatch.setattr(cls, "select_batch", spy)
        return seen

    @pytest.mark.parametrize("make", [lambda: HybridPolicy(5.0),
                                      MinHopPolicy,
                                      lambda: RandomPolicy(1),
                                      LinearPolicy])
    def test_each_entry_point(self, machine, monkeypatch, make):
        policy = make()
        seen = self._spy(monkeypatch, type(policy))
        alloc = AffinityAllocator(machine, policy)
        anchor = alloc.malloc_irregular(64)
        alloc.malloc_irregular(64, [anchor, anchor])
        alloc.malloc_irregular_batch(64, np.full(6, anchor),
                                     np.array([0, 0, 2, 3, 3, 3]), 5)
        alloc.malloc_irregular_chained(
            64, np.array([-1, 0, 1, -1, 3]),
            head_addrs=np.array([anchor, -1, -1, -1, -1]))
        assert seen == [1, 1, 5, 5]
        assert sum(seen) == alloc.stats.irregular_allocs == 12

    def test_workloads(self, monkeypatch):
        # Linked CSR (pr_push), lists and trees (link_list, bin_tree,
        # hash_join) and single allocations (dyn_graph).
        from repro.workloads import EngineMode, run_workload
        seen = self._spy(monkeypatch, HybridPolicy)
        allocators = []
        init = AffinityAllocator.__init__

        def keep(self, *args, **kwargs):
            init(self, *args, **kwargs)
            allocators.append(self)

        monkeypatch.setattr(AffinityAllocator, "__init__", keep)
        for name in ("pr_push", "link_list", "bin_tree", "hash_join",
                     "dyn_graph"):
            run_workload(name, EngineMode.AFF_ALLOC, scale=0.05)
        allocs = sum(a.stats.irregular_allocs for a in allocators)
        assert allocs > 0
        assert sum(seen) == allocs


class TestUnifiedApi:
    def test_malloc_aff_dispatch(self, alloc):
        h = alloc.malloc_aff(AffineArray(4, 100))
        assert isinstance(h, ArrayHandle)
        va = alloc.malloc_aff(64, [h.vaddr])
        assert isinstance(va, (int, np.integer))

    def test_affine_with_aff_addrs_rejected(self, alloc):
        with pytest.raises(ValueError):
            alloc.malloc_aff(AffineArray(4, 100), aff_addrs=[0x1000])

    def test_stats_counters(self, alloc):
        alloc.malloc_affine(AffineArray(4, 100))
        alloc.malloc_irregular(64)
        assert alloc.stats.affine_allocs == 1
        assert alloc.stats.irregular_allocs == 1


class TestFaultDegradation:
    """Pool exhaustion + injected allocation failures degrade, never fail."""

    def test_affine_degrades_to_next_smaller_interleave(self, machine, alloc):
        spec = AffineArray(4, 4096, align_x=256)  # solves to 4 KiB interleave
        machine.pools.pool(4096).max_expansions = 0
        h = alloc.malloc_affine(spec)
        assert h.layout.code == "pool-degraded"
        assert h.layout.intrlv == 2048  # largest surviving interleave
        assert alloc.stats.degraded_allocs == 1
        assert alloc.stats.fallbacks == 0

    def test_affine_heap_fallback_when_every_pool_capped(self, machine,
                                                         alloc):
        for g in machine.pools.interleaves:
            machine.pools.pool(g).max_expansions = 0
        h = alloc.malloc_affine(AffineArray(4, 4096))
        assert h.layout.code == "pool-degraded"
        assert alloc.stats.fallbacks == 1
        # the degraded array is still a fully usable handle
        assert h.all_banks().size > 0

    def test_irregular_degrades_to_larger_pool_same_bank(self, machine,
                                                         alloc):
        machine.pools.pool(64).max_expansions = 0
        va = alloc.malloc_irregular(64)
        pool = machine.pools.pool_containing(va)
        assert pool is not None and pool.intrlv == 128
        assert alloc.stats.irregular_allocs == 1
        assert alloc.load.total == 1.0  # charged once, by the policy

    def test_irregular_heap_fallback_when_every_pool_capped(self, machine,
                                                            alloc):
        for g in machine.pools.interleaves:
            machine.pools.pool(g).max_expansions = 0
        va = alloc.malloc_irregular(64)
        assert machine.pools.pool_containing(va) is None  # baseline heap
        assert alloc.stats.fallbacks == 1
        assert alloc.load.total == 0.0  # the policy's charge is returned

    def test_batched_irregular_degrades_per_slot(self, machine, alloc):
        machine.pools.pool(64).max_expansions = 0
        vaddrs = alloc.malloc_irregular_batch(
            64, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 8)
        assert len(set(vaddrs.tolist())) == 8
        for va in vaddrs.tolist():
            pool = machine.pools.pool_containing(va)
            assert pool is not None and pool.intrlv == 128

    def test_injected_alloc_fault_fires_once_by_ordinal(self, machine,
                                                        alloc):
        from repro.faults.injector import FaultSession
        from repro.faults.log import FaultEventLog
        from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
        log = FaultEventLog()
        plan = FaultPlan(events=(
            FaultEvent(FaultKind.ALLOC_FAIL, 1, phase="boot"),))
        FaultSession(plan, log).attach(machine)
        first = alloc.malloc_affine(AffineArray(4, 1024))   # ordinal 0: fine
        second = alloc.malloc_affine(AffineArray(4, 1024))  # ordinal 1: fails
        third = alloc.malloc_affine(AffineArray(4, 1024))   # ordinal 2: fine
        assert first.layout.code != "alloc-fault"
        assert second.layout.code == "alloc-fault"
        assert third.layout.code != "alloc-fault"
        assert alloc.stats.injected_alloc_faults == 1
        assert log.count("alloc-degraded") == 1
