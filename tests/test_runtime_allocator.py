"""AffinityAllocator end-to-end: the paper's malloc_aff/free_aff contract."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.diagnostics import (AffinityCountError,
                                        AllocationSizeError, OversizeError)
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


def _one_object(entry):
    """Entry point ``entry`` ("scalar", "batch" or "chained") as a call
    ``(alloc, size, refs)`` that allocates one object of ``size`` bytes
    near ``refs`` (the chained form takes one ref at most: its head
    address)."""
    def scalar(alloc, size, refs):
        return alloc.malloc_irregular(size, refs)

    def batch(alloc, size, refs):
        return alloc.malloc_irregular_batch(
            size, np.asarray(refs, dtype=np.int64),
            np.zeros(len(refs), dtype=np.int64), 1)

    def chained(alloc, size, refs):
        assert len(refs) <= 1
        return alloc.malloc_irregular_chained(
            size, np.array([-1]), head_addrs=np.array(list(refs) or [-1]))

    return {"scalar": scalar, "batch": batch, "chained": chained}[entry]


ENTRY_POINTS = ["scalar", "batch", "chained"]


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

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_oversized_rejected(self, alloc, entry):
        with pytest.raises(OversizeError):
            _one_object(entry)(alloc, 8192, [])

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("size", [0, -64])
    def test_non_positive_size_rejected(self, alloc, entry, size):
        with pytest.raises(AllocationSizeError):
            _one_object(entry)(alloc, size, [])
        assert alloc.load.total == 0.0

    # A chained object has one ref at most, so only these two can
    # exceed the cap.
    @pytest.mark.parametrize("entry", ["scalar", "batch"])
    def test_too_many_affinity_addresses(self, alloc, entry):
        a = alloc.malloc_irregular(64)
        with pytest.raises(AffinityCountError):
            _one_object(entry)(alloc, 64, [a] * 33)
        _one_object(entry)(alloc, 64, [a] * 32)
        assert alloc.stats.irregular_allocs == 2

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


class TestBatchMatchesSequential:
    """The batch and chained entry points place every object on the same
    bank and in the same pool class as back-to-back ``malloc_irregular``
    calls, and leave the same load, footprint and ``AllocStats``, also
    when capped pools degrade slots to larger ones.  Vaddrs may differ
    (the pools expand at different times); the largest pool stays
    uncapped, because a heap fallback returns its load charge only after
    the whole batch is selected."""

    POLICIES = [lambda: HybridPolicy(5.0), MinHopPolicy, LinearPolicy]

    @classmethod
    def _setup(cls, caps, policy):
        m = Machine()
        alloc = AffinityAllocator(m, cls.POLICIES[policy]())
        anchors = alloc.malloc_affine(AffineArray(8, 512, partition=True))
        for g, cap in zip(m.pools.interleaves, caps):
            m.pools.pool(g).max_expansions = cap
        return m, alloc, anchors.addr_of(np.arange(0, 512, 7))

    @staticmethod
    def _placement(m, vaddrs):
        return [(m.bank_of(int(va)), m.pools.pool_containing(int(va)).intrlv)
                for va in vaddrs]

    def _assert_same(self, seq, bat, seq_vas, bat_vas):
        (m1, a1), (m2, a2) = seq, bat
        assert self._placement(m1, seq_vas) == self._placement(m2, bat_vas)
        assert np.array_equal(a1.load.loads, a2.load.loads)
        assert np.array_equal(m1.llc.footprint_bytes, m2.llc.footprint_bytes)
        assert a1.stats == a2.stats

    # Caps for every pool but the largest: none, none-left, or one
    # expansion (64 slots per bank).
    caps = st.lists(st.sampled_from([None, 0, 1]), min_size=6, max_size=6
                    ).map(lambda c: c + [None])
    prop = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

    @prop
    @given(caps=caps, policy=st.integers(0, 2),
           size=st.sampled_from([8, 64, 100, 512]),
           groups=st.lists(st.lists(st.integers(0, 73), max_size=32),
                           min_size=1, max_size=90))
    def test_batch(self, caps, policy, size, groups):
        m1, a1, anchors = self._setup(caps, policy)
        seq_vas = [a1.malloc_irregular(size, anchors[g].tolist())
                   for g in groups]
        m2, a2, anchors = self._setup(caps, policy)
        flat = np.concatenate([anchors[g] for g in groups]).astype(np.int64)
        ids = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
        bat_vas = a2.malloc_irregular_batch(size, flat, ids, len(groups))
        self._assert_same((m1, a1), (m2, a2), seq_vas, bat_vas)

    @prop
    @given(caps=caps, policy=st.integers(0, 2),
           size=st.sampled_from([8, 64, 100, 512]),
           links=st.lists(st.tuples(st.integers(-1, 200),
                                    st.integers(-1, 73)),
                          min_size=1, max_size=90))
    def test_chained(self, caps, policy, size, links):
        # (p, h): predecessor p mod i, or a head (p == -1 or i == 0)
        # near anchor h (no affinity for h == -1).
        prev = np.array([p % i if p >= 0 and i else -1
                         for i, (p, _) in enumerate(links)])
        m1, a1, anchors = self._setup(caps, policy)
        heads = np.array([anchors[h] if h >= 0 else -1 for _, h in links])
        seq_vas = []
        for i, p in enumerate(prev.tolist()):
            refs = ([seq_vas[p]] if p >= 0
                    else [int(heads[i])] if heads[i] >= 0 else [])
            seq_vas.append(a1.malloc_irregular(size, refs))
        m2, a2, anchors = self._setup(caps, policy)
        bat_vas = a2.malloc_irregular_chained(size, prev, head_addrs=heads)
        self._assert_same((m1, a1), (m2, a2), seq_vas, bat_vas)


class TestCountingRule:
    """Every allocation counts once: in ``irregular_allocs`` when a slot
    pool holds it, in ``fallbacks`` when the baseline heap does; the load
    holds exactly the pool-placed objects."""

    N = 500  # more than the 7 pools' 64 slots per bank after one expansion

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_every_pool_capped(self, machine, entry):
        for g in machine.pools.interleaves:
            machine.pools.pool(g).max_expansions = 1
        alloc = AffinityAllocator(machine, MinHopPolicy())
        anchor = alloc.malloc_irregular(64)
        n = self.N
        if entry == "scalar":
            for _ in range(n):
                alloc.malloc_irregular(64, [anchor])
        elif entry == "batch":
            alloc.malloc_irregular_batch(64, np.full(n, anchor),
                                         np.arange(n), n)
        else:
            alloc.malloc_irregular_chained(
                64, np.arange(n) - 1, head_addrs=np.full(n, anchor))
        stats = alloc.stats
        assert stats.degraded_allocs > 0 and stats.fallbacks > 0  # ladder ran
        assert stats.irregular_allocs + stats.fallbacks == n + 1
        assert alloc.load.total == stats.irregular_allocs


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
        assert alloc.stats.affine_allocs == 0  # counted once, on the heap
        # the degraded array is still a fully usable handle
        assert h.all_banks().size > 0

    @staticmethod
    def _assert_unmapped(machine, vaddr, nbytes):
        page = machine.config.page_size
        for va in range(vaddr, vaddr + nbytes, page):
            with pytest.raises(RuntimeError, match="unmapped page"):
                machine.translate(np.array([va], dtype=np.int64))

    def test_paged_array_returns_its_frames_when_the_pool_runs_dry(
            self, machine, alloc):
        """A partitioned 32 MiB array needs more 4 KiB frames than one
        expansion holds: the frames taken before the pool ran dry go
        back, footprint and page mappings and all, before the array is
        degraded."""
        from repro.vm.layout import VirtualLayout
        machine.pools.pool(4096).max_expansions = 1
        h = alloc.malloc_affine(AffineArray(4, 8 << 20, partition=True))
        assert h.layout.code == "pool-degraded"
        assert machine.llc.footprint_bytes.sum() == 33_554_432
        assert alloc._slot_pool(4096).live == 0
        # The rolled-back paged array was the segment's first reservation.
        self._assert_unmapped(machine, VirtualLayout.PAGED_VBASE, 4 * (8 << 20))
        alloc.free_aff(h)
        assert machine.llc.footprint_bytes.sum() == 0
        assert alloc._slot_pool(4096).live == 0

    def test_freed_paged_array_unmaps_its_pages(self, machine, alloc):
        from repro.core.affine import LayoutKind
        h = alloc.malloc_affine(AffineArray(4, 1 << 18, partition=True))
        assert h.layout.kind is LayoutKind.PAGED
        table = machine.space.resolver_table()
        machine.translate(np.array([h.vaddr], dtype=np.int64))  # mapped
        alloc.free_aff(h)
        assert machine.llc.footprint_bytes.sum() == 0
        assert alloc._slot_pool(4096).live == 0
        self._assert_unmapped(machine, h.vaddr, h.size_bytes)
        assert machine.space.resolver_table() == table  # edited in place
        with pytest.raises(RuntimeError, match="unmapped page"):
            machine.resolve(np.array([h.vaddr], dtype=np.int64))

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
