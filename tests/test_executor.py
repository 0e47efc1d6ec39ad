"""StreamExecutor accounting invariants under both execution modes."""

import numpy as np
import pytest

from repro.arch.address import alignment_shift
from repro.arch.noc import MessageClass
from repro.core.api import AddressView, AffineArray
from repro.nsc.engine import EngineMode
from repro.nsc.stream import AffineIndex
from repro.workloads.base import make_context
from tests.oracles import affine_kernel_reference
from tests.test_affine_equivalence import (
    install_migration,
    recorder_state,
    shipped,
)

DATA, CONTROL, OFFLOAD = (MessageClass.DATA, MessageClass.CONTROL,
                          MessageClass.OFFLOAD)


def aff_ctx():
    return make_context(EngineMode.AFF_ALLOC)


def incore_ctx():
    return make_context(EngineMode.IN_CORE)


class TestAffineKernelOffload:
    def test_aligned_has_zero_forwarding(self):
        ctx = aff_ctx()
        a = ctx.allocator.malloc_affine(AffineArray(4, 4096))
        b = ctx.allocator.malloc_affine(AffineArray(4, 4096, align_to=a))
        c = ctx.allocator.malloc_affine(AffineArray(4, 4096, align_to=a))
        idx = np.arange(4096)
        ctx.executor.affine_kernel(ctx.cores_for(4096), [(a, idx), (b, idx)],
                                   out=(c, idx))
        assert ctx.recorder.traffic.flit_hops(DATA) == 0.0

    def test_misaligned_forwards_data(self):
        ctx = aff_ctx()
        a = ctx.allocator.malloc_affine(AffineArray(4, 4096))
        b = ctx.allocator.malloc_affine(AffineArray(4, 4096, align_to=a))
        from repro.workloads.vecadd import _alloc_with_bank_offset
        c = _alloc_with_bank_offset(ctx, a, 32, "C")
        idx = np.arange(4096)
        ctx.executor.affine_kernel(ctx.cores_for(4096), [(a, idx), (b, idx)],
                                   out=(c, idx))
        assert ctx.recorder.traffic.flit_hops(DATA) > 0.0

    def test_near_ops_at_consumer(self):
        ctx = aff_ctx()
        a = ctx.allocator.malloc_affine(AffineArray(4, 1024))
        c = ctx.allocator.malloc_affine(AffineArray(4, 1024, align_to=a))
        idx = np.arange(1024)
        ctx.executor.affine_kernel(ctx.cores_for(1024), [(a, idx)],
                                   out=(c, idx), ops_per_elem=3.0)
        assert ctx.recorder.bank_near_ops.sum() == pytest.approx(3.0 * 1024)
        assert ctx.recorder.core_ops.sum() == 0.0

    def test_repeat_scales_counts(self):
        def run(repeat):
            ctx = aff_ctx()
            a = ctx.allocator.malloc_affine(AffineArray(4, 1024))
            c = ctx.allocator.malloc_affine(AffineArray(4, 1024, align_to=a))
            idx = np.arange(1024)
            ctx.executor.affine_kernel(ctx.cores_for(1024), [(a, idx)],
                                       out=(c, idx), repeat=repeat)
            return (ctx.recorder.bank_line_accesses.sum(),
                    ctx.recorder.traffic.total_flits())
        acc1, fl1 = run(1)
        acc4, fl4 = run(4)
        assert acc4 == pytest.approx(4 * acc1)
        assert fl4 == pytest.approx(4 * fl1)

    def test_same_array_streams_coalesced(self):
        """Stencil offset streams over one array read each line once."""
        ctx = aff_ctx()
        a = ctx.allocator.malloc_affine(AffineArray(4, 4096))
        c = ctx.allocator.malloc_affine(AffineArray(4, 4096, align_to=a))
        idx = np.arange(4096)
        shift = np.clip(idx + 1, 0, 4095)
        cores = ctx.cores_for(4096)
        ctx.executor.affine_kernel(cores, [(a, idx), (a, shift)], out=(c, idx))
        # reads of a: ~4096/16 = 256 lines, once despite two streams
        reads = ctx.recorder.bank_line_accesses.sum()
        assert reads <= 2 * 4096 / 16 + 8  # a once + c once (+ boundary)

    def test_empty_trace_is_noop(self):
        ctx = aff_ctx()
        ctx.executor.affine_kernel(np.empty(0, dtype=np.int64), [])
        assert ctx.recorder.traffic.total_flits() == 0.0


class TestLineRunGranule:
    """The line-run kernel stays exact when the IOT's bank-mapping
    granule changes between calls; each scenario runs once through the
    shipped kernel and once through the per-element reference."""

    N = 8192

    def _scenario(self, kernel, mutate):
        ctx = aff_ctx()
        a = ctx.alloc(4, self.N, "a")
        c = ctx.alloc(4, self.N, "c", align_to=a)
        idx = np.arange(self.N)
        cores = ctx.cores_for(self.N)
        ins = [(a, idx), (a, np.clip(idx + 3, 0, self.N - 1))]

        def step(label, out=c):
            kernel(ctx.executor, cores, ins, out=(out, idx),
                   ops_per_elem=1.0 / 3.0)
            ctx.recorder.end_phase(label)

        step("before")
        grown = mutate(ctx, a)
        step("after", out=grown if grown is not None else c)
        return recorder_state(ctx), ctx.machine.iot.granule_shift()

    def _assert_exact(self, mutate, granule):
        got, g_got = self._scenario(shipped, mutate)
        want, g_want = self._scenario(affine_kernel_reference, mutate)
        assert g_got == g_want == granule
        assert got == want

    def test_misaligned_migration_start(self):
        starts = []

        def mutate(ctx, a):
            starts.append(install_migration(ctx, a, 101, shift=6))

        self._assert_exact(mutate, granule=2)
        assert alignment_shift(starts[0]) == 2

    def test_migration_shift_below_line(self):
        def mutate(ctx, a):
            install_migration(ctx, a, 128, shift=3)

        self._assert_exact(mutate, granule=3)

    def test_replaced_migration_widens_granule(self):
        def mutate(ctx, a):
            install_migration(ctx, a, 128, shift=3)
            assert ctx.machine.iot.granule_shift() == 3
            # same start: replaces the entry; its 4000-byte end caps at 2**5
            install_migration(ctx, a, 128, shift=7)

        self._assert_exact(mutate, granule=5)

    def test_pool_growth_through_update_end(self):
        ends = []

        def mutate(ctx, a):
            before = [e.end for e in ctx.machine.iot.entries]
            grown = ctx.alloc(4, 1 << 21, "grown", align_to=a)
            after = [e.end for e in ctx.machine.iot.entries]
            ends.append((before, after))
            return grown

        self._assert_exact(mutate, granule=6)
        before, after = ends[0]
        assert len(after) == len(before) and after != before


class TestAffineIndex:
    @pytest.mark.parametrize("offset", [1.5, "1", None, True, np.arange(2)])
    def test_non_integer_offset_raises(self, offset):
        with pytest.raises(TypeError, match="must be an integer"):
            AffineIndex(offset)

    def test_numpy_integer_offset_is_normalised(self):
        d = AffineIndex(np.int64(-3))
        assert d.offset == -3 and type(d.offset) is int
        assert d.expand(5, 4).tolist() == [0, 0, 0, 0, 1]

    @pytest.mark.parametrize("as_out", [False, True])
    def test_descriptor_on_address_view_raises(self, as_out):
        """An AddressView has no fixed stride to derive runs from; the
        call fails before it records anything."""
        ctx = aff_ctx()
        a = ctx.alloc(4, 64, "a")
        view = AddressView(ctx.machine, a.addr_of(np.arange(64)), 4)
        before = recorder_state(ctx)
        ins = [(a, AffineIndex(0))]
        out = (view, AffineIndex(0)) if as_out else None
        if not as_out:
            ins.append((view, AffineIndex(1)))
        with pytest.raises(TypeError, match="AddressView"):
            ctx.executor.affine_kernel(ctx.cores_for(64), ins, out=out)
        assert recorder_state(ctx) == before


class TestAffineKernelInCore:
    def test_lines_travel_to_cores(self):
        ctx = incore_ctx()
        a = ctx.alloc(4, 4096, "a")
        idx = np.arange(4096)
        ctx.executor.affine_kernel(ctx.cores_for(4096), [(a, idx)],
                                   ops_per_elem=1.0)
        # ~256 lines, each one request + one 3-flit response
        assert ctx.recorder.traffic.message_count(CONTROL) >= 256
        assert ctx.recorder.traffic.total_flits(DATA) >= 256 * 3

    def test_store_writes_back(self):
        ctx = incore_ctx()
        a = ctx.alloc(4, 1024, "a")
        c = ctx.alloc(4, 1024, "c")
        idx = np.arange(1024)
        base_flits_read_only = None
        ctx.executor.affine_kernel(ctx.cores_for(1024), [(a, idx)])
        read_only = ctx.recorder.traffic.total_flits(DATA)
        ctx.executor.affine_kernel(ctx.cores_for(1024), [(a, idx)],
                                   out=(c, idx))
        with_store = ctx.recorder.traffic.total_flits(DATA) - read_only
        assert with_store > 2 * read_only  # out line in and out

    def test_core_ops_charged(self):
        ctx = incore_ctx()
        a = ctx.alloc(4, 1024, "a")
        idx = np.arange(1024)
        ctx.executor.affine_kernel(ctx.cores_for(1024), [(a, idx)],
                                   ops_per_elem=2.0)
        assert ctx.recorder.core_ops.sum() == pytest.approx(3.0 * 1024)
        assert ctx.recorder.bank_near_ops.sum() == 0.0


class TestIndirect:
    def _setup(self, ctx, n=4096):
        base = ctx.alloc(4, n, "edges")
        tgt = ctx.alloc(8, n, "props", partition=ctx.mode.affinity_aware)
        rng = np.random.default_rng(0)
        tidx = rng.integers(0, n, n)
        return base, tgt, np.arange(n), tidx

    def test_atomic_offload_requests_only_remote(self):
        ctx = aff_ctx()
        base, tgt, bidx, tidx = self._setup(ctx)
        cores = ctx.cores_for(bidx.size)
        ctx.executor.indirect_atomic(cores, (base, bidx), (tgt, tidx))
        msgs = ctx.recorder.traffic.message_count(CONTROL)
        b_banks = base.banks(bidx)
        t_banks = tgt.banks(tidx)
        remote = int((b_banks != t_banks).sum())
        # control messages = remote requests + credits
        assert remote <= msgs <= remote + 2 * 64 + 2
        assert ctx.recorder.bank_atomics.sum() == bidx.size

    def test_atomic_incore_coherence_pingpong(self):
        ctx = incore_ctx()
        base, tgt, bidx, tidx = self._setup(ctx)
        cores = ctx.cores_for(bidx.size)
        ctx.executor.indirect_atomic(cores, (base, bidx), (tgt, tidx))
        # every atomic moves a line each way
        assert ctx.recorder.traffic.total_flits(DATA) == pytest.approx(
            2 * 3 * bidx.size)

    def test_gather_offload_returns_values(self):
        ctx = aff_ctx()
        base, tgt, bidx, tidx = self._setup(ctx)
        cores = ctx.cores_for(bidx.size)
        ctx.executor.indirect_gather(cores, (base, bidx), (tgt, tidx))
        assert ctx.recorder.traffic.message_count(DATA) > 0
        assert ctx.recorder.bank_atomics.sum() == 0.0

    def test_gather_incore_dedups_hot_lines(self):
        ctx = incore_ctx()
        base = ctx.alloc(4, 4096, "edges")
        tgt = ctx.alloc(8, 16, "hot")  # tiny target: 2 lines
        bidx = np.arange(4096)
        tidx = np.zeros(4096, dtype=np.int64)
        cores = np.zeros(4096, dtype=np.int64)
        ctx.executor.indirect_gather(cores, (base, bidx), (tgt, tidx))
        # one core touching one line: a single fetch
        assert ctx.recorder.traffic.message_count(DATA) == 1.0

    def test_remote_reqs_recorded(self):
        ctx = aff_ctx()
        base, tgt, bidx, tidx = self._setup(ctx)
        cores = ctx.cores_for(bidx.size)
        ctx.executor.indirect_atomic(cores, (base, bidx), (tgt, tidx))
        remote = ctx.recorder.bank_remote_reqs.sum()
        assert 0 < remote <= bidx.size


class TestPointerChase:
    def _chains(self, ctx, nchains=32, length=16):
        vaddrs = []
        prev = np.repeat(-1, nchains * length)
        t = np.arange(nchains * length)
        prev = np.where(t >= nchains, t - nchains, -1)
        nodes = ctx.allocator.malloc_irregular_chained(64, prev) \
            if ctx.allocator else ctx.machine.malloc(64 * t.size) + t * 64
        grid = np.asarray(nodes).reshape(length, nchains).T
        chain_nodes = grid.reshape(-1)
        chain_ids = np.repeat(np.arange(nchains), length)
        chain_cores = np.arange(nchains) % ctx.machine.num_cores
        return chain_nodes, chain_ids, chain_cores

    def test_offload_migrates_on_bank_change(self):
        ctx = aff_ctx()
        nodes, ids, cores = self._chains(ctx)
        ctx.executor.pointer_chase(nodes, ids, cores)
        banks = ctx.machine.banks_of(nodes)
        same = ids[1:] == ids[:-1]
        expected = int(((banks[1:] != banks[:-1]) & same).sum())
        assert ctx.recorder.traffic.message_count(OFFLOAD) == \
            pytest.approx(expected + 32)  # + one config per chain

    def test_colocated_chains_serialize_faster(self):
        ctx = aff_ctx()
        nodes, ids, cores = self._chains(ctx)
        ctx.executor.pointer_chase(nodes, ids, cores)
        aff_serial = ctx.recorder.core_serial_cycles.max()

        ctx2 = incore_ctx()
        nodes2, ids2, cores2 = self._chains(ctx2)
        ctx2.executor.pointer_chase(nodes2, ids2, cores2)
        incore_serial = ctx2.recorder.core_serial_cycles.max()
        assert aff_serial < incore_serial

    def test_incore_round_trips(self):
        ctx = incore_ctx()
        nodes, ids, cores = self._chains(ctx)
        ctx.executor.pointer_chase(nodes, ids, cores)
        # in-core never migrates streams
        assert ctx.recorder.traffic.message_count(OFFLOAD) == 0.0
        assert ctx.recorder.traffic.message_count(CONTROL) > 0

    def test_empty_chase(self):
        ctx = aff_ctx()
        ctx.executor.pointer_chase(np.empty(0), np.empty(0), np.empty(0))
        assert ctx.recorder.traffic.total_flits() == 0.0


class TestQueuePush:
    def test_local_push_is_free(self):
        ctx = aff_ctx()
        banks = np.arange(64)
        cores = np.arange(64)
        ctx.executor.queue_push(cores, banks, banks, banks)
        assert ctx.recorder.traffic.total_flits() == 0.0
        assert ctx.recorder.bank_atomics.sum() == 64.0

    def test_remote_push_costs_messages(self):
        ctx = aff_ctx()
        src = np.zeros(64, dtype=np.int64)
        tail = np.full(64, 63, dtype=np.int64)
        ctx.executor.queue_push(np.arange(64), src, tail, tail)
        assert ctx.recorder.traffic.message_count(CONTROL) == 64.0
        assert ctx.recorder.traffic.message_count(DATA) == 64.0

    def test_incore_coherence(self):
        ctx = incore_ctx()
        banks = np.arange(64)
        ctx.executor.queue_push(np.arange(64), banks, banks, banks)
        assert ctx.recorder.traffic.total_flits(DATA) > 0
