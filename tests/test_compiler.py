"""The mini stream compiler: Fig 2 kernels lower to correct plans."""

import numpy as np
import pytest

from repro.nsc.compiler import CompileError, KernelBuilder, compile_kernel
from repro.nsc.engine import EngineMode
from repro.nsc.stream import DepKind, StreamKind
from repro.workloads.base import make_context


def vecadd_kernel(ctx, n=4096):
    """Fig 2(a): C[0:N] = A[0:N] + B[0:N]."""
    a = ctx.alloc(4, n, "A")
    b = ctx.alloc(4, n, "B", align_to=a if ctx.mode.affinity_aware else None)
    c = ctx.alloc(4, n, "C", align_to=a if ctx.mode.affinity_aware else None)
    k = KernelBuilder("vecadd", n)
    k.load("sa", a)
    k.load("sb", b)
    k.store("sc", c, inputs=["sa", "sb"], ops=1.0)
    return k, (a, b, c)


class TestFrontEnd:
    def test_duplicate_stream_rejected(self):
        ctx = make_context(EngineMode.AFF_ALLOC)
        a = ctx.alloc(4, 100, "A")
        k = KernelBuilder("k", 100)
        k.load("s", a)
        with pytest.raises(CompileError):
            k.load("s", a)

    def test_zero_trip_rejected(self):
        with pytest.raises(CompileError):
            KernelBuilder("k", 0)

    def test_empty_kernel_rejected(self):
        with pytest.raises(CompileError):
            compile_kernel(KernelBuilder("k", 10))

    def test_unknown_input_rejected(self):
        ctx = make_context(EngineMode.AFF_ALLOC)
        a = ctx.alloc(4, 100, "A")
        k = KernelBuilder("k", 100)
        k.store("sc", a, inputs=["missing"])
        with pytest.raises(CompileError):
            compile_kernel(k)


class TestAnalysis:
    def test_vecadd_graph_matches_fig2a(self):
        ctx = make_context(EngineMode.AFF_ALLOC)
        k, _ = vecadd_kernel(ctx)
        ck = compile_kernel(k)
        names = {s.name: s for s in ck.graph.streams}
        assert names["sa"].kind is StreamKind.AFFINE_LOAD
        assert names["sc"].kind is StreamKind.AFFINE_STORE
        deps = {(d.src, d.dst): d.kind for d in ck.graph.deps}
        assert deps[("sa", "sc")] is DepKind.VALUE
        assert deps[("sb", "sc")] is DepKind.VALUE

    def test_bfs_push_graph_matches_fig2c(self):
        """Queue/edges/atomic streams with address + predicate deps."""
        ctx = make_context(EngineMode.AFF_ALLOC)
        n = 4096
        queue = ctx.alloc(4, n, "Queue")
        edges = ctx.alloc(4, n, "Edges")
        parents = ctx.alloc(8, n, "P", partition=True)
        rng = np.random.default_rng(0)
        dsts = rng.integers(0, n, n)
        k = KernelBuilder("bfs_push", n)
        k.load("st", queue)
        k.load("se", edges)
        k.atomic("sx", parents, address_from="se",
                 target_indices=lambda it: dsts[it])
        ck = compile_kernel(k)
        deps = {(d.src, d.dst): d.kind for d in ck.graph.deps}
        assert deps[("se", "sx")] is DepKind.ADDRESS
        assert ck.decision.offload

    def test_offload_decision_respects_mode(self):
        ctx = make_context(EngineMode.IN_CORE)
        k, _ = vecadd_kernel(ctx)
        assert not compile_kernel(k, EngineMode.IN_CORE).decision.offload

    def test_short_kernel_not_offloaded(self):
        ctx = make_context(EngineMode.AFF_ALLOC)
        k, _ = vecadd_kernel(ctx, n=16)
        assert not compile_kernel(k).decision.offload

    def test_indirect_needs_affine_base(self):
        ctx = make_context(EngineMode.AFF_ALLOC)
        a = ctx.alloc(8, 100, "A")
        b = ctx.alloc(8, 100, "B")
        k = KernelBuilder("k", 100)
        k.atomic("sx", a, address_from="sy",
                 target_indices=lambda it: it)
        k.indirect_load("sy", b, address_from="sx",
                        target_indices=lambda it: it)
        with pytest.raises(CompileError):
            compile_kernel(k)  # cyclic address deps


class TestCodegen:
    def test_plan_step_names(self):
        ctx = make_context(EngineMode.AFF_ALLOC)
        k, _ = vecadd_kernel(ctx)
        ck = compile_kernel(k)
        assert ck.plan.describe() == ["affine_kernel([sa,sb] -> sc)"]

    def test_compiled_vecadd_matches_handwritten_traffic(self):
        """The compiler's plan must generate the same message trace as the
        hand-written workload code (both paths exercised end to end)."""
        n = 4096
        ctx1 = make_context(EngineMode.AFF_ALLOC)
        k, (a1, b1, c1) = vecadd_kernel(ctx1, n)
        ck = compile_kernel(k)
        iters = np.arange(n)
        cores = ctx1.cores_for(n)
        ck.run(ctx1.executor, iters, cores)

        ctx2 = make_context(EngineMode.AFF_ALLOC)
        a2 = ctx2.alloc(4, n, "A")
        b2 = ctx2.alloc(4, n, "B", align_to=a2)
        c2 = ctx2.alloc(4, n, "C", align_to=a2)
        ctx2.executor.affine_kernel(cores, [(a2, iters), (b2, iters)],
                                    out=(c2, iters), ops_per_elem=1.0)

        t1, t2 = ctx1.recorder.traffic, ctx2.recorder.traffic
        assert t1.total_flits() == pytest.approx(t2.total_flits())
        assert t1.flit_hops() == pytest.approx(t2.flit_hops())
        assert (ctx1.recorder.bank_near_ops
                == ctx2.recorder.bank_near_ops).all()

    def test_compiled_indirect_runs(self):
        ctx = make_context(EngineMode.AFF_ALLOC)
        n = 2048
        edges = ctx.alloc(4, n, "Edges")
        props = ctx.alloc(8, n, "P", partition=True)
        rng = np.random.default_rng(1)
        dsts = rng.integers(0, n, n)
        k = KernelBuilder("push", n)
        k.load("se", edges)
        k.atomic("sx", props, address_from="se",
                 target_indices=lambda it: dsts[it])
        ck = compile_kernel(k)
        ck.run(ctx.executor, np.arange(n), ctx.cores_for(n))
        assert ctx.recorder.bank_atomics.sum() == n

    def test_compiled_chase_runs(self):
        ctx = make_context(EngineMode.AFF_ALLOC)
        nodes = np.array([ctx.allocator.malloc_irregular(64)
                          for _ in range(8)])
        k = KernelBuilder("chase", 8)
        k.chase("sp", nodes, np.zeros(8, dtype=np.int64))
        ck = compile_kernel(k)
        ck.run(ctx.executor, np.arange(8), np.zeros(8, dtype=np.int64))
        assert ctx.recorder.bank_line_accesses.sum() == 8.0

    def test_plan_shape_validation(self):
        ctx = make_context(EngineMode.AFF_ALLOC)
        k, _ = vecadd_kernel(ctx)
        ck = compile_kernel(k)
        with pytest.raises(ValueError):
            ck.run(ctx.executor, np.arange(10), np.zeros(5, dtype=np.int64))

    def test_strided_access(self):
        """B[2i + 1]-style affine maps flow through the plan."""
        ctx = make_context(EngineMode.AFF_ALLOC)
        n = 1024
        a = ctx.alloc(4, 2 * n + 1, "A")
        c = ctx.alloc(4, n, "C")
        k = KernelBuilder("strided", n)
        k.load("sa", a, scale=2, offset=1)
        k.store("sc", c, inputs=["sa"])
        ck = compile_kernel(k)
        ck.run(ctx.executor, np.arange(n), ctx.cores_for(n))
        # strided reads touch ~2x the lines of the dense store
        reads = ctx.recorder.bank_line_accesses.sum()
        assert reads > 1.4 * (n / 16)
