"""afflint static coverage estimator (COV0xx) vs the executor's counters.

The headline property (ISSUE acceptance): the purely static estimate of
the bank-local access fraction matches what the executor actually
measures on vecadd, within 2%, across controlled Δ-bank layouts.
"""

import numpy as np
import pytest

from repro.analysis.coverage import (estimate_kernel_coverage,
                                     estimate_plan_coverage)
from repro.analysis.constraints import lint_plan
from repro.analysis.lint import lint_fixture_file
from repro.core.api import AffineArray
from repro.nsc.compiler import KernelBuilder, compile_kernel
from repro.nsc.engine import EngineMode
from repro.workloads.base import make_context
from repro.workloads.vecadd import _alloc_with_bank_offset

from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "examples" / "lint_fixtures"


def vecadd_delta_kernel(ctx, delta, n):
    a = ctx.allocator.malloc_affine(AffineArray(4, n), name="A")
    b = ctx.allocator.malloc_affine(AffineArray(4, n, align_to=a), name="B")
    c = _alloc_with_bank_offset(ctx, a, delta, "C")
    k = KernelBuilder("vecadd", n)
    k.load("sa", a)
    k.load("sb", b)
    k.store("sc", c, inputs=["sa", "sb"])
    return compile_kernel(k)


class TestEstimatorMatchesExecutor:
    @pytest.mark.parametrize("delta", [0, 1, 7, 32])
    def test_vecadd_within_two_percent(self, delta):
        n = 1 << 14
        ctx = make_context(EngineMode.AFF_ALLOC)
        ck = vecadd_delta_kernel(ctx, delta, n)
        predicted = estimate_kernel_coverage(ck, ctx.machine).local_fraction

        ck.plan.run(ctx.executor, np.arange(n, dtype=np.int64),
                    ctx.cores_for(n))
        rec = ctx.recorder
        assert rec.stream_elem_accesses > 0
        measured = 1.0 - rec.stream_remote_accesses / rec.stream_elem_accesses
        assert abs(predicted - measured) <= 0.02

    def test_aligned_layout_predicts_fully_local(self):
        ctx = make_context(EngineMode.AFF_ALLOC)
        ck = vecadd_delta_kernel(ctx, 0, 1 << 12)
        cov = estimate_kernel_coverage(ck, ctx.machine)
        assert cov.local_fraction == pytest.approx(1.0)
        assert cov.mean_hops == pytest.approx(0.0)

    def test_offset_layout_predicts_remote_forwards(self):
        ctx = make_context(EngineMode.AFF_ALLOC)
        ck = vecadd_delta_kernel(ctx, 32, 1 << 12)
        cov = estimate_kernel_coverage(ck, ctx.machine)
        assert cov.local_fraction == pytest.approx(1 / 3, abs=1e-6)
        assert cov.mean_hops > 0.0


class TestKernelCoverageReport:
    def test_roles_and_weights(self):
        ctx = make_context(EngineMode.AFF_ALLOC)
        n = 1 << 12
        ck = vecadd_delta_kernel(ctx, 0, n)
        cov = estimate_kernel_coverage(ck, ctx.machine)
        roles = {r.stream: r.role for r in cov.rows}
        assert roles == {"sa": "forwarded", "sb": "forwarded",
                         "sc": "store"}
        assert cov.total_accesses == pytest.approx(3 * n)

    def test_render_mentions_kernel(self):
        ctx = make_context(EngineMode.AFF_ALLOC)
        ck = vecadd_delta_kernel(ctx, 0, 1 << 12)
        out = estimate_kernel_coverage(ck, ctx.machine).render()
        assert "vecadd" in out

    def test_low_coverage_fixture_warns(self):
        result = lint_fixture_file(FIXTURES / "low_coverage.py")
        assert "COV001" in result.report.codes()
        (cov,) = result.coverages
        assert cov.local_fraction < 0.5


class TestPlanCoverage:
    def test_aligned_plan_is_fully_local(self):
        from repro.analysis.plan import LayoutPlan
        plan = LayoutPlan("p")
        plan.array("A", 4, 4096)
        plan.array("B", 4, 4096, align_to="A")
        ctx = make_context(EngineMode.AFF_ALLOC)
        _, layouts = lint_plan(plan, ctx.machine)
        report, fractions = estimate_plan_coverage(plan, layouts,
                                                   ctx.machine)
        assert fractions["B"] == pytest.approx(1.0)
        assert not report.has_findings  # notes only
