"""Cross-plan interference analysis (INT001-INT005): fixture coverage,
prediction-vs-measured tolerance contract, and determinism."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import interference as itf
from repro.analysis.lint import load_tenant_fixture
from repro.analysis.plan import LayoutPlan
from repro.machine import Machine

FIXTURES = (Path(__file__).resolve().parent.parent
            / "examples" / "lint_fixtures" / "interference")


def fixture_expect(path: Path):
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "EXPECT"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    raise AssertionError(f"{path.name} declares no EXPECT")


class TestFixtures:
    @pytest.mark.parametrize("name", sorted(
        p.name for p in FIXTURES.glob("*.py")))
    def test_fixture_triggers_its_expected_codes(self, name):
        path = FIXTURES / name
        tenants, machine = load_tenant_fixture(path)
        result = itf.analyze_interference(tenants, machine)
        found = {d.code for d in result.report}
        expect = fixture_expect(path)
        assert expect <= found, (name, result.report.render())
        # No stray *error*-severity codes beyond the seeded scenario.
        stray = {d.code for d in result.report
                 if d.severity.name == "ERROR"} - expect
        assert not stray, (name, stray)


class TestAnalysis:
    def test_shipped_workload_tenants_are_clean(self):
        tenants = itf.tenants_from_workloads(["vecadd", "pathfinder"])
        result = itf.analyze_interference(tenants, Machine())
        assert not result.report.has_errors, result.report.render()

    def test_duplicate_tenant_names_are_rejected(self):
        plan = LayoutPlan("p")
        plan.array("A", 4, 1024)
        tenants = [itf.Tenant("t", plan), itf.Tenant("t", plan)]
        result = itf.analyze_interference(tenants, Machine())
        assert "INT002" in {d.code for d in result.report}

    def test_quota_overflow_is_int002(self):
        plan = LayoutPlan("p")
        plan.array("A", 4, 1 << 16)   # 256 KiB demand
        tenants = [itf.Tenant("t", plan, quota_bytes=1 << 10)]
        result = itf.analyze_interference(tenants, Machine())
        assert "INT002" in {d.code for d in result.report}

    def test_matrix_shape_and_shares(self):
        tenants = itf.tenants_from_workloads(["vecadd"])
        result = itf.analyze_interference(tenants, Machine())
        m = result.matrix
        assert m.matrix.shape == (1, Machine().num_banks)
        shares = m.shares()
        assert shares.sum(axis=1) == pytest.approx(1.0)
        assert np.all(m.matrix >= 0)

    def test_analysis_is_deterministic(self):
        tenants, machine = load_tenant_fixture(FIXTURES / "hot_bank.py")
        a = itf.analyze_interference(tenants, machine)
        b = itf.analyze_interference(tenants, machine)
        assert np.array_equal(a.matrix.matrix, b.matrix.matrix)
        assert [(d.code, str(d.site)) for d in a.report] \
            == [(d.code, str(d.site)) for d in b.report]

    def test_batched_hops_matches_mesh(self):
        machine = Machine()
        nb = machine.num_banks
        weights = np.zeros((2, nb))
        weights[0, 0] = 1.0            # all mass on bank 0
        weights[1, :] = 1.0 / nb       # uniform
        hops = itf.batched_affinity_hops(weights, machine)
        table = machine.mesh.hops_to_all(np.arange(nb))
        assert hops.shape == (2, nb)
        # All mass on bank 0 -> expected hops are bank 0's hop row.
        np.testing.assert_allclose(hops[0], table[0])
        # Uniform mass -> mean hops from every bank to each candidate.
        np.testing.assert_allclose(hops[1], table.mean(axis=0))


class TestValidation:
    """INT005 acceptance: predictions match measured counters within the
    documented tolerances on shipped workloads."""

    def test_vecadd_within_tolerance(self):
        tenants = itf.tenants_from_workloads(["vecadd"])
        report, rows = itf.validate_contention(tenants, scale=0.12, seed=0)
        assert "INT005" not in {d.code for d in report}, report.render()
        (row,) = rows
        assert row.access_tvd <= itf.ACCESS_SHARE_TOLERANCE
        assert row.flit_tvd <= itf.FLIT_SHARE_TOLERANCE

    def test_pathfinder_within_tolerance(self):
        tenants = itf.tenants_from_workloads(["pathfinder"])
        report, rows = itf.validate_contention(tenants, scale=0.12, seed=0)
        assert "INT005" not in {d.code for d in report}, report.render()
        (row,) = rows
        assert row.access_tvd <= itf.ACCESS_SHARE_TOLERANCE

    def test_hotspot_within_tolerance(self):
        # Its 1024-element bank period aliased the old 4096-point
        # sampler (access TVD 0.069); every element counted, it is exact.
        tenants = itf.tenants_from_workloads(["hotspot"])
        report, rows = itf.validate_contention(tenants, scale=0.12, seed=0)
        assert "INT005" not in {d.code for d in report}, report.render()
        (row,) = rows
        assert row.access_tvd <= itf.ACCESS_SHARE_TOLERANCE

    def test_tvd_helper_contract(self):
        assert itf._tvd(np.array([1.0, 0.0]), np.array([0.0, 1.0])) \
            == pytest.approx(1.0)
        assert itf._tvd(np.array([2.0, 2.0]), np.array([5.0, 5.0])) \
            == pytest.approx(0.0)
        # Zero measurement vs nonzero prediction is maximal divergence.
        assert itf._tvd(np.array([1.0]), np.array([0.0])) == 1.0
        assert itf._tvd(np.array([0.0]), np.array([0.0])) == 0.0


class TestBankCounts:
    """The closed-form per-bank element count equals counting every
    element's Eq. 1 bank."""

    @settings(max_examples=300, deadline=None)
    @given(intrlv=st.sampled_from(Machine().pools.interleaves),
           stride=st.integers(4, 160), start_bank=st.integers(0, 63),
           periods=st.integers(0, 3), extra=st.integers(0, 5000))
    def test_matches_full_enumeration(self, intrlv, stride, start_bank,
                                      periods, extra):
        nb = 64
        span = nb * intrlv
        period = span // math.gcd(stride, span)
        # Whole periods plus a remainder that is, for extra > 0, no
        # multiple of the period (capped to keep enumeration small).
        num_elem = min(periods * period + extra % period, 400_000)
        idx = np.arange(num_elem, dtype=np.int64)
        want = np.bincount((start_bank + idx * stride // intrlv) % nb,
                           minlength=nb)
        got = itf._bank_counts(num_elem, start_bank, stride, intrlv, nb)
        assert np.array_equal(got, want)
