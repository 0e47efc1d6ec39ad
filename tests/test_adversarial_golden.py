"""Adversarial-zoo golden suite: pinned headline metrics + afflint gate.

Freezes the four adversarial workloads' behaviour in three regimes —
clean, host-contended (``HostTrafficPlan.generate(0)`` at factor 2), and
chaos-faulted (the canonical BANK_FAIL-9 + LINK_FAIL-9-10 plan) — at the
default evaluation scale (0.12, ``AFF_ALLOC``).  Golden values live in
``tests/golden/adversarial_*.json``; regenerate them deliberately when a
modeling change is intentional.

Also gates the zoo's shipped layout plans: every one must come through
afflint with zero errors *and* zero warnings — an adversarial workload
earns its place by stressing the runtime, not by shipping a layout the
linter would already reject.
"""

import json
import math
from pathlib import Path

import pytest

from repro.harness.arms import run_chaos
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.harness.report import run_metrics
from repro.interfere.engine import interfere_session
from repro.interfere.plan import HostTrafficPlan
from repro.nsc.engine import EngineMode
from repro.workloads.base import run_workload

GOLDEN_DIR = Path(__file__).parent / "golden"

ZOO = ("hash_join_skew", "spmv_gather", "alloc_storm", "iot_pressure")
SCALE = 0.12

#: The interference arm's plan: the canonical generated plan at factor 2.
INTERFERE_PLAN = HostTrafficPlan.generate(0).scaled(2.0)

#: The chaos arm's plan — same canonical plan the chaos goldens use.
CHAOS_PLAN = FaultPlan(events=(
    FaultEvent(FaultKind.BANK_FAIL, 9),
    FaultEvent(FaultKind.LINK_FAIL, 9, param=10),
), seed=0)


def load_golden(name):
    return json.loads((GOLDEN_DIR / f"adversarial_{name}.json").read_text())


def check(label, actual, spec):
    want = spec["value"]
    if "rtol" in spec:
        ok = math.isclose(actual, want, rel_tol=spec["rtol"])
        tol = f"rtol={spec['rtol']}"
    else:
        ok = abs(actual - want) <= spec["atol"]
        tol = f"atol={spec['atol']}"
    assert ok, (f"{label} drifted: got {actual!r}, golden {want!r} "
                f"({tol}) — if the change is intentional, update "
                f"tests/golden/adversarial_*.json")


@pytest.fixture(scope="module", params=ZOO)
def arms(request):
    """(name, golden, clean result, contended result, injected msgs)."""
    name = request.param
    golden = load_golden(name)
    clean = run_workload(name, EngineMode.AFF_ALLOC, scale=SCALE, seed=0)
    with interfere_session(INTERFERE_PLAN, task=name) as session:
        contended = run_workload(name, EngineMode.AFF_ALLOC, scale=SCALE,
                                 seed=0)
    msgs = sum(s.injected_messages for s in session.states)
    return name, golden, clean, contended, msgs


class TestCleanGolden:
    def test_metrics_match_golden(self, arms):
        name, golden, clean, _, _ = arms
        m = run_metrics(clean)
        check(f"{name} clean cycles", m["cycles"], golden["clean"]["cycles"])
        check(f"{name} clean flit-hops", m["flit_hops"],
              golden["clean"]["flit_hops"])
        check(f"{name} clean locality", m["locality"],
              golden["clean"]["locality"])

    def test_functional_value_matches_golden(self, arms):
        name, golden, clean, _, _ = arms
        check(f"{name} value", clean.value, golden["clean"]["value"])


class TestInterferedGolden:
    def test_plan_digest_matches_golden(self, arms):
        _, golden, _, _, _ = arms
        assert INTERFERE_PLAN.digest() == golden["interfere_plan"]["digest"]

    def test_contended_metrics_match_golden(self, arms):
        name, golden, _, contended, msgs = arms
        m = run_metrics(contended)
        check(f"{name} contended cycles", m["cycles"],
              golden["interfered"]["cycles"])
        check(f"{name} contended flit-hops", m["flit_hops"],
              golden["interfered"]["flit_hops"])
        check(f"{name} injected messages", msgs,
              golden["interfered"]["injected_messages"])

    def test_contention_never_speeds_up_and_always_adds_hops(self, arms):
        name, _, clean, contended, msgs = arms
        cm, im = run_metrics(clean), run_metrics(contended)
        assert msgs > 0, name
        assert im["cycles"] >= cm["cycles"], name
        assert im["flit_hops"] > cm["flit_hops"], name

    def test_injection_model_verifies(self, arms):
        from repro.analysis.interference import verify_host_injection
        name = arms[0]
        with interfere_session(INTERFERE_PLAN, task=name) as session:
            run_workload(name, EngineMode.AFF_ALLOC, scale=SCALE, seed=0)
        for state in session.states:
            report, _ = verify_host_injection(state)
            assert not report.diagnostics, report.render()


class TestChaosGolden:
    @pytest.fixture(scope="class")
    def chaos_report(self):
        return run_chaos(ZOO, CHAOS_PLAN, mode="AFF_ALLOC", scale=SCALE,
                         seed=0, jobs=1)

    @pytest.mark.parametrize("name", ZOO)
    def test_faulted_metrics_match_golden(self, chaos_report, name):
        golden = load_golden(name)
        row = next(r for r in chaos_report.rows if r["workload"] == name)
        check(f"{name} faulted cycles", row["faulted"]["cycles"],
              golden["chaos"]["faulted_cycles"])
        check(f"{name} faulted flit-hops", row["faulted"]["flit_hops"],
              golden["chaos"]["faulted_flit_hops"])
        assert row["retries"] == golden["chaos"]["retries"]
        assert row["host_fallbacks"] == golden["chaos"]["host_fallbacks"]

    def test_every_fault_handled(self, chaos_report):
        assert chaos_report.unhandled_count == 0


class TestZooLayoutLint:
    def test_zoo_plans_have_zero_findings(self):
        from repro.analysis.lint import lint_workload_plans
        _, per_workload = lint_workload_plans(scale=SCALE)
        for name in ZOO:
            assert name in per_workload, f"{name} declares no layout plan"
            report = per_workload[name]
            findings = [d for d in report.diagnostics
                        if d.severity.name in ("ERROR", "WARNING")]
            assert not findings, (
                f"{name}: {[d.render() for d in findings]}")

    def test_zoo_registered_everywhere(self):
        from repro.harness.runner import EXPERIMENTS
        from repro.workloads import WORKLOADS
        for name in ZOO:
            assert name in WORKLOADS
        assert "interfere" in EXPERIMENTS
