"""Chaos golden suite: pinned degraded metrics + determinism contract.

Freezes the graceful-degradation behaviour under the *canonical* fault
plan — one re-homed bank failure (bank 9, run phase) plus one dead NoC
link (tiles 9-10) — for one affine workload (vecadd) and one graph
workload (pr_push).  Golden values live in ``tests/golden/chaos_*.json``;
regenerate them deliberately when a modeling change is intentional.

Also pins the whole-stream host fallback: a plan whose no-re-home bank
every stream touches runs ``spmv_gather`` as host execution on the
Aff-Alloc layout, which beats both the clean run and In-Core (DESIGN
§8).

And pins the chaos determinism contract:

* ``--jobs 1`` and ``--jobs N`` produce identical event logs, reports,
  and restart counts, including under injected worker crashes;
* an empty fault plan leaves ``results/run-<hash>.json`` byte-identical
  to a plain run, and injected worker crashes never change the payload —
  only the restart bookkeeping.

The canonical report's JSON and rendered text and its event log JSON are
pinned by sha256, so a refactor of the report code cannot move a byte.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro import cache as cache_mod
from repro.cache import ArtifactCache
from repro.faults import fault_session
from repro.harness.arms import run_chaos
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.harness import runner
from repro.harness.cliutil import MAX_RESTARTS
from repro.nsc.engine import EngineMode
from repro.workloads.base import run_workload

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The canonical plan the golden metrics were generated under.
CANONICAL_PLAN = FaultPlan(events=(
    FaultEvent(FaultKind.BANK_FAIL, 9),            # run-phase, re-homed
    FaultEvent(FaultKind.LINK_FAIL, 9, param=10),  # kill link 9 <-> 10
), seed=0)

WORKLOADS = ("vecadd", "pr_push")
SCALE = 0.05


def load_golden(name):
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


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
                f"tests/golden/chaos_*.json")


@pytest.fixture(scope="module")
def canonical_report():
    return run_chaos(WORKLOADS, CANONICAL_PLAN, scale=SCALE, seed=0, jobs=1)


def _row(report, workload):
    return next(r for r in report.rows if r["workload"] == workload)


class TestCanonicalGolden:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_degraded_metrics_match_golden(self, canonical_report, workload):
        golden = load_golden(f"chaos_{workload}")
        row = _row(canonical_report, workload)
        m = golden["metrics"]
        for phase in ("clean", "faulted"):
            check(f"{workload} {phase} cycles", row[phase]["cycles"],
                  m[f"{phase}_cycles"])
            check(f"{workload} {phase} flit-hops", row[phase]["flit_hops"],
                  m[f"{phase}_flit_hops"])
            check(f"{workload} {phase} locality", row[phase]["locality"],
                  m[f"{phase}_locality"])
        assert row["retries"] == golden["counts"]["retries"]
        assert row["host_fallbacks"] == golden["counts"]["host_fallbacks"]

    def test_every_fault_handled(self, canonical_report):
        assert canonical_report.unhandled_count == 0
        assert canonical_report.log.handled_count() == 6

    def test_event_log_shape(self, canonical_report):
        recs = canonical_report.log.records
        per_task = {w: [r for r in recs if r.task == w] for w in WORKLOADS}
        for workload, rs in per_task.items():
            actions = [r.action for r in rs]
            # armed at boot, fired at first primitive, retried once
            assert actions == ["injected", "injected", "rehomed",
                               "rerouted", "retry"], workload
            rehomed = next(r for r in rs if r.action == "rehomed")
            assert rehomed.target == "9"
            assert "bank 9 -> bank 1" in rehomed.detail
            rerouted = next(r for r in rs if r.action == "rerouted")
            assert rerouted.target == "9-10"

    @pytest.mark.parametrize("part, digest", [
        ("report", "3d84afa21e0ccd35652515e03ebafd97"
                   "c03a191f2e57dac8e6877956ac154c8e"),
        ("render", "ae3727cc82d13fcfb523fee7150f0a11"
                   "d647f6ba6afd96e54a56945912b37fdd"),
        ("log", "0ef5fe74e95d6b579ec90847b7b436ea"
                "4d18ba15a42898d36e9935048096f71c"),
    ])
    def test_bytes_pinned(self, canonical_report, part, digest):
        text = {"report": canonical_report.to_json,
                "render": canonical_report.render,
                "log": canonical_report.log.to_json}[part]()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, part

    def test_degradation_is_graceful_not_free(self, canonical_report):
        for workload in WORKLOADS:
            row = _row(canonical_report, workload)
            assert row["faulted"]["cycles"] >= row["clean"]["cycles"]
            # the dead link forces a detour: strictly more flit-hops
            assert row["faulted"]["flit_hops"] > row["clean"]["flit_hops"]
            # but locality never collapses: within 1% of the clean run
            assert row["faulted"]["locality"] >= \
                row["clean"]["locality"] - 0.01


class TestWholeStreamFallback:
    """``FaultPlan.generate(0, 0.05)`` fails bank 11 without re-homing,
    and every ``spmv_gather`` stream touches it, so every offload falls
    back to the host.  The run is host execution on the Aff-Alloc
    layout: In-Core's counters, but shorter links to the data."""

    SCALE = 0.25

    @pytest.fixture(scope="class")
    def runs(self):
        def run(mode):
            return run_workload("spmv_gather", mode, scale=self.SCALE, seed=0)

        with fault_session(FaultPlan.generate(0, 0.05)):
            faulted = run(EngineMode.AFF_ALLOC)
        return faulted, run(EngineMode.AFF_ALLOC), run(EngineMode.IN_CORE)

    def test_counters_equal_in_core(self, runs):
        faulted, _clean, in_core = runs
        for key, want in (("messages", 225894), ("total_flits", 517324),
                          ("l3_accesses", 80179), ("core_ops", 458752)):
            assert faulted.counters[key] == in_core.counters[key] == want, key
        assert faulted.counters["near_ops"] == 0

    def test_fallback_reads_as_a_speedup(self, runs):
        faulted, clean, in_core = runs
        assert (faulted.cycles, clean.cycles, in_core.cycles) == (
            13780, 133738, 82670)
        assert faulted.cycles < clean.cycles
        assert faulted.cycles < in_core.cycles


class TestJobsDeterminism:
    """Same plan + seed => identical log/report for jobs=1 and jobs=N,
    with an injected worker crash in the mix."""

    PLAN = FaultPlan(events=(
        FaultEvent(FaultKind.BANK_FAIL, 9),
        FaultEvent(FaultKind.LINK_FAIL, 9, param=10),
        FaultEvent(FaultKind.WORKER_CRASH, 1, param=1),  # crashes pr_push
    ), seed=0)

    @pytest.fixture(scope="class")
    def reports(self):
        serial = run_chaos(WORKLOADS, self.PLAN, scale=0.03, seed=0, jobs=1)
        parallel = run_chaos(WORKLOADS, self.PLAN, scale=0.03, seed=0,
                             jobs=2)
        return serial, parallel

    def test_serial_equals_parallel(self, reports):
        serial, parallel = reports
        assert serial.log == parallel.log
        assert serial.to_json() == parallel.to_json()

    def test_crash_was_injected_and_restarted(self, reports):
        serial, parallel = reports
        for rep in (serial, parallel):
            assert rep.restarts == {"pr_push": 1}
            assert rep.log.count("crash") == 1
            assert rep.log.count("restart") == 1
            assert rep.unhandled_count == 0

    def test_crash_records_precede_task_records(self, reports):
        serial, _ = reports
        pr = [r for r in serial.log.records if r.task == "pr_push"]
        assert pr[0].action == "crash"
        assert pr[1].action == "restart"


class TestRunnerFaultPlan:
    """run_figures(fault_plan=...): crashes restart, payloads never
    change, and an empty plan keeps run-<hash>.json byte-identical."""

    IDS = ("table1", "fig17")
    SCALE = 0.05

    @pytest.fixture
    def fresh_cache(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cache_mod, "_CACHE",
            ArtifactCache(root=tmp_path / "cache", enabled=True))

    def _results_bytes(self, report):
        assert report.path is not None
        return Path(report.path).read_bytes()

    def test_empty_plan_results_file_byte_identical(self, fresh_cache,
                                                    tmp_path):
        plain = runner.run_figures(self.IDS, jobs=1, scale=self.SCALE,
                                   seed=0, use_cache=False,
                                   results_dir=tmp_path / "a")
        empty = runner.run_figures(self.IDS, jobs=1, scale=self.SCALE,
                                   seed=0, use_cache=False,
                                   results_dir=tmp_path / "b",
                                   fault_plan=FaultPlan.empty())
        assert Path(plain.path).name == Path(empty.path).name
        assert self._results_bytes(plain) == self._results_bytes(empty)

    def test_worker_crash_restarts_serial_and_parallel(self, fresh_cache,
                                                       tmp_path):
        # ordinal 1 -> fig17; one crash, then a clean restart
        plan = FaultPlan(events=(
            FaultEvent(FaultKind.WORKER_CRASH, 1, param=1),), seed=0)
        lines = []
        plain = runner.run_figures(self.IDS, jobs=1, scale=self.SCALE,
                                   seed=0, use_cache=False)
        for jobs in (1, 2):
            crashed = runner.run_figures(
                self.IDS, jobs=jobs, scale=self.SCALE, seed=0,
                use_cache=False, fault_plan=plan,
                progress=lines.append)
            assert crashed.metrics_json() == plain.metrics_json()
        restart_lines = [ln for ln in lines if "restart" in ln]
        assert len(restart_lines) == 2  # one per jobs setting
        assert all("fig17" in ln for ln in restart_lines)

    def test_crash_budget_beyond_cap_raises(self, fresh_cache):
        from repro.analysis.diagnostics import WorkerCrashError
        plan = FaultPlan(events=(
            FaultEvent(FaultKind.WORKER_CRASH, 1,
                       param=MAX_RESTARTS + 1),), seed=0)
        with pytest.raises(WorkerCrashError):
            runner.run_figures(self.IDS, jobs=1, scale=self.SCALE, seed=0,
                               use_cache=False, fault_plan=plan)
