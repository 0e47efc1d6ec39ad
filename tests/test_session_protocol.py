"""The behaviour the shared session protocol and fan-out must keep.

* Per-kind activity and shadowing: an inner inactive (or empty) session
  of a kind hides an outer active one of the same kind — except faults,
  whose sessions always attach, even with an empty plan.  Autoplace's
  static arm relies on ``relayout_session(None)`` shadowing.
* The scenario layers occupy exactly the ``Machine`` slots the
  self-sanitizer guards (``FEATURE_ATTRS``), each None on the clean path.
* Fan-out: task-order results and identical restart notices for
  ``jobs`` 1 and 2, and the restart cap enforced under both.
"""

import pytest

from repro.analysis.diagnostics import WorkerCrashError
from repro.analysis.selfcheck import FEATURE_ATTRS
from repro.faults import FaultEvent, FaultKind, FaultPlan, fault_session
from repro.harness import runner
from repro.harness.cliutil import MAX_RESTARTS, fan_out
from repro.interfere import HostTrafficPlan, interfere_session
from repro.nsc.engine import EngineMode
from repro.obs import TraceConfig, trace_session
from repro.relayout import RelayoutConfig, relayout_session
from repro.workloads.base import make_context

#: slot -> (active outer session, inner session, inner attaches?)
KINDS = {
    "faults": (lambda: fault_session(FaultPlan.generate(0, 0.05)),
               lambda: fault_session(FaultPlan.empty()), True),
    "relayout": (lambda: relayout_session(RelayoutConfig()),
                 lambda: relayout_session(None), False),
    "tracer": (lambda: trace_session(TraceConfig()),
               lambda: trace_session(None), False),
    "interference": (lambda: interfere_session(HostTrafficPlan.generate(0)),
                     lambda: interfere_session(HostTrafficPlan.empty()),
                     False),
}


def _machine():
    return make_context(EngineMode.AFF_ALLOC).machine


@pytest.mark.parametrize("slot", sorted(KINDS))
def test_inner_session_shadows_outer(slot):
    outer_cm, inner_cm, inner_attaches = KINDS[slot]
    with outer_cm() as outer:
        with inner_cm() as inner:
            shadowed = getattr(_machine(), slot)
        restored = getattr(_machine(), slot)
    if inner_attaches:
        assert shadowed is inner.states[0]
    else:
        assert shadowed is None and inner.states == []
    assert outer.states == [restored]
    assert getattr(_machine(), slot) is None


def test_feature_attrs_are_the_session_slots():
    clean = _machine()
    assert all(getattr(clean, slot) is None for slot in FEATURE_ATTRS)
    with fault_session(FaultPlan.empty()), \
            relayout_session(RelayoutConfig()), \
            trace_session(TraceConfig()), \
            interfere_session(HostTrafficPlan.generate(0)):
        attached = _machine()
    filled = {name for name, value in vars(clean).items()
              if value is None and getattr(attached, name) is not None}
    assert filled == FEATURE_ATTRS == set(KINDS)


# ----------------------------------------------------------------------
# Fan-out
# ----------------------------------------------------------------------
IDS = ("table1", "table2", "table3")


def _crash_plan(ordinal, crashes):
    return FaultPlan(events=(
        FaultEvent(FaultKind.WORKER_CRASH, ordinal, param=crashes),), seed=0)


def _figures(jobs, plan, lines=None):
    return runner.run_figures(IDS, jobs=jobs, scale=0.05, seed=0,
                              use_cache=False, preflight=False,
                              fault_plan=plan,
                              progress=None if lines is None
                              else lines.append)


def test_restarts_are_jobs_independent():
    plan = _crash_plan(1, 2)
    serial_lines, parallel_lines = [], []
    serial = _figures(1, plan, serial_lines)
    parallel = _figures(2, plan, parallel_lines)
    assert serial.metrics_json() == parallel.metrics_json()
    assert [f.id for f in parallel.figures] == list(IDS)

    def restarts(lines):
        return [ln for ln in lines if ln.startswith("[restart]")]
    assert restarts(serial_lines) == restarts(parallel_lines) == [
        f"[restart] table2 worker crashed (injected); restart {n}/3"
        for n in (1, 2)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_crash_cap_exceeded_raises(jobs):
    with pytest.raises(WorkerCrashError):
        _figures(jobs, _crash_plan(0, MAX_RESTARTS + 1))


def _square(task, crash=False):
    if crash:
        raise WorkerCrashError(task)
    return int(task) ** 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_fan_out_merges_in_task_order(jobs):
    lines = []
    results, restarts = fan_out(_square, ["3", "1", "2"], jobs,
                                crash_budget={"1": 2}, notify=lines.append)
    assert results == [9, 1, 4]
    assert restarts == {"1": 2}
    assert sorted(ln for ln in lines if ln.startswith("[done]")) == [
        "[done] 1", "[done] 2", "[done] 3"]
    assert [ln for ln in lines if ln.startswith("[restart]")] == [
        f"[restart] 1 worker crashed (injected); restart {n}/"
        f"{MAX_RESTARTS}" for n in (1, 2)]
