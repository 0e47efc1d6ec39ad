"""Flat run metrics and their exactness contract (DESIGN.md §10):
every value in a traced run's ``{key: value}`` mapping is a bit-exact
copy of the ledger value it names, and the ``repro trace`` metrics of
the canonical targets are pinned key for key in
``tests/golden/trace_metrics.json``."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.arch.noc import MessageClass
from repro.core.runtime import AllocStats
from repro.nsc.engine import EngineMode
from repro.obs import TraceConfig, trace_session
from repro.obs.cli import run_trace
from repro.obs.metrics import alloc_metrics, metric_key, run_metrics
from repro.workloads.base import make_context, run_workload

SCALE = 0.05
GOLDEN = Path(__file__).parent / "golden" / "trace_metrics.json"


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
class TestKeys:
    def test_labels_render_sorted_whatever_the_kwargs_order(self):
        assert metric_key("flits") == "flits"
        assert metric_key("flits", cls="data") == "flits{cls=data}"
        assert metric_key("multi", x=1, y=2) == metric_key("multi", y=2, x=1)
        assert metric_key("multi", y=2, x=1) == "multi{x=1,y=2}"

    def test_alloc_metrics_names_every_field(self):
        stats = AllocStats(affine_allocs=3, frees=2)
        m = alloc_metrics(stats)
        assert sorted(m) == sorted(f"alloc_{f.name}"
                                   for f in dataclasses.fields(stats))
        assert m["alloc_affine_allocs"] == 3.0
        assert m["alloc_frees"] == 2.0
        assert m["alloc_fallbacks"] == 0.0


# ----------------------------------------------------------------------
# Series read off a hand-filled recorder
# ----------------------------------------------------------------------
@pytest.fixture
def idle_run(traced_run):
    """A fresh machine and recorder with no traffic, and a RunResult."""
    _, result = traced_run
    return make_context(EngineMode.AFF_ALLOC), result


class TestSeries:
    def test_bank_and_core_series_hold_only_nonzero_entries(self, idle_run):
        ctx, result = idle_run
        rec = ctx.recorder
        rec.bank_line_accesses[3] = 7.0
        rec.core_serial_cycles[1] = 2.5
        m = run_metrics(result, rec, ctx.machine)
        banks = {k: v for k, v in m.items()
                 if k.startswith("bank_line_accesses{")}
        assert banks == {"bank_line_accesses{bank=3}": 7.0}
        cores = {k: v for k, v in m.items()
                 if k.startswith("core_serial_cycles{")}
        assert cores == {"core_serial_cycles{core=1}": 2.5}
        assert not any(k.startswith(("bank_atomics{", "core_ops_per_core{"))
                       for k in m)

    def test_noc_series_list_every_class_even_when_idle(self, idle_run):
        ctx, result = idle_run
        m = run_metrics(result, ctx.recorder, ctx.machine)
        for mcls in MessageClass:
            assert m[f"noc_messages{{cls={mcls.value}}}"] == 0.0
            assert m[f"noc_flits{{cls={mcls.value}}}"] == 0.0
        assert m["noc_max_link_load"] == 0.0

    def test_dropped_events_key_appears_when_events_dropped(self, idle_run):
        ctx, result = idle_run
        m = run_metrics(result, ctx.recorder, ctx.machine, dropped=3)
        assert m["trace_dropped_events"] == 3.0
        assert list(m) == sorted(m)


# ----------------------------------------------------------------------
# Exactness: metrics == ledger values, for a real traced run
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_run():
    with trace_session(TraceConfig(), task="exact") as session:
        result = run_workload("pr_push", EngineMode.AFF_ALLOC, scale=SCALE,
                              seed=0)
    (state,) = session.states
    return state, result


class TestExactness:
    def test_every_runresult_counter_is_mirrored_exactly(self, traced_run):
        state, result = traced_run
        assert result.counters  # the contract is vacuous otherwise
        for key, value in result.counters.items():
            assert state.metrics[key] == value, key

    def test_headline_values_match(self, traced_run):
        state, result = traced_run
        m = state.metrics
        assert m["run_cycles"] == result.cycles
        assert m["run_energy_pj"] == result.energy_pj
        assert m["l3_miss_pct"] == result.l3_miss_pct
        assert m["noc_utilization"] == result.noc_utilization

    def test_flit_hops_by_class_match(self, traced_run):
        state, result = traced_run
        for cls, hops in result.flit_hops_by_class.items():
            assert state.metrics[f"flit_hops{{cls={cls}}}"] == hops

    def test_alloc_stats_mirrored_exactly(self, traced_run):
        state, _ = traced_run
        stats = state._alloc_stats
        assert stats is not None
        for f in dataclasses.fields(stats):
            assert state.metrics[f"alloc_{f.name}"] == \
                float(getattr(stats, f.name)), f.name

    def test_phase_histogram_sums_to_run_cycles(self, traced_run):
        state, result = traced_run
        m = state.metrics
        assert m["phase_cycles_count"] == float(len(result.phase_cycles))
        assert m["phase_cycles_sum"] == pytest.approx(
            sum(c for _, c in result.phase_cycles))
        assert m["phases"] == float(len(result.phase_cycles))

    def test_phase_buckets_are_cumulative(self, traced_run):
        _, result = traced_run
        ctx = make_context(EngineMode.AFF_ALLOC)
        result = dataclasses.replace(
            result, phase_cycles=[("a", 5.0), ("b", 50.0), ("c", 500.0)])
        m = run_metrics(result, ctx.recorder, ctx.machine)
        assert m["phase_cycles_count"] == 3.0
        assert m["phase_cycles_sum"] == 555.0
        assert m["phase_cycles_bucket{le=100}"] == 2.0
        assert m["phase_cycles_bucket{le=1000}"] == 3.0
        assert m["phase_cycles_bucket{le=1e+08}"] == 3.0
        assert m["phase_cycles_bucket{le=+Inf}"] == 3.0
        assert m["phases"] == 3.0

    def test_republication_is_idempotent(self, traced_run):
        """Merging the same AllocStats again leaves the mapping as is."""
        state, _ = traced_run
        before = dict(state.metrics)
        state.on_alloc_stats(state._alloc_stats)
        assert state.metrics == before
        assert list(state.metrics) == list(before)

    def test_keys_are_sorted(self, traced_run):
        state, _ = traced_run
        keys = list(state.metrics)
        assert keys == sorted(keys)

    def test_dropped_events_key_only_when_events_dropped(self, traced_run):
        state, _ = traced_run
        assert state.dropped == 0
        assert "trace_dropped_events" not in state.metrics


class TestGoldenTraceMetrics:
    def test_canonical_targets_match_the_pinned_file(self):
        """``repro trace vecadd pr_push --scale 0.05 --metrics`` output,
        every key and every value."""
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        metrics = run_trace(["vecadd", "pr_push"], scale=SCALE)["metrics"]
        assert sorted(metrics) == sorted(golden)
        for run, expected in golden.items():
            got = metrics[run]
            assert sorted(got) == sorted(expected), run
            moved = {k: (expected[k], got[k]) for k in expected
                     if got[k] != expected[k]}
            assert not moved, (run, moved)


class TestFaultAndRelayoutPublication:
    def test_fault_counters_published_under_chaos(self):
        from repro.faults.injector import fault_session
        from repro.faults.plan import FaultPlan
        plan = FaultPlan.generate(seed=3, rate=0.5, tasks=1)
        with trace_session(TraceConfig()) as tsess:
            with fault_session(plan, task="t") as fsess:
                run_workload("vecadd", EngineMode.AFF_ALLOC, scale=SCALE,
                             seed=0)
        (state,) = tsess.states
        (fstate,) = fsess.states
        m = state.metrics
        assert m["fault_retries"] == float(fstate.retries)
        assert m["fault_host_fallbacks"] == float(fstate.host_fallbacks)
        assert m["fault_armed_alloc_ordinals"] == \
            float(len(fstate.alloc_fail_ordinals))
        assert m["fault_failed_banks"] == \
            float((~fstate.healthy).sum())

    def test_relayout_counters_published_online(self):
        from repro.relayout.engine import relayout_session
        from repro.relayout.policy import RelayoutConfig
        with trace_session(TraceConfig()) as tsess:
            with relayout_session(RelayoutConfig(), task="t") as rsess:
                run_workload("stream_flip", EngineMode.AFF_ALLOC,
                             scale=0.25, seed=0)
        states = [s for s in tsess.states if s.runs]
        assert states
        m = states[-1].metrics
        (rstate,) = rsess.states
        assert m["relayout_applied_total"] == float(rstate.total_applied)
        assert m["relayout_epochs"] == float(rstate.epoch_index)
        applied = [mig for mig in rstate.records if mig.applied]
        assert sum(v for k, v in m.items()
                   if k.startswith("relayout_migrations{applied=true")) == \
            float(len(applied))
        mig_events = [ev for s in tsess.states
                      for ev in s.resolved_events()
                      if ev.get("cat") == "migration"]
        if rstate.total_applied:
            assert mig_events
