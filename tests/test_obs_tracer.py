"""Observability tracer contracts (DESIGN.md §10).

The two properties everything else hangs off:

* **clean-path identity** — a run with no trace session (or an explicit
  ``trace_session(None)``) produces exactly the results an untraced run
  does, down to the ``run-<hash>.json`` bytes; and tracing itself never
  perturbs the modeled numbers.
* **virtual-time determinism** — resolved events are a pure function of
  the run: same (workload, scale, seed, config) → identical event
  streams, with every instant placed inside its phase span.
"""

import json

import pytest

from repro.nsc.engine import EngineMode
from repro.obs import (SPAN_CATEGORIES, TraceConfig, TraceSession,
                       trace_session)
from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.scenario import Scenario
from repro.session import active
from repro.workloads.base import run_workload

SCALE = 0.05


def _traced_vecadd(cfg=TraceConfig(), seed=0):
    with trace_session(cfg, task="t") as session:
        result = run_workload("vecadd", EngineMode.AFF_ALLOC, scale=SCALE,
                              seed=seed)
    return session, result


# ----------------------------------------------------------------------
# Clean-path identity
# ----------------------------------------------------------------------
class TestCleanPathIdentity:
    def test_tracing_does_not_perturb_results(self):
        plain = run_workload("vecadd", EngineMode.AFF_ALLOC, scale=SCALE,
                             seed=0)
        _, traced = _traced_vecadd()
        assert traced.cycles == plain.cycles
        assert traced.energy_pj == plain.energy_pj
        assert traced.counters == plain.counters
        assert traced.phase_cycles == plain.phase_cycles

    def test_off_session_attaches_nothing(self):
        with trace_session(None) as session:
            assert active(TraceSession) is session
            assert not session.active
            result = run_workload("vecadd", EngineMode.AFF_ALLOC,
                                  scale=SCALE, seed=0)
        assert session.states == []
        assert result.cycles > 0

    def test_sessions_nest_and_restore(self):
        assert active(TraceSession) is None
        with trace_session(TraceConfig()) as outer:
            with trace_session(None) as inner:
                assert active(TraceSession) is inner
            assert active(TraceSession) is outer
        assert active(TraceSession) is None

    def test_run_hash_json_byte_identical(self, tmp_path):
        """Tracing must not leak into the results JSON: same bytes, same
        ``run-<hash>.json`` filename, trace on or off."""
        from repro.harness import runner
        plain = runner.run_figures(("fig4", "table1"), jobs=1, scale=SCALE,
                                   seed=0,
                                   results_dir=tmp_path / "off",
                                   preflight=False)
        traced = runner.run_figures(("fig4", "table1"), jobs=1, scale=SCALE,
                                    seed=0,
                                    results_dir=tmp_path / "on",
                                    preflight=False, trace=TraceConfig())
        assert plain.path.name == traced.path.name
        assert plain.path.read_bytes() == traced.path.read_bytes()

    def test_trace_config_extends_cache_key(self, tmp_path):
        """trace=None and trace=cfg must not share figure-cache entries
        (a hit would silently skip the traced execution)."""
        from repro.harness import runner
        r1 = runner._run_one("table1", SCALE, 0, True, str(tmp_path))
        r2 = runner._run_one("table1", SCALE, 0, True, str(tmp_path),
                             scenario=Scenario(trace=TraceConfig()))
        assert not r2["from_cache"]
        assert r1["rows"] == r2["rows"]


# ----------------------------------------------------------------------
# Span taxonomy + virtual-time resolution
# ----------------------------------------------------------------------
class TestResolution:
    def test_span_taxonomy(self):
        session, _ = _traced_vecadd()
        (state,) = session.states
        events = state.resolved_events()
        cats = {ev["cat"] for ev in events if "cat" in ev}
        assert cats <= set(SPAN_CATEGORIES)
        assert {"run", "phase", "alloc", "stream"} <= cats
        run_spans = [ev for ev in events
                     if ev["type"] == "span" and ev["cat"] == "run"]
        assert len(run_spans) == 1

    def test_instants_fall_inside_the_run_span(self):
        session, result = _traced_vecadd()
        (state,) = session.states
        events = state.resolved_events()
        (run_span,) = [ev for ev in events
                       if ev["type"] == "span" and ev["cat"] == "run"]
        assert run_span["dur"] == pytest.approx(result.cycles)
        for ev in events:
            assert 0.0 <= ev["ts"] <= run_span["dur"] + 1.0
            if ev["type"] == "instant":
                assert 0.0 < ev["ts"] < run_span["dur"]

    def test_phase_spans_tile_the_run(self):
        session, result = _traced_vecadd()
        (state,) = session.states
        phases = [ev for ev in state.resolved_events()
                  if ev["type"] == "span" and ev["cat"] == "phase"]
        assert [p["name"] for p in phases] == \
            [lbl for lbl, _ in result.phase_cycles]
        t = 0.0
        for p, (_lbl, cyc) in zip(phases, result.phase_cycles):
            assert p["ts"] == pytest.approx(t)
            assert p["dur"] == pytest.approx(cyc)
            t += cyc

    def test_virtual_time_is_deterministic(self):
        s1, _ = _traced_vecadd()
        s2, _ = _traced_vecadd()
        e1 = s1.states[0].resolved_events()
        e2 = s2.states[0].resolved_events()
        assert json.dumps(e1, sort_keys=True) == json.dumps(e2,
                                                            sort_keys=True)

    def test_chrome_export_validates(self):
        session, _ = _traced_vecadd()
        (state,) = session.states
        trace = chrome_trace([{"pid": 0, "label": "vecadd",
                               "events": state.resolved_events()}])
        assert validate_chrome_trace(trace) == []

    def test_include_args_off_drops_args(self):
        session, _ = _traced_vecadd(TraceConfig(include_args=False))
        (state,) = session.states
        for ev in state.resolved_events():
            if ev["type"] == "instant":
                assert ev["args"] == {}

    def test_max_events_cap_counts_overflow(self):
        session, _ = _traced_vecadd(TraceConfig(max_events=2))
        (state,) = session.states
        assert len(state.events) == 2
        assert state.dropped > 0
        assert state.registry.value("trace_dropped_events") == \
            float(state.dropped)

    def test_config_digest_is_stable_and_distinct(self):
        a, b = TraceConfig(), TraceConfig(max_events=7)
        assert a.digest() == TraceConfig().digest()
        assert len(a.digest()) == 12
        assert a.digest() != b.digest()
