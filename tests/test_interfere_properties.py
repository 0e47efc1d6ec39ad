"""Property-based tests over the host-interference invariants.

The interference engine's load-bearing contracts, pinned across
randomized plans:

* plan generation is a pure function of ``(seed, intensity)`` and
  survives a JSON round trip — plans ship to worker processes and into
  golden files without drift;
* ``burst_multiplier`` stays inside ``(1-burst, 1+burst)`` and is
  keyed by ``(seed, stream, epoch)`` only — scaling a plan's intensity
  never changes the burst sequence, which is what makes intensity
  sweeps strictly monotone;
* the engine's injected-traffic ledger matches the pure
  :func:`predict_host_injection` replay exactly (the INT006 contract),
  for arbitrary generated plans;
* the same plan and seed inject the same traffic, byte for byte;
* an *empty* plan is invisible: nothing attaches, and both a direct
  run and a full ``run_figures`` ``run-<hash>.json`` are bit-identical
  to clean runs;
* slowdown is monotone in host intensity where contention binds;
* ``jobs=1`` and ``jobs=2`` sweeps produce identical reports.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import cache as cache_mod
from repro.cache import ArtifactCache
from repro.harness import runner
from repro.interfere.engine import interfere_session
from repro.interfere.plan import (
    HostStream,
    HostStreamKind,
    HostTrafficPlan,
    burst_multiplier,
    predict_host_injection,
)
from repro.nsc.engine import EngineMode
from repro.workloads import run_workload

relaxed = settings(max_examples=40, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])
#: For properties that run a full (tiny) workload per example.
slow = settings(max_examples=4, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

NUM_BANKS = 64
WORKLOAD = "vecadd"
SCALE = 0.05


def run_clean():
    return run_workload(WORKLOAD, EngineMode.AFF_ALLOC, scale=SCALE, seed=0)


def run_under(plan):
    with interfere_session(plan, task="prop") as session:
        result = run_workload(WORKLOAD, EngineMode.AFF_ALLOC, scale=SCALE,
                              seed=0)
    return result, session


# ----------------------------------------------------------------------
# Hypothesis strategies for hand-built plans
# ----------------------------------------------------------------------
def streams(kinds=tuple(HostStreamKind)):
    return st.builds(
        HostStream,
        kind=st.sampled_from(kinds),
        tile=st.integers(0, NUM_BANKS - 1),
        targets=st.lists(st.integers(0, NUM_BANKS - 1), min_size=1,
                         max_size=6, unique=True).map(tuple),
        intensity=st.floats(0.1, 50.0, allow_nan=False),
        burst=st.floats(0.0, 0.9, allow_nan=False,
                        exclude_max=True),
    )


def plans():
    return st.builds(
        HostTrafficPlan,
        streams=st.lists(streams(), min_size=1, max_size=5).map(tuple),
        seed=st.integers(0, 10_000),
        intensity=st.just(1.0),
    )


# ----------------------------------------------------------------------
# Plan generation: deterministic, serializable
# ----------------------------------------------------------------------
class TestPlanDeterminism:
    @relaxed
    @given(seed=st.integers(0, 10_000),
           intensity=st.floats(0.1, 16.0, allow_nan=False))
    def test_generate_is_pure_in_seed_and_intensity(self, seed, intensity):
        a = HostTrafficPlan.generate(seed, intensity=intensity)
        b = HostTrafficPlan.generate(seed, intensity=intensity)
        assert a == b
        assert a.to_json() == b.to_json()
        assert a.digest() == b.digest()

    @relaxed
    @given(plan=plans())
    def test_json_round_trip(self, plan):
        assert HostTrafficPlan.from_json(plan.to_json()) == plan

    @relaxed
    @given(seed=st.integers(0, 10_000))
    def test_generated_streams_are_valid(self, seed):
        plan = HostTrafficPlan.generate(seed)
        assert not plan.is_empty
        for stream in plan.streams:
            assert 0 <= stream.tile < NUM_BANKS
            assert all(0 <= t < NUM_BANKS for t in stream.targets)
            assert stream.intensity > 0
            assert 0 <= stream.burst < 1

    @relaxed
    @given(plan=plans(),
           factor=st.floats(0.1, 8.0, allow_nan=False))
    def test_scaled_multiplies_every_intensity(self, plan, factor):
        scaled = plan.scaled(factor)
        assert scaled.seed == plan.seed
        for before, after in zip(plan.streams, scaled.streams):
            assert after.intensity == pytest.approx(
                before.intensity * factor)
        # scaling is visible to the cache key
        if abs(factor - 1.0) > 1e-9:
            assert scaled.digest() != plan.digest()


class TestBurstMultiplier:
    @relaxed
    @given(seed=st.integers(0, 10_000), stream=st.integers(0, 16),
           epoch=st.integers(0, 1000),
           burst=st.floats(0.0, 0.99, allow_nan=False))
    def test_bounds_and_purity(self, seed, stream, epoch, burst):
        m = burst_multiplier(seed, stream, epoch, burst)
        assert 1.0 - burst <= m <= 1.0 + burst
        assert m == burst_multiplier(seed, stream, epoch, burst)

    @relaxed
    @given(seed=st.integers(0, 10_000), stream=st.integers(0, 16),
           epoch=st.integers(0, 1000))
    def test_zero_burst_is_identity(self, seed, stream, epoch):
        assert burst_multiplier(seed, stream, epoch, 0.0) == 1.0


# ----------------------------------------------------------------------
# Engine vs pure replay (the INT006 contract, as a property)
# ----------------------------------------------------------------------
class TestInjectionModel:
    @slow
    @given(plan=plans())
    def test_ledger_matches_pure_replay(self, plan):
        _, session = run_under(plan)
        assert len(session.states) == 1
        state = session.states[0]
        predicted = predict_host_injection(plan, state.epoch_index,
                                           NUM_BANKS)
        np.testing.assert_allclose(state.injected_raw_accesses,
                                   predicted["bank_accesses"], rtol=1e-9)
        np.testing.assert_allclose(state.injected_raw_atomics,
                                   predicted["bank_atomics"], rtol=1e-9)
        assert state.injected_messages == pytest.approx(
            float(predicted["messages"]), rel=1e-9)

    @slow
    @given(plan=plans())
    def test_verify_host_injection_passes(self, plan):
        from repro.analysis.interference import verify_host_injection
        _, session = run_under(plan)
        report, residuals = verify_host_injection(session.states[0])
        assert not report.diagnostics, report.render()
        assert all(r <= 1e-9 for r in residuals.values())


# ----------------------------------------------------------------------
# Same seed, same traffic
# ----------------------------------------------------------------------
class TestSameSeedSameTraffic:
    def test_repeat_runs_inject_identically(self):
        plan = HostTrafficPlan.generate(7)
        r1, s1 = run_under(plan)
        r2, s2 = run_under(plan)
        a, b = s1.states[0], s2.states[0]
        assert a.epoch_index == b.epoch_index
        np.testing.assert_array_equal(a.injected_bank_accesses,
                                      b.injected_bank_accesses)
        np.testing.assert_array_equal(a.injected_bank_atomics,
                                      b.injected_bank_atomics)
        assert a.injected_messages == b.injected_messages
        assert a.epochs == b.epochs
        assert r1.cycles == r2.cycles
        assert r1.counters == r2.counters

    def test_different_seeds_inject_differently(self):
        base = HostTrafficPlan.generate(0)
        other = HostTrafficPlan.generate(1)
        assert base.digest() != other.digest()


# ----------------------------------------------------------------------
# Empty plans are invisible
# ----------------------------------------------------------------------
class TestEmptyPlanIdentity:
    def test_empty_plan_attaches_nothing(self):
        with interfere_session(HostTrafficPlan.empty(), task="x") as session:
            result = run_workload(WORKLOAD, EngineMode.AFF_ALLOC,
                                  scale=SCALE, seed=0)
        assert session.states == []
        clean = run_clean()
        assert result.cycles == clean.cycles
        assert result.counters == clean.counters
        assert "host_injected_messages" not in result.counters

    def test_nonempty_plan_adds_host_counters(self):
        result, _ = run_under(HostTrafficPlan.generate(0))
        assert result.counters["host_injected_messages"] > 0
        assert result.counters["host_epochs"] >= 1

    @pytest.fixture
    def fresh_cache(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cache_mod, "_CACHE",
            ArtifactCache(root=tmp_path / "cache", enabled=True))

    def test_empty_plan_results_file_byte_identical(self, fresh_cache,
                                                    tmp_path):
        ids = ("table1", "fig4")
        plain = runner.run_figures(ids, jobs=1, scale=SCALE, seed=0,
                                   use_cache=False,
                                   results_dir=tmp_path / "a",
                                   preflight=False)
        empty = runner.run_figures(ids, jobs=1, scale=SCALE, seed=0,
                                   use_cache=False,
                                   results_dir=tmp_path / "b",
                                   preflight=False,
                                   interfere=HostTrafficPlan.empty())
        assert Path(plain.path).name == Path(empty.path).name
        assert Path(plain.path).read_bytes() == Path(empty.path).read_bytes()

    def test_contended_run_never_pollutes_clean_cache(self, fresh_cache,
                                                      tmp_path):
        ids = ("fig4",)
        plan = HostTrafficPlan.generate(0)
        cold = runner.run_figures(ids, scale=SCALE, seed=0, preflight=False)
        contended = runner.run_figures(ids, scale=SCALE, seed=0,
                                       preflight=False, interfere=plan)
        warm = runner.run_figures(ids, scale=SCALE, seed=0, preflight=False)
        assert warm.metrics_json() == cold.metrics_json()
        assert not cold.figures[0].from_cache
        # the contended run computed fresh (distinct cache key) ...
        assert not contended.figures[0].from_cache
        # ... and the clean rerun hit the clean entry, untouched
        assert warm.figures[0].from_cache


# ----------------------------------------------------------------------
# Monotone slowdown + jobs determinism
# ----------------------------------------------------------------------
class TestSlowdownMonotonicity:
    def test_cycles_strictly_increase_with_intensity(self):
        plan = HostTrafficPlan.generate(0)
        clean = run_clean()
        cycles = [clean.cycles]
        for factor in (0.5, 1.0, 2.0, 4.0):
            result, _ = run_under(plan.scaled(factor))
            cycles.append(result.cycles)
        assert cycles == sorted(cycles)
        # contention binds on vecadd: the sweep is *strictly* monotone
        assert all(a < b for a, b in zip(cycles, cycles[1:]))


class TestJobsDeterminism:
    @pytest.fixture(scope="class")
    def reports(self):
        from repro.harness.arms import run_interfere
        plan = HostTrafficPlan.generate(0)
        names = ("vecadd", "alloc_storm")
        serial = run_interfere(names, plan, scale=SCALE, seed=0,
                               factors=(1.0, 4.0), jobs=1)
        parallel = run_interfere(names, plan, scale=SCALE, seed=0,
                                 factors=(1.0, 4.0), jobs=2)
        return serial, parallel

    def test_serial_equals_parallel_report(self, reports):
        serial, parallel = reports
        assert serial.to_json() == parallel.to_json()
        assert json.loads(serial.to_json())["rows"][0]["workload"] == "vecadd"

    @pytest.mark.parametrize("part, digest", [
        ("report", "c87a536a14967e55e521ebdca4244b22"
                   "492dd104417f9f7f71787ad96ee87356"),
        ("render", "46b967bffe85a45c459e75ec1f582819"
                   "6e78ce7a70070177cb5e603b5fb0d0ec"),
    ])
    def test_serial_report_bytes_pinned(self, reports, part, digest):
        # A refactor of the report code must not move a byte.
        serial, _ = reports
        text = serial.to_json() if part == "report" else serial.render()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, part
