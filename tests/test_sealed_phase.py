"""Sealed phase records: the accountant reduces each phase's traffic to
channel loads and per-class totals at ``end_phase``.

* Timing a run from the sealed records is bit-identical to timing the
  dense per-class pair deltas the records once held
  (:func:`tests.oracles.install_dense_phases`), on clean runs, under the
  contended zoo's session stack, and under a run-phase link failure.
* A phase is timed on the topology it was sealed on.
* No phase record holds an array larger than the channel vector.
"""

import dataclasses
from contextlib import ExitStack

import numpy as np
import pytest

from repro.arch.noc import MessageClass, pair_channel_loads
from repro.faults import FaultPlan, fault_session
from repro.faults.log import FaultEventLog
from repro.faults.plan import FaultEvent, FaultKind
from repro.interfere.engine import interfere_session
from repro.interfere.plan import HostTrafficPlan
from repro.machine import Machine
from repro.obs.tracer import TraceConfig, trace_session
from repro.perf.model import PerfModel
from repro.perf.stats import RunRecorder
from repro.relayout.engine import relayout_session
from repro.relayout.policy import RelayoutConfig
from repro.workloads import EngineMode, run_workload
from tests import oracles

#: One kernel from each benchmark workload (the affine stencils, the
#: irregular graphs, the zoo's clean arm), at that workload's scale.
CLEAN = {"hotspot": 0.125, "bfs": 0.0625, "vecadd": 0.5}
ZOO_SCALE = 0.5
ZOO = ("vecadd", "stream_flip", "dyn_graph", "hash_join_skew", "spmv_gather",
       "alloc_storm", "iot_pressure")


def contended(name, seed=0):
    """The zoo's contended arm: faults, relayout, host traffic, tracing."""
    with ExitStack() as stack:
        faults = stack.enter_context(fault_session(
            FaultPlan.generate(seed, 0.05), FaultEventLog(), task=name))
        stack.enter_context(relayout_session(RelayoutConfig(seed=seed),
                                             task=name))
        stack.enter_context(interfere_session(HostTrafficPlan.generate(seed),
                                              task=name))
        stack.enter_context(trace_session(TraceConfig(), task=name))
        result = run_workload(name, EngineMode.AFF_ALLOC, scale=ZOO_SCALE,
                              seed=seed)
        faults.finalize()
    return result


def run_phase_link_fail(name, scale):
    """A chaos plan whose one fault kills an interior link at run time."""
    from repro.arch.mesh import Mesh
    from repro.config import DEFAULT_CONFIG

    noc = DEFAULT_CONFIG.noc
    a, b = Mesh(noc.width, noc.height).undirected_interior_links()[0]
    plan = FaultPlan(events=(FaultEvent(FaultKind.LINK_FAIL, int(a),
                                        param=int(b), phase="run"),))
    log = FaultEventLog()
    with fault_session(plan, log, task=name) as faults:
        result = run_workload(name, EngineMode.AFF_ALLOC, scale=scale, seed=0)
        faults.finalize()
    assert [r.action for r in log.records if r.kind == "link-fail"] == [
        "injected", "rerouted"]
    return result


def assert_dense_timing_matches(result):
    assert result.phases
    assert result.phase_resources == result.dense_phase_resources
    assert result.phase_cycles == result.dense_phase_cycles


class TestTimingMatchesDensePhases:
    @pytest.mark.parametrize("name", sorted(CLEAN))
    def test_clean_run(self, name, monkeypatch):
        oracles.install_dense_phases(monkeypatch)
        assert_dense_timing_matches(run_workload(
            name, EngineMode.AFF_ALLOC, scale=CLEAN[name], seed=0))

    @pytest.mark.parametrize("seed", (0, 1))
    @pytest.mark.parametrize("name", ZOO)
    def test_contended_zoo(self, name, seed, monkeypatch):
        oracles.install_dense_phases(monkeypatch)
        assert_dense_timing_matches(contended(name, seed))

    @pytest.mark.parametrize("name,scale", [("bfs", 0.0625),
                                            ("hash_join_skew", ZOO_SCALE)])
    def test_run_phase_link_fail(self, name, scale, monkeypatch):
        oracles.install_dense_phases(monkeypatch)
        result = run_phase_link_fail(name, scale)
        assert len(result.phases) > 1
        assert_dense_timing_matches(result)


class TestTopologyAtSeal:
    def test_phase_sealed_before_a_link_fails_keeps_its_loads(self):
        machine = Machine()
        mesh = machine.mesh
        a, b = mesh.undirected_interior_links()[0]
        rec = RunRecorder(machine)
        rec.traffic.record(a, b, 64, MessageClass.DATA, count=10)
        pairs = sum(rec.traffic._pair_flits.values())
        healthy = pair_channel_loads(mesh, pairs)
        first = rec.end_phase("before")
        assert not rec.traffic.has_open_traffic()

        mesh.remove_link_between(a, b)
        rerouted = pair_channel_loads(mesh, pairs)
        assert not np.array_equal(rerouted, healthy)
        rec.traffic.record(a, b, 64, MessageClass.DATA, count=10)
        second = rec.end_phase("after")
        result = PerfModel(machine).evaluate(rec)

        assert np.array_equal(first.channel_loads, healthy)
        assert np.array_equal(second.channel_loads, rerouted)
        flits = first.flits[MessageClass.DATA]
        assert first.flit_hops[MessageClass.DATA] == flits  # one hop
        assert second.flit_hops[MessageClass.DATA] == 3 * flits  # detour
        assert result.phase_resources[0][1]["link"] == float(healthy.max())


class TestPhaseRecordSize:
    @pytest.mark.parametrize("run", [
        lambda: run_workload("bfs", EngineMode.AFF_ALLOC, scale=0.0625,
                             seed=0),
        lambda: contended("dyn_graph"),
    ], ids=["clean", "contended"])
    def test_no_field_is_quadratic_in_tiles(self, run):
        result = run()
        machine = Machine()
        bound = machine.mesh.num_links + 2 * machine.mesh.num_tiles
        assert result.phases
        for phase in result.phases:
            for f in dataclasses.fields(phase):
                value = getattr(phase, f.name)
                arrays = (list(value.values()) if isinstance(value, dict)
                          else [value])
                for arr in arrays:
                    assert np.size(arr) <= bound, (phase.label, f.name)
