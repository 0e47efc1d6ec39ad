"""Self-tests of the benchmark: the span recorder must not perturb the
model and must restore what it wraps, and the correctness checks must
count what they claim to count.

    python -m pytest perfbench/tests -q
"""

import dataclasses
import importlib
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import run
import spans
import suite

ROOT = Path(__file__).resolve().parents[2]


def _wrapped_attributes():
    out = {}
    for _layer, modname, cls_name, attrs, _counters in spans.LAYERS:
        module = importlib.import_module(modname)
        for owner, attr in spans._targets(module, cls_name, attrs):
            out[(owner, attr)] = inspect.getattr_static(owner, attr)
    return out


def _sample_specs():
    """The contended zoo plus two small graph workloads, so every wrapped
    layer sees calls."""
    zoo = suite.sim_plan("contended_zoo", 0)
    graphs = [dataclasses.replace(s, scale=0.05)
              for s in suite.sim_plan("irregular_graphs", 0)
              if s.name in ("bfs", "hash_join")
              and s.arm == suite.EngineMode.AFF_ALLOC.value]
    return zoo + graphs


def test_tracing_leaves_simulated_statistics_identical():
    specs = _sample_specs()
    plain = [suite.digest(suite.run_sim(s).result) for s in specs]
    recorder = spans.SpanRecorder()
    traced = []
    with recorder:
        for spec in specs:
            with recorder.simulation(spec.key):
                traced.append(suite.run_sim(spec).result)
    assert [suite.digest(r) for r in traced] == plain
    metrics = recorder.metrics()
    # Counts taken at the layer boundary agree with the model's ledgers.
    assert metrics["arch.noc.messages"] == pytest.approx(
        sum(r.counters["messages"] for r in traced), rel=1e-12)
    for layer in ("nsc.affine", "nsc.indirect", "vm", "arch.iot", "arch.noc",
                  "core.runtime", "core.policy", "datastructs", "faults",
                  "relayout", "interfere", "obs", "perf.model", "machine"):
        assert metrics[f"{layer}.calls"] > 0, layer
    assert {span[5] for span in recorder.spans} == set(range(len(specs)))


def test_every_wrapped_function_is_restored():
    before = _wrapped_attributes()
    assert len(before) > 60
    recorder = spans.SpanRecorder()
    with recorder:
        assert all(inspect.getattr_static(*key) is not raw
                   for key, raw in before.items())
        spec = suite.sim_plan("contended_zoo", 0)[-1]
        with recorder.simulation(spec.key):
            assert suite.run_sim(spec).error is None
    assert _wrapped_attributes() == before
    with pytest.raises(RuntimeError):
        with recorder:
            raise RuntimeError("boom")
    assert _wrapped_attributes() == before


def test_self_times_subtract_direct_children():
    recorder = spans.SpanRecorder()
    recorder.spans += [("workloads", "sim", 0.0, 10.0, -1, 0),
                       ("vm", "a", 1.0, 5.0, 0, 0),
                       ("arch.iot", "b", 2.0, 3.0, 1, 0)]
    selfs = recorder.self_times()
    assert selfs == {"workloads": 6.0, "vm": 3.0, "arch.iot": 1.0}


def test_stored_digests_match_and_an_altered_one_counts(tmp_path, monkeypatch):
    pinned = suite.run_sims(suite.sim_plan("affine_stencils",
                                           suite.PINNED_SEED))
    assert suite.failures(pinned, suite.stored_digests("affine_stencils")) == []

    data = json.loads(suite.DIGESTS.read_text())
    key = sorted(data["digests"]["affine_stencils"])[0]
    data["digests"]["affine_stencils"][key] = "0" * 16
    altered = tmp_path / "digests.json"
    altered.write_text(json.dumps(data))
    monkeypatch.setattr(suite, "DIGESTS", altered)
    monkeypatch.setattr(suite, "MIN_PASSES", 1)
    out = tmp_path / "measure.json"
    suite.role_measure("affine_stencils", 1, 0.0, False, out,
                       tmp_path / "spans.jsonl.gz")
    rec = json.loads(out.read_text())
    # The fill pass and the one timed pass each miss the altered digest.
    assert len(rec["failures"]) == 2
    assert all(f.startswith(key + ":") for f in rec["failures"])
    rec["setup_s"] = [1.0]
    assert run.end_to_end(rec)["ok_ratio"] == pytest.approx(
        1.0 - 2.0 / rec["attempted"])


def test_raising_and_disagreeing_simulations_fail():
    raising = suite.run_sim(suite.SimSpec("nope/Aff-Alloc", "nope", "nope",
                                          "Aff-Alloc", 0, 0.1))
    assert raising.error is not None

    def sim(key, value):
        spec = suite.SimSpec(key, "g", "w", "arm", 0, 1.0)
        return suite.Sim(spec, SimpleNamespace(value=value))

    sims = [sim("a", np.arange(3)), sim("b", np.arange(3)),
            sim("c", np.zeros(3)), raising]
    fails = suite.failures(sims)
    assert [f.split(":")[0] for f in fails] == ["c", "nope/Aff-Alloc"]


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "affine_stencils",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reported_metrics_are_the_declared_ones():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sim = {"sim_speedup_vs_near_l3": 2.0, "sim_traffic_vs_near_l3": 0.2,
           "sim_contention_slowdown": 1.0, "sim.l3_accesses": 1.0,
           "sim.flit_hops.data": 1.0, "sim.flit_hops.control": 1.0,
           "sim.flit_hops.offload": 1.0, "sim.remote_reqs": 1.0,
           "sim.stream_remote_ratio": 0.5, "sim.noc_utilization": 0.1}
    layers = spans.SpanRecorder().metrics()
    layers["trace.attributed_ratio"] = 0.9
    rec = {"pass_s": [1.0, 2.0], "traced_s": [1.5], "events": 1.0,
           "setup_s": [1.0], "peak_rss_mb": 1.0, "attempted": 1,
           "failures": [], "pinned_sim": sim, "sim": sim, "layers": layers}
    assert list(run.end_to_end(rec)) == [m["name"] for m in
                                         declared["end_to_end"]]
    assert list(run.per_layer(rec)) == [m["name"] for m in
                                        declared["per_layer"]]
    for m in declared["end_to_end"]:
        assert run.END_TO_END_UNITS[m["name"]] == m["unit"]
    for m in declared["per_layer"]:
        assert run.layer_unit(m["name"]) == m["unit"]
