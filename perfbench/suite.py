"""The benchmark's workloads, passes and correctness checks.

This file runs inside the benchmark's child processes; ``run.py`` starts
it with ``PYTHONPATH`` pointing at ``src`` and a private
``REPRO_CACHE_DIR``.  Roles (first argument):

``measure WORKLOAD SEED SECONDS TRACE OUT SPANS``
    One untimed pass that fills the artifact cache and loads the compiled
    kernels, then timed passes for ``SECONDS``.  With ``TRACE`` 1 the
    untraced and traced passes alternate and the span recorder reports
    per-layer metrics.
``setup WORKLOAD``
    Imports, kernel-backend load and input loading from the filled
    cache, then exit: the parent times the whole process.
``write-digests``
    Regenerate ``digests.json`` after an intended model change.

A pass simulates the workload twice: on the pinned seed, whose
simulated statistics ``digests.json`` fixes, and on the run's own seed.
The pinned half anchors half of every pass to the same inputs, so pass
times of different seeds compare; the seeded half varies the inputs.

Every simulation goes through the public entry point
``repro.workloads.run_workload``; the contended arms run it inside the
public session context managers.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults import FaultPlan, fault_session
from repro.faults.log import FaultEventLog
from repro.interfere.engine import interfere_session
from repro.interfere.plan import HostTrafficPlan
from repro.obs.tracer import TraceConfig, trace_session
from repro.perf import kernels
from repro.perf.compare import geomean, speedup, traffic_ratio
from repro.perf.model import RunResult
from repro.relayout.engine import relayout_session
from repro.relayout.policy import RelayoutConfig
from repro.workloads import EngineMode, run_workload

from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

#: Seed whose simulated statistics are pinned in ``digests.json``.
PINNED_SEED = 0
#: Workload size factor per benchmark workload (see README.md).
SCALES = {"affine_stencils": 0.125, "irregular_graphs": 0.0625,
          "contended_zoo": 0.5}
#: Kernels each run in all three modes, per workload.
ALL_MODES = {
    "affine_stencils": ("pathfinder", "hotspot", "srad", "hotspot3D"),
    "irregular_graphs": ("pr_push", "bfs", "sssp", "link_list", "hash_join",
                         "bin_tree"),
}
ZOO = ("vecadd", "stream_flip", "dyn_graph", "hash_join_skew", "spmv_gather",
       "alloc_storm", "iot_pressure")
#: Timed passes per run, at least (more when ``--seconds`` allows).
MIN_PASSES = 3
#: Chaos fault rate of the zoo's contended arm.
FAULT_RATE = 0.05
CONTENDED = "contended"


@dataclass
class SimSpec:
    """One simulation of a pass.

    ``key`` names it in ``digests.json``; simulations sharing a ``group``
    must compute the same functional value.
    """

    key: str
    group: str
    name: str
    arm: str
    seed: int
    scale: float


@dataclass
class Sim:
    spec: SimSpec
    result: Optional[RunResult] = None
    error: Optional[str] = None
    unhandled: int = 0


def sim_plan(workload: str, seed: int) -> List[SimSpec]:
    """The ordered simulation list of one pass."""
    scale = SCALES[workload]
    if workload in ALL_MODES:
        return [SimSpec(f"{n}/{m.value}", n, n, m.value, seed, scale)
                for n in ALL_MODES[workload] for m in EngineMode]
    if workload == "contended_zoo":
        arms = (EngineMode.AFF_ALLOC.value, EngineMode.NEAR_L3.value,
                CONTENDED)
        # Near-L3 legitimately computes another value for the phase-flip
        # and churn kernels, so only the clean and contended Aff-Alloc
        # arms must agree.
        return [SimSpec(f"{n}/{arm}",
                        f"{n}/{arm}" if arm == EngineMode.NEAR_L3.value else n,
                        n, arm, seed, scale)
                for n in ZOO for arm in arms]
    raise ValueError(f"unknown benchmark workload {workload!r}")


def run_sim(spec: SimSpec) -> Sim:
    """Run one simulation; a raising simulation is a counted failure."""
    try:
        if spec.arm != CONTENDED:
            return Sim(spec, run_workload(spec.name, EngineMode(spec.arm),
                                          scale=spec.scale, seed=spec.seed))
        log = FaultEventLog()
        with ExitStack() as stack:
            faults = stack.enter_context(fault_session(
                FaultPlan.generate(spec.seed, FAULT_RATE), log,
                task=spec.name))
            stack.enter_context(relayout_session(
                RelayoutConfig(seed=spec.seed), task=spec.name))
            stack.enter_context(interfere_session(
                HostTrafficPlan.generate(spec.seed), task=spec.name))
            stack.enter_context(trace_session(TraceConfig(), task=spec.name))
            result = run_workload(spec.name, EngineMode.AFF_ALLOC,
                                  scale=spec.scale, seed=spec.seed)
            faults.finalize()
        return Sim(spec, result, unhandled=len(log.unhandled))
    except Exception as exc:  # the pass goes on; the failure is counted
        return Sim(spec, error=f"{type(exc).__name__}: {exc}")


def run_sims(specs: Sequence[SimSpec],
             recorder: Optional[SpanRecorder] = None) -> List[Sim]:
    sims = []
    for spec in specs:
        scope = (recorder.simulation(spec.key) if recorder is not None
                 else nullcontext())
        with scope:
            sims.append(run_sim(spec))
    return sims


def run_pass(workload: str, seed: int,
             recorder: Optional[SpanRecorder] = None
             ) -> Tuple[List[Sim], List[Sim]]:
    """One pass: the pinned inputs, then the run's own."""
    return (run_sims(sim_plan(workload, PINNED_SEED), recorder),
            run_sims(sim_plan(workload, seed), recorder))


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def digest(result: RunResult) -> str:
    """Digest of a run's simulated statistics."""
    blob = json.dumps({"cycles": result.cycles,
                       "phase_cycles": result.phase_cycles,
                       "flit_hops_by_class": result.flit_hops_by_class,
                       "counters": result.counters}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def same_value(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and bool(np.array_equal(a, b))
    return a == b


def failures(sims: Sequence[Sim],
             expected: Optional[Dict[str, str]] = None) -> List[str]:
    """One message per failed simulation.

    A simulation fails when it raised, left an unhandled fault, computed
    another value than the first simulation of its group, or (given
    ``expected`` digests) simulated other statistics than expected.
    """
    out = []
    reference: Dict[str, Sim] = {}
    for sim in sims:
        key = sim.spec.key
        if sim.result is None:
            out.append(f"{key}: raised {sim.error}")
            continue
        ref = reference.setdefault(sim.spec.group, sim)
        if not same_value(ref.result.value, sim.result.value):
            out.append(f"{key}: value differs from {ref.spec.key}")
        elif sim.unhandled:
            out.append(f"{key}: {sim.unhandled} unhandled fault event(s)")
        elif expected is not None and expected.get(key) != digest(sim.result):
            out.append(f"{key}: simulated statistics digest "
                       f"{digest(sim.result)} != expected {expected.get(key)}")
    return out


def stored_digests(workload: str) -> Dict[str, str]:
    data = json.loads(DIGESTS.read_text())
    if data["seed"] != PINNED_SEED or data["scales"] != SCALES:
        raise SystemExit(f"{DIGESTS.name} was written for another seed or "
                         "scale; regenerate it with 'suite.py write-digests'")
    return data["digests"][workload]


# ----------------------------------------------------------------------
# Simulated (deterministic) metrics of one pass
# ----------------------------------------------------------------------
def _by_arm(sims: Sequence[Sim], arm: str) -> Dict[Tuple[str, int], RunResult]:
    return {(s.spec.name, s.spec.seed): s.result for s in sims
            if s.spec.arm == arm and s.result is not None}


def sim_metrics(sims: Sequence[Sim]) -> Dict[str, float]:
    """End-to-end *sim* metrics and per-layer ``sim.*`` counts."""
    ok = [s.result for s in sims if s.result is not None]
    af = _by_arm(sims, EngineMode.AFF_ALLOC.value)
    nl = _by_arm(sims, EngineMode.NEAR_L3.value)
    cont = _by_arm(sims, CONTENDED)
    both = [k for k in af if k in nl]
    out = {
        "events": sum(r.counters["l3_accesses"] + r.counters["messages"]
                      for r in ok),
        "sim_speedup_vs_near_l3": geomean(speedup(nl[k], af[k])
                                          for k in both),
        "sim_traffic_vs_near_l3": geomean(traffic_ratio(nl[k], af[k])
                                          for k in both),
        # Without a contended arm nothing contends: the ratio is 1.
        "sim_contention_slowdown": (geomean(cont[k].cycles / af[k].cycles
                                            for k in cont if k in af)
                                    if cont else 1.0),
    }
    hops: Dict[str, float] = {"data": 0.0, "control": 0.0, "offload": 0.0}
    for r in ok:
        for cls, v in r.flit_hops_by_class.items():
            hops[cls] += v
    stream = sum(r.counters["stream_elem_accesses"] for r in ok)
    out.update({
        "sim.l3_accesses": sum(r.counters["l3_accesses"] for r in ok),
        **{f"sim.flit_hops.{cls}": v for cls, v in hops.items()},
        "sim.remote_reqs": sum(r.counters["remote_reqs"] for r in ok),
        "sim.stream_remote_ratio": (
            sum(r.counters["stream_remote_accesses"] for r in ok) / stream
            if stream else 0.0),
        "sim.noc_utilization": statistics.fmean(r.noc_utilization
                                                for r in ok),
    })
    return out


# ----------------------------------------------------------------------
# Child roles
# ----------------------------------------------------------------------
def environment(workload: str) -> Dict[str, object]:
    return {"kernels": kernels.backend_info(),
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "scale": SCALES[workload]}


def role_measure(workload: str, seed: int, seconds: float, trace: bool,
                 out: Path, spans_out: Path) -> None:
    env = environment(workload)
    expected = stored_digests(workload)
    recorder = SpanRecorder() if trace else None
    fails: List[str] = []
    attempted = 0
    # The seeded half of every pass must repeat the first pass' simulated
    # statistics exactly: the simulator is deterministic, and tracing
    # must not perturb it.
    reference: Optional[Dict[str, str]] = None

    def check(pinned: List[Sim], seeded: List[Sim]) -> None:
        nonlocal attempted
        fails.extend(failures(pinned, expected))
        fails.extend(failures(seeded, reference))
        attempted += len(pinned) + len(seeded)

    # Untimed fill: builds the artifact cache and loads the kernels.  In
    # a traced run the cold pass is traced too, for graph generation and
    # cache behaviour, which warm passes never show.
    cold: Dict[str, float] = {}
    if recorder is not None:
        with recorder:
            pinned, seeded = run_pass(workload, seed, recorder)
        cold = recorder.metrics()
    else:
        pinned, seeded = run_pass(workload, seed)
    check(pinned, seeded)
    reference = {s.spec.key: digest(s.result) for s in seeded
                 if s.result is not None}
    pinned_sim = sim_metrics(pinned)
    pass_sim = sim_metrics(pinned + seeded)

    pass_s: List[float] = []
    traced_s: List[float] = []
    layers: List[Dict[str, float]] = []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(pass_s) < MIN_PASSES:
        t0 = time.perf_counter()
        halves = run_pass(workload, seed)
        pass_s.append(time.perf_counter() - t0)
        check(*halves)
        if recorder is not None:
            recorder.reset()
            with recorder:
                t0 = time.perf_counter()
                halves = run_pass(workload, seed, recorder)
                traced_s.append(time.perf_counter() - t0)
            m = recorder.metrics()
            m["trace.attributed_ratio"] = sum(
                v for k, v in m.items()
                if k.endswith(".self_s") and k != "workloads.self_s"
            ) / traced_s[-1]
            layers.append(m)
            check(*halves)
    if recorder is not None:
        recorder.write(spans_out)

    record = {"env": env, "attempted": attempted, "failures": fails,
              "pass_s": pass_s, "events": pass_sim.pop("events"),
              "pinned_sim": pinned_sim, "sim": pass_sim,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if recorder is not None:
        layer_med = {k: statistics.median(m[k] for m in layers)
                     for k in layers[0]}
        for k in ("graphs.self_s", "graphs.calls", "cache.self_s",
                  "cache.calls", "cache.hit_ratio"):
            layer_med[k] = cold[k]
        record.update(traced_s=traced_s, layers=layer_med)
    out.write_text(json.dumps(record))


def role_setup(workload: str) -> None:
    """Everything a fresh process does before its first simulation."""
    import repro.workloads  # noqa: F401  (the registry and every layer)
    from repro.cache import get_cache

    kernels.get_backend()
    cache = get_cache()
    entries = sorted(cache.root.iterdir()) if cache.root.is_dir() else []
    for path in entries:
        if path.suffix == ".npz":
            cache.get_arrays(path.stem)
        elif path.suffix == ".json":
            cache.get_json(path.stem)


def role_write_digests() -> None:
    data = {"seed": PINNED_SEED, "scales": SCALES, "digests": {}}
    for workload in SCALES:
        sims = run_sims(sim_plan(workload, PINNED_SEED))
        fails = failures(sims)
        if fails:
            raise SystemExit("refusing to pin a failing pass:\n"
                             + "\n".join(fails))
        data["digests"][workload] = {s.spec.key: digest(s.result)
                                     for s in sims}
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv: Sequence[str]) -> None:
    role, args = argv[0], list(argv[1:])
    if role == "measure":
        role_measure(args[0], int(args[1]), float(args[2]), args[3] == "1",
                     Path(args[4]), Path(args[5]))
    elif role == "setup":
        role_setup(args[0])
    elif role == "write-digests":
        role_write_digests()
    else:
        raise SystemExit(f"unknown role {role!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
