"""Tracked performance benchmarks (``python -m repro bench``).

Runs microbenchmarks of the simulator hot paths (NoC channel loads,
address translation, IOT bank lookup) and an end-to-end figure
benchmark, and writes one ``BENCH_<name>.json`` per bench with
environment metadata.  Each hot-path metric is timed twice — through the
shipped vectorized code and through the pre-vectorization originals kept
in :mod:`repro.perf.reference` — so every JSON carries a *measured*
before/after speedup instead of a hand-recorded number.

The JSONs are committed at the repo root as the performance trajectory;
``--compare`` re-runs the suite and exits non-zero when a metric
regresses beyond the threshold against a baseline JSON (CI runs the
reduced ``--smoke`` variant against ``benchmarks/smoke/``).

Schema (``"schema": 1``)::

    {
      "bench": "noc",
      "schema": 1,
      "smoke": false,
      "env": {"python": ..., "numpy": ..., "platform": ...,
              "cpu_count": ..., "timestamp": ...},
      "metrics": {
        "<metric>": {"seconds": ..., "calls": ...,
                     "reference_seconds": ...,   # null if no reference
                     "speedup": ...,             # null if no reference
                     "params": {...}}            # compare key
      }
    }

Comparisons only pair metrics whose ``params`` match exactly, so a
baseline recorded at one problem size is never judged against another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.perf.compare import compare_bench  # noqa: F401  (re-export)

__all__ = ["run_benches", "write_bench_json", "compare_bench",
           "BENCH_NAMES", "cli"]

SCHEMA_VERSION = 1
BENCH_NAMES = ("noc", "translate", "iot", "fig12", "relayout", "alloc",
               "interfere", "fig12_full")

# Full-mode / smoke-mode problem sizes.
_FULL = {
    "pairs_reps": 30, "micro_reps": 5, "micro_n": 500_000,
    "record_batches": 200, "fig12_scale": 0.06, "fig12_seed": 0,
    "relayout_scale": 1.0, "decide_arrays": 512,
    "alloc_n": 20_000, "alloc_meshes": ((8, 8), (16, 16), (32, 32)),
    "interfere_scale": 0.1,
    "fig12_full_scale": 1.0,
}
_SMOKE = {
    "pairs_reps": 5, "micro_reps": 2, "micro_n": 50_000,
    "record_batches": 50, "fig12_scale": 0.015, "fig12_seed": 0,
    "relayout_scale": 0.25, "decide_arrays": 128,
    "alloc_n": 2_000, "alloc_meshes": ((8, 8), (16, 16)),
    "interfere_scale": 0.05,
    "fig12_full_scale": 0.25,
}


def _time_call(fn: Callable[[], object], reps: int) -> float:
    """Best-of-``reps`` wall seconds for one call (min damps scheduler
    noise without hiding real slowdowns across reps)."""
    best = float("inf")
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _metric(seconds: float, calls: int, params: dict,
            reference_seconds: Optional[float] = None) -> dict:
    speedup = (reference_seconds / seconds
               if reference_seconds is not None and seconds > 0 else None)
    return {
        "seconds": seconds,
        "calls": calls,
        "reference_seconds": reference_seconds,
        "speedup": speedup,
        "params": params,
    }


# ----------------------------------------------------------------------
# Individual benches
# ----------------------------------------------------------------------
def _bench_noc(sizes: dict) -> Dict[str, dict]:
    from repro.arch.mesh import Mesh
    from repro.arch.noc import MessageClass, TrafficAccountant, \
        pair_channel_loads
    from repro.config import DEFAULT_CONFIG
    from repro.perf.reference import pair_channel_loads_reference

    mesh = Mesh(8, 8)
    n = mesh.num_tiles
    rng = np.random.default_rng(0)
    pair_flits = rng.integers(0, 1000, size=n * n).astype(np.float64)
    reps = sizes["pairs_reps"]

    metrics = {}
    params = {"mesh": [8, 8], "nonzero_pairs": int((pair_flits > 0).sum())}
    sec = _time_call(lambda: pair_channel_loads(mesh, pair_flits), reps * 10)
    ref = _time_call(lambda: pair_channel_loads_reference(mesh, pair_flits),
                     max(2, reps // 2))
    metrics["pair_channel_loads"] = _metric(sec, reps * 10, params, ref)

    # Accountant metric queries on a warm dirty epoch vs. re-expanding the
    # pair matrix per query (the pre-PR behaviour).
    acc = TrafficAccountant(mesh, DEFAULT_CONFIG.noc)
    batches = sizes["record_batches"]
    src = rng.integers(0, n, size=(batches, 1000))
    dst = rng.integers(0, n, size=(batches, 1000))
    for i in range(batches):
        acc.record(src[i], dst[i], 64, MessageClass.DATA)

    def _queries():
        return (acc.max_link_load(), acc.mean_link_load(),
                acc.utilization(1e6))

    _queries()  # prime the epoch cache
    sec = _time_call(_queries, reps * 10)

    def _queries_uncached():
        acc._channel_cache = None
        acc._dirty = True
        return _queries()

    ref = _time_call(_queries_uncached, max(2, reps // 2))
    metrics["accountant_queries"] = _metric(
        sec, reps * 10, {"mesh": [8, 8], "record_batches": batches}, ref)
    return metrics


def _bench_translate(sizes: dict) -> Dict[str, dict]:
    from repro.machine import Machine
    from repro.perf.reference import translate_reference

    machine = Machine()
    rng = np.random.default_rng(0)
    n = sizes["micro_n"]
    reps = sizes["micro_reps"]
    heap_base = machine.malloc(8 << 20)

    # Single-region batch: the executor's common case (a trace walks one
    # array).
    single = heap_base + rng.integers(0, 8 << 20, size=n)
    # Mixed batch: addresses spread across the heap and two pools.
    intrlvs = machine.pools.interleaves[:2]
    for iv in intrlvs:
        machine.pools.expand(iv, 4 << 20)
    mixed = np.concatenate(
        [heap_base + rng.integers(0, 8 << 20, size=n // 2)]
        + [machine.pools.pool(iv).vbase
           + rng.integers(0, 4 << 20, size=n // 4) for iv in intrlvs])
    rng.shuffle(mixed)

    metrics = {}
    for label, addrs in (("translate_single_region", single),
                         ("translate_mixed_regions", mixed)):
        params = {"n": int(addrs.size)}
        sec = _time_call(lambda a=addrs: machine.space.translate(a), reps * 4)
        ref = _time_call(
            lambda a=addrs: translate_reference(machine.space, a), reps)
        metrics[label] = _metric(sec, reps * 4, params, ref)
    return metrics


def _bench_iot(sizes: dict) -> Dict[str, dict]:
    from repro.machine import Machine
    from repro.perf.reference import iot_banks_reference

    machine = Machine()
    rng = np.random.default_rng(0)
    n = sizes["micro_n"]
    reps = sizes["micro_reps"]
    intrlvs = machine.pools.interleaves
    for iv in intrlvs:
        machine.pools.expand(iv, 4 << 20)  # installs the IOT entries

    shift = machine.llc._default_shift
    in_pool = machine.pools.pool(intrlvs[0]).pbase \
        + rng.integers(0, 4 << 20, size=n)
    mixed = np.concatenate([
        rng.integers(0, 1 << 30, size=n // 2),  # default-hash region
        machine.pools.pool(intrlvs[3]).pbase
        + rng.integers(0, 4 << 20, size=n // 2),
    ])
    rng.shuffle(mixed)

    metrics = {}
    for label, addrs in (("iot_banks_single_entry", in_pool),
                         ("iot_banks_mixed", mixed)):
        params = {"n": int(addrs.size), "entries": len(machine.iot)}
        sec = _time_call(lambda a=addrs: machine.iot.banks(a, shift), reps * 4)
        ref = _time_call(
            lambda a=addrs: iot_banks_reference(machine.iot, a, shift), reps)
        metrics[label] = _metric(sec, reps * 4, params, ref)
    return metrics


def _bench_fig12(sizes: dict) -> Dict[str, dict]:
    import tempfile

    from repro import cache
    from repro.harness import experiments as exp
    from repro.harness import runner
    from repro.perf.reference import reference_impls

    scale, seed = sizes["fig12_scale"], sizes["fig12_seed"]
    params = {"scale": scale, "seed": seed}

    # Warmup: the first figure run in a process pays one-off costs that
    # are nobody's throughput — imports, the C kernel dlopen, numpy
    # ufunc setup, the workload cache's first deserialize.  Pay them
    # once untimed so both timed legs measure steady state.
    exp.fig12_overall(scale=scale, seed=seed)

    # Best-of-3 per leg: a single end-to-end rep on a busy (or
    # single-core) machine is too noisy to track a speedup ratio.
    t0 = time.perf_counter()
    result = exp.fig12_overall(scale=scale, seed=seed)
    rows = list(result.rows())
    sec = time.perf_counter() - t0
    for _ in range(2):
        sec = min(sec, _time_call(
            lambda: exp.fig12_overall(scale=scale, seed=seed), 1))

    with reference_impls():
        t0 = time.perf_counter()
        ref_result = exp.fig12_overall(scale=scale, seed=seed)
        ref_rows = list(ref_result.rows())
        ref = time.perf_counter() - t0
        for _ in range(2):
            ref = min(ref, _time_call(
                lambda: exp.fig12_overall(scale=scale, seed=seed), 1))
    if rows != ref_rows:
        raise RuntimeError("fig12 reference and vectorized rows diverged — "
                           "bench aborted (fix the equivalence bug first)")

    metrics = {"fig12_end_to_end": _metric(sec, 1, params, ref)}

    # Artifact-cache behaviour: cold compute-and-store vs warm reload.
    old_root = cache.get_cache().root
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        try:
            t0 = time.perf_counter()
            runner._run_one("fig12", scale, seed, True, tmp)
            cold = time.perf_counter() - t0
            t0 = time.perf_counter()
            runner._run_one("fig12", scale, seed, True, tmp)
            warm = time.perf_counter() - t0
        finally:
            cache.configure(root=old_root)
    metrics["fig12_cache_cold"] = _metric(cold, 1, params)
    metrics["fig12_cache_warm"] = _metric(warm, 1, params)
    return metrics


def _bench_fig12_full(sizes: dict) -> Dict[str, dict]:
    """fig12 at (or near) paper scale, shipped code only.

    The reference leg at scale=1.0 runs for minutes, so unlike
    :func:`_bench_fig12` this bench tracks absolute shipped wall time —
    the number Table 4-sized runs actually cost — rather than a
    speedup pair."""
    from repro.harness import experiments as exp

    scale, seed = sizes["fig12_full_scale"], sizes["fig12_seed"]
    params = {"scale": scale, "seed": seed}
    exp.fig12_overall(scale=scale, seed=seed)  # warmup (see _bench_fig12)
    t0 = time.perf_counter()
    result = exp.fig12_overall(scale=scale, seed=seed)
    nrows = len(list(result.rows()))
    sec = time.perf_counter() - t0
    if nrows == 0:
        raise RuntimeError("fig12_full produced no rows")
    return {"fig12_full_end_to_end": _metric(sec, 1, params)}


def _bench_alloc(sizes: dict) -> Dict[str, dict]:
    """Raw allocation throughput: policies x mesh sizes x backends.

    Feeds each policy one ``select_batch`` of ``alloc_n`` irregular
    allocations whose affinity rows are sampled from the mesh's hop
    table — the allocator inner loop with no workload around it.  The
    metric's ``seconds`` covers the whole batch; allocations/sec is
    ``calls / seconds``.

    Ratios (the machine-stable numbers CI gates on): the python
    backend's Hybrid rows carry the pre-PR scalar loop as reference,
    and every compiled backend's rows carry the python backend as
    reference — so ``speedup`` is always a same-machine alloc ratio.
    """
    from repro.arch.mesh import Mesh
    from repro.core.load import LoadTracker
    from repro.core.policy import HybridPolicy, LinearPolicy, RandomPolicy
    from repro.perf import kernels
    from repro.perf.reference import hybrid_select_batch_reference

    n = sizes["alloc_n"]
    metrics = {}
    before = kernels.get_backend().NAME
    try:
        for w, hgt in sizes["alloc_meshes"]:
            mesh = Mesh(w, hgt)
            nb = mesh.num_tiles
            rng = np.random.default_rng(0)
            # Affinity rows: mean hop distance to a small random group,
            # the shape malloc_irregular_batch hands the policy.
            group = rng.integers(0, nb, size=(n, 4))
            mean_hops = (mesh.hops_table()[group.ravel()]
                         .reshape(n, 4, nb).mean(axis=1))
            # available_backends() lists python first, so the python
            # seconds exist by the time a compiled backend needs them.
            py_secs: Dict[str, float] = {}
            for backend in kernels.available_backends():
                kernels.set_backend(backend)
                for policy in (RandomPolicy(seed=0), LinearPolicy(),
                               HybridPolicy(h=5.0)):
                    label = (f"alloc_{policy.name.lower()}"
                             f"_{w}x{hgt}_{backend}")
                    def _run(p=policy, mh=mean_hops, banks=nb):
                        p.select_batch(mh, LoadTracker(banks), mesh)
                    sec = _time_call(_run, 3)
                    ref: Optional[float] = None
                    if backend == "python":
                        py_secs[policy.name] = sec
                        if isinstance(policy, HybridPolicy):
                            ref = _time_call(
                                lambda p=policy, mh=mean_hops, banks=nb:
                                hybrid_select_batch_reference(
                                    p, mh, LoadTracker(banks), mesh), 3)
                    else:
                        ref = py_secs.get(policy.name)
                    metrics[label] = _metric(
                        sec, n, {"n": n, "mesh": [w, hgt],
                                 "backend": backend,
                                 "policy": policy.name}, ref)
    finally:
        kernels.set_backend(before)
    return metrics


def _bench_relayout(sizes: dict) -> Dict[str, dict]:
    from repro.harness.arms import run_autoplace
    from repro.relayout.policy import (ArrayDrift, RelayoutConfig, Telemetry,
                                       decide)

    scale = sizes["relayout_scale"]
    seed = sizes.get("relayout_seed", 0)
    reps = sizes["micro_reps"]
    metrics = {}

    # End-to-end static + online pair for the canonical drifting stream.
    t0 = time.perf_counter()
    report = run_autoplace(("stream_flip",), RelayoutConfig(seed=seed),
                           scale=scale, seed=seed)
    sec = time.perf_counter() - t0
    metrics["autoplace_stream_flip"] = _metric(
        sec, 1, {"scale": scale, "migrations": report.plan.applied_count(),
                 "recovered": report.best_recovered})

    # Policy micro-bench: one decide() over a wide telemetry snapshot
    # (the per-epoch cost the engine pays at every boundary).
    nb = 64
    n_arrays = sizes["decide_arrays"]
    cfg = RelayoutConfig()
    arrays = tuple(
        ArrayDrift(name=f"a{i}", vaddr=i << 12, total=1024.0 + i,
                   remote=512.0,
                   delta_hist=tuple(512.0 if d == (i % nb) else 0.0
                                    for d in range(nb)))
        for i in range(n_arrays))
    telemetry = Telemetry(epoch="bench", num_banks=nb,
                          bank_heat=tuple(float(b + 1) for b in range(nb)),
                          healthy=(True,) * nb, arrays=arrays,
                          budget_left=cfg.max_total)
    sec = _time_call(lambda: decide(telemetry, cfg), reps * 10)
    metrics["policy_decide"] = _metric(
        sec, reps * 10, {"arrays": n_arrays, "num_banks": nb})
    return metrics


def _bench_interfere(sizes: dict) -> Dict[str, dict]:
    """Host-interference engine: end-to-end sweep cost + pinned slowdown.

    ``interfere_end_to_end`` tracks the wall cost of a two-factor
    contention sweep over vecadd.  ``interfere_slowdown_vecadd`` is the
    machine-*independent* number CI gates on: its ``seconds`` /
    ``reference_seconds`` pair holds *simulated cycles* (clean vs
    contended at the top factor), so the recorded ``speedup`` is the
    deterministic slowdown ratio — identical on any machine, and a drift
    in it means the injection physics changed, not the hardware."""
    from repro.harness.arms import run_interfere
    from repro.interfere.plan import HostTrafficPlan

    scale = sizes["interfere_scale"]
    seed = sizes.get("interfere_seed", 0)
    factors = (1.0, 4.0)
    plan = HostTrafficPlan.generate(seed)
    params = {"scale": scale, "seed": seed, "factors": list(factors)}

    t0 = time.perf_counter()
    report = run_interfere(("vecadd",), plan, mode="AFF_ALLOC", scale=scale,
                           seed=seed, factors=factors)
    sec = time.perf_counter() - t0
    metrics = {"interfere_end_to_end": _metric(sec, 1, params)}

    row = report.rows[0]
    top = max(row["arms"], key=lambda a: a["factor"])
    clean_cycles = float(row["clean"]["cycles"])
    contended_cycles = float(top["metrics"]["cycles"])
    metrics["interfere_slowdown_vecadd"] = _metric(
        clean_cycles, 1,
        {**params, "workload": "vecadd", "unit": "sim-cycles"},
        contended_cycles)
    return metrics


_BENCHES = {
    "noc": _bench_noc,
    "translate": _bench_translate,
    "iot": _bench_iot,
    "fig12": _bench_fig12,
    "relayout": _bench_relayout,
    "alloc": _bench_alloc,
    "interfere": _bench_interfere,
    "fig12_full": _bench_fig12_full,
}


# ----------------------------------------------------------------------
# Runner / JSON IO
# ----------------------------------------------------------------------
def _env_metadata() -> dict:
    from repro.perf import kernels

    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-linux
        affinity = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        # Schedulable CPUs can be fewer than cpu_count in cgroups/CI.
        "cpu_affinity": affinity,
        **kernels.backend_info(),
        # Bench *metadata*, never a result metric; wall time is the point.
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),  # afflint: allow(DET001)
    }


def run_benches(names, smoke: bool = False,
                progress: Optional[Callable[[str], None]] = None,
                seed: int = 0,
                profile_dir: Optional[Path] = None) -> Dict[str, dict]:
    """Run the named benches; returns ``{bench_name: payload}``.

    ``seed`` feeds the end-to-end benches only (fig12, relayout); the
    hot-path microbenches pin their own RNG so the CI-gated payloads
    stay comparable across invocations.  ``profile_dir`` opts into
    cProfile around each bench, dumping ``BENCH_<name>.prof`` there —
    the JSON payloads themselves are unchanged by profiling.
    """
    sizes = dict(_SMOKE if smoke else _FULL)
    sizes["fig12_seed"] = int(seed)
    sizes["relayout_seed"] = int(seed)
    sizes["interfere_seed"] = int(seed)
    out = {}
    for name in names:
        if name not in _BENCHES:
            raise ValueError(f"unknown bench {name!r}; "
                             f"available: {', '.join(BENCH_NAMES)}")
        if progress:
            progress(f"[bench] {name} ...")
        t0 = time.perf_counter()
        if profile_dir is not None:
            import cProfile
            profile_dir.mkdir(parents=True, exist_ok=True)
            prof = cProfile.Profile()
            metrics = prof.runcall(_BENCHES[name], sizes)
            prof_path = profile_dir / f"BENCH_{name}.prof"
            prof.dump_stats(prof_path)
            if progress:
                progress(f"  profile -> {prof_path}")
        else:
            metrics = _BENCHES[name](sizes)
        if progress:
            for mname, m in metrics.items():
                sp = (f"{m['speedup']:.1f}x vs reference"
                      if m["speedup"] is not None else "no reference")
                progress(f"  {mname}: {m['seconds'] * 1e3:.3f} ms ({sp})")
            progress(f"[bench] {name} done in "
                     f"{time.perf_counter() - t0:.1f}s")
        out[name] = {
            "bench": name,
            "schema": SCHEMA_VERSION,
            "smoke": smoke,
            "env": _env_metadata(),
            "metrics": metrics,
        }
    return out


def write_bench_json(payloads: Dict[str, dict], out_dir: Path) -> List[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, payload in payloads.items():
        path = out_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def cli(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Run the tracked performance benchmarks and write "
                    "BENCH_<name>.json.")
    parser.add_argument("--only", default=",".join(BENCH_NAMES),
                        help="comma-separated bench names "
                             f"(default: {','.join(BENCH_NAMES)})")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced problem sizes/reps (CI)")
    parser.add_argument("--out", default=".",
                        help="directory for BENCH_<name>.json "
                             "(default: current directory / repo root)")
    parser.add_argument("--compare", action="store_true",
                        help="compare against baseline JSONs and exit "
                             "non-zero on regression")
    parser.add_argument("--baseline", default=None,
                        help="baseline directory for --compare "
                             "(default: --out dir, read before overwriting)")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="regression factor (default 2.0)")
    parser.add_argument("--compare-metric", default="both",
                        choices=("seconds", "speedup", "both"),
                        help="which measurement --compare judges")
    parser.add_argument("--profile", action="store_true",
                        help="run each bench under cProfile and write "
                             "BENCH_<name>.prof next to the JSONs")
    from repro.harness.cliutil import add_seed_argument
    add_seed_argument(parser, help_suffix="feeds the end-to-end benches "
                                          "(fig12, relayout) only")
    args = parser.parse_args(argv)

    names = [n for n in args.only.split(",") if n]
    bad = [n for n in names if n not in _BENCHES]
    if bad:
        parser.error(f"unknown bench(es) {bad}; "
                     f"available: {', '.join(BENCH_NAMES)}")

    out_dir = Path(args.out)
    baseline_dir = Path(args.baseline) if args.baseline else out_dir

    # Read baselines before running (and before overwriting them).
    baselines = {}
    if args.compare:
        for name in names:
            path = baseline_dir / f"BENCH_{name}.json"
            if path.exists():
                baselines[name] = json.loads(path.read_text())

    payloads = run_benches(names, smoke=args.smoke,
                           progress=lambda line: print(line, flush=True),
                           seed=args.seed,
                           profile_dir=out_dir if args.profile else None)
    for path in write_bench_json(payloads, out_dir):
        print(f"wrote {path}")

    from repro.harness.cliutil import EXIT_FAILURE, EXIT_OK
    if not args.compare:
        return EXIT_OK
    problems = []
    for name, payload in payloads.items():
        if name not in baselines:
            print(f"[compare] no baseline for {name} "
                  f"({baseline_dir / f'BENCH_{name}.json'}) — skipped")
            continue
        problems += compare_bench(baselines[name], payload,
                                  threshold=args.threshold,
                                  metric=args.compare_metric)
    if problems:
        print(f"\n{len(problems)} regression(s) beyond "
              f"{args.threshold:g}x:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return EXIT_FAILURE
    print(f"\n[compare] no regressions beyond {args.threshold:g}x")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(cli())
