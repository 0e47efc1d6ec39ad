"""Figure wall-time benchmarks (``python -m repro bench``).

Times fig12 end to end and writes one ``BENCH_<name>.json`` per bench
with environment metadata:

* ``fig12`` times the figure at a small scale (best of three), and one
  cold run through the artifact cache (compute and store).
* ``fig12_full`` times the figure at paper scale.

Layer-by-layer and throughput measurement lives in the benchmark of
record, ``perfbench/``.

Schema (``"schema": 2``)::

    {
      "bench": "fig12",
      "schema": 2,
      "smoke": false,
      "env": {"python": ..., "numpy": ..., "platform": ...,
              "cpu_count": ..., "timestamp": ...},
      "metrics": {
        "<metric>": {"seconds": ..., "calls": ...,
                     "params": {...}}            # scale and seed
      }
    }
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

from repro.harness.cliutil import EXIT_OK, add_seed_argument

__all__ = ["run_benches", "write_bench_json", "BENCH_NAMES", "cli"]

SCHEMA_VERSION = 2
BENCH_NAMES = ("fig12", "fig12_full")

# Full-mode / smoke-mode problem sizes.
_FULL = {"fig12_scale": 0.06, "fig12_full_scale": 1.0}
_SMOKE = {"fig12_scale": 0.015, "fig12_full_scale": 0.25}


def _time_call(fn: Callable[[], object], reps: int) -> float:
    """Best-of-``reps`` wall seconds for one call (min damps scheduler
    noise without hiding real slowdowns across reps)."""
    best = float("inf")
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _metric(seconds: float, calls: int, params: dict) -> dict:
    return {"seconds": seconds, "calls": calls, "params": params}


# ----------------------------------------------------------------------
# Individual benches
# ----------------------------------------------------------------------
def _bench_fig12(sizes: dict) -> Dict[str, dict]:
    import tempfile

    from repro import cache
    from repro.harness import experiments as exp
    from repro.harness import runner

    scale, seed = sizes["fig12_scale"], sizes["fig12_seed"]
    params = {"scale": scale, "seed": seed}

    # Warmup: the first figure run in a process pays one-off costs that
    # are nobody's throughput — imports, the C kernel dlopen, numpy
    # ufunc setup, the workload cache's first deserialize.  Pay them
    # once untimed so the timed reps measure steady state.
    exp.fig12_overall(scale=scale, seed=seed)

    # Best-of-3: a single end-to-end rep on a busy (or single-core)
    # machine is too noisy to track.
    sec = _time_call(lambda: exp.fig12_overall(scale=scale, seed=seed), 3)
    metrics = {"fig12_end_to_end": _metric(sec, 1, params)}

    # Artifact-cache behaviour: one cold compute-and-store.
    old_root = cache.get_cache().root
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        try:
            t0 = time.perf_counter()
            runner._run_one("fig12", scale, seed, True, tmp)
            cold = time.perf_counter() - t0
        finally:
            cache.configure(root=old_root)
    metrics["fig12_cache_cold"] = _metric(cold, 1, params)
    return metrics


def _bench_fig12_full(sizes: dict) -> Dict[str, dict]:
    """fig12 at (or near) paper scale: the wall time Table 4-sized runs
    actually cost."""
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


_BENCHES = {"fig12": _bench_fig12, "fig12_full": _bench_fig12_full}


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

    ``seed`` feeds every bench.  ``profile_dir`` opts into cProfile
    around each bench, dumping ``BENCH_<name>.prof`` there — the JSON
    payloads themselves are unchanged by profiling.
    """
    sizes = dict(_SMOKE if smoke else _FULL, fig12_seed=int(seed))
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
                progress(f"  {mname}: {m['seconds'] * 1e3:.3f} ms")
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
        description="Time fig12 end to end and write BENCH_<name>.json.")
    parser.add_argument("--only", default=",".join(BENCH_NAMES),
                        help="comma-separated bench names "
                             f"(default: {','.join(BENCH_NAMES)})")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced problem sizes/reps (CI)")
    parser.add_argument("--out", default=".",
                        help="directory for BENCH_<name>.json "
                             "(default: current directory / repo root)")
    parser.add_argument("--profile", action="store_true",
                        help="run each bench under cProfile and write "
                             "BENCH_<name>.prof next to the JSONs")
    add_seed_argument(parser)
    args = parser.parse_args(argv)

    # Every usage error exits 2 here, before a bench spends seconds.
    names = [n for n in args.only.split(",") if n]
    if not names:
        parser.error("--only names no bench; "
                     f"available: {', '.join(BENCH_NAMES)}")
    bad = [n for n in names if n not in _BENCHES]
    if bad:
        parser.error(f"unknown bench(es) {bad}; "
                     f"available: {', '.join(BENCH_NAMES)}")
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"cannot use --out {out_dir}: {exc}")

    payloads = run_benches(names, smoke=args.smoke,
                           progress=lambda line: print(line, flush=True),
                           seed=args.seed,
                           profile_dir=out_dir if args.profile else None)
    for path in write_bench_json(payloads, out_dir):
        print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(cli())
