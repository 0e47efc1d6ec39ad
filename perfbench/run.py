"""Benchmark of record: one command, three workloads, every metric.

    python3 perfbench/run.py --workload affine_stencils --seed 1 \\
        --seconds 25 --trace 0

Run from the repository root (or any checkout of it).  Each invocation
measures one workload in fresh child processes and prints the metrics
by name with their unit, then, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones of the span recorder.  The
children use a private artifact cache under ``.perfbench_tmp`` that is
deleted at exit; the full record of each run (environment included) is
written to ``.perfbench_out``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("affine_stencils", "irregular_graphs", "contended_zoo")
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5
#: Threads numpy/BLAS may use (the benchmark machine has two CPUs).
THREADS = "2"
#: Generous per-child limit; the first child in a checkout compiles the
#: C kernels.
CHILD_TIMEOUT_S = 600

#: The paper's headline numbers, printed beside the modelled ones.
PAPER = {"sim_speedup_vs_near_l3": 2.26, "sim_traffic_vs_near_l3": 0.28}

END_TO_END_UNITS = {
    "pass_s": "s", "sim_events_per_s": "1/s", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_ratio": "ratio",
    "sim_speedup_vs_near_l3": "x", "sim_traffic_vs_near_l3": "x",
    "sim_contention_slowdown": "x",
}


class ChildError(RuntimeError):
    pass


def child_env(cache_dir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_NO_CACHE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = THREADS
    return env


def child(cache_dir: Path, *args: str) -> float:
    """Run one ``suite.py`` role to completion; returns its wall seconds."""
    cmd = [sys.executable, str(HERE / "suite.py"), *args]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(cache_dir), cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildError(f"{args[0]} child timed out") from None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise ChildError(f"{args[0]} child exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return wall


def measure(workload: str, seed: int, seconds: int, trace: bool,
            tmp: Path) -> dict:
    out = tmp / "out"
    out.mkdir(parents=True, exist_ok=True)
    spans = ROOT / ".perfbench_out" / f"spans-{workload}-seed{seed}.jsonl.gz"
    child(tmp / "cache", "measure", workload, str(seed), str(seconds),
          "1" if trace else "0", str(out / "measure.json"), str(spans))
    setup = [child(tmp / "cache", "setup", workload)
             for _ in range(SETUP_REPEATS)]
    rec = json.loads((out / "measure.json").read_text())
    rec["setup_s"] = setup
    return rec


def end_to_end(rec: dict) -> Dict[str, float]:
    pass_s = statistics.median(rec["pass_s"])
    return {
        "pass_s": pass_s,
        "sim_events_per_s": statistics.median(rec["events"] / p
                                              for p in rec["pass_s"]),
        "setup_s": statistics.median(rec["setup_s"]),
        "peak_rss_mb": rec["peak_rss_mb"],
        "ok_ratio": 1.0 - len(rec["failures"]) / rec["attempted"],
        # Modelled results on the pinned inputs, whose statistics the
        # stored digests fix: exact across runs of one commit.
        **{k: rec["pinned_sim"][k] for k in ("sim_speedup_vs_near_l3",
                                             "sim_traffic_vs_near_l3",
                                             "sim_contention_slowdown")},
    }


def per_layer(rec: dict) -> Dict[str, float]:
    layers = dict(rec["layers"])
    traced = statistics.median(rec["traced_s"])
    layers.update({k: v for k, v in rec["sim"].items()
                   if k.startswith("sim.")})
    layers["trace.pass_s"] = traced
    layers["trace.overhead_ratio"] = traced / statistics.median(rec["pass_s"])
    return layers


def report(workload: str, seed: int, trace: bool, rec: dict) -> dict:
    print(f"perfbench {workload} seed={seed} trace={int(trace)}")
    print("env " + json.dumps(rec["env"], sort_keys=True))
    for msg in rec["failures"]:
        print(f"FAIL {msg}")
    q1, q2, q3 = statistics.quantiles(rec["pass_s"], n=4)
    print(f"passes {len(rec['pass_s'])}: pass_s median {q2:.4f} s, "
          f"quartiles {q1:.4f}..{q3:.4f} s, "
          f"min..max {min(rec['pass_s']):.4f}..{max(rec['pass_s']):.4f} s")
    print(f"fail_ratio {len(rec['failures']) / rec['attempted']:.4f} "
          f"({len(rec['failures'])} of {rec['attempted']} simulations)")
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in per_layer(rec).items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end(rec).items()}
    for name, m in metrics.items():
        note = ""
        if name in PAPER:
            note = (f"  (paper {PAPER[name]}: 10 workloads at full scale; "
                    f"here {workload} at scale {rec['env']['scale']})")
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".self_s")):
        return "s"
    if name.endswith(("_ratio", ".noc_utilization")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        rec = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace), tmp)
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = report(args.workload, args.seed, bool(args.trace), rec)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}"
     f"-trace{args.trace}.json").write_text(
        json.dumps({**rec, "metrics": metrics}, indent=1) + "\n")
    failed = len(rec["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": rec["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
