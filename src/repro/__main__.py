"""Command-line entry point: regenerate paper experiments.

Usage::

    python -m repro list                   # available experiments/workloads
    python -m repro fig4                   # run one figure, print its table
    python -m repro fig12 --scale 0.25
    python -m repro all --jobs 8           # every figure/ablation/table,
                                           # fanned across 8 processes
    python -m repro fig4 --no-cache        # bypass the artifact cache
    python -m repro run pr_push --mode Aff-Alloc --scale 0.1
    python -m repro lint                   # afflint the workload layouts
    python -m repro lint examples/lint_fixtures --expect-findings
    python -m repro bench                  # fig12 wall-time benchmarks
    python -m repro bench --smoke --only fig12
    python -m repro chaos --seed 0 --rate 0.05   # fault injection +
                                           # degradation report
    python -m repro chaos --plan plan.json vecadd pr_push
    python -m repro interfere                # host-contention sweep
    python -m repro interfere vecadd --intensity 2 --sweep 0.5,1,2,4
    python -m repro autoplace                # static vs online re-layout
    python -m repro autoplace stream_flip --scale 0.1 --check-determinism
    python -m repro trace vecadd --out trace.json --metrics m.csv --top 5
    python -m repro trace --diff a.json b.json   # exact trace comparison
    python -m repro info --json            # versions, defaults, cache,
                                           # registries

Results of ``all`` (and any multi-experiment invocation) are also written
as machine-readable JSON to ``results/run-<hash>.json``; the hash covers
the experiment configuration (ids/scale/seed/generator version), never
the job count, so ``--jobs 8`` and ``--jobs 1`` produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time

from repro.cache import CacheConfigError, get_cache
from repro.harness import runner
from repro.harness.cliutil import (EXIT_USAGE, add_scale_argument,
                                  add_seed_argument)
from repro.nsc.engine import EngineMode
from repro.workloads import WORKLOADS, run_workload

#: Subcommands with their own parser, as ``"module:function"`` entry
#: points; ``list``, ``run``, ``all`` and experiment ids ride the default
#: parser below.
SUBCOMMANDS = {
    "lint": "repro.analysis.lint:cli",
    "bench": "repro.perf.bench:cli",
    "chaos": "repro.harness.arms:chaos_cli",
    "interfere": "repro.harness.arms:interfere_cli",
    "autoplace": "repro.harness.arms:autoplace_cli",
    "trace": "repro.obs.cli:cli",
    "info": "repro.harness.info:cli",
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        get_cache()  # every subcommand may read the artifact cache
    except CacheConfigError as exc:
        print(f"python -m repro: error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    if argv and argv[0] in SUBCOMMANDS:
        # Each subcommand owns its argument surface; delegate wholesale.
        module, func = SUBCOMMANDS[argv[0]].split(":")
        return getattr(importlib.import_module(module), func)(list(argv[1:]))

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce 'Affinity Alloc' (MICRO 2023) experiments.")
    parser.add_argument("target",
                        help="'list', 'all', an experiment id (fig4..fig20, "
                             "abl_*, table1..table4), a comma-separated list "
                             "of ids, or 'run' for a single workload")
    parser.add_argument("workload", nargs="?", help="workload name for 'run'")
    add_scale_argument(parser, 0.12, "fraction of Table 3 input sizes")
    add_seed_argument(parser, help_suffix="threaded through experiments")
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes for experiments (default 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the content-addressed artifact cache")
    parser.add_argument("--results-dir", default="results",
                        help="where run-<hash>.json lands (default results/)")
    parser.add_argument("--mode", default="Aff-Alloc",
                        choices=[m.value for m in EngineMode])
    parser.add_argument("--no-lint", action="store_true",
                        help="skip the afflint pre-flight over workload "
                             "layout plans")
    args = parser.parse_args(argv)

    if args.target == "list":
        print("experiments:", " ".join(sorted(runner.EXPERIMENTS)))
        print("workloads  :", " ".join(sorted(WORKLOADS)))
        return 0

    if args.target == "run":
        if not args.workload:
            parser.error("'run' needs a workload name")
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; try 'list'")
        mode = next(m for m in EngineMode if m.value == args.mode)
        t0 = time.perf_counter()
        r = run_workload(args.workload, mode, scale=args.scale,
                         seed=args.seed)
        print(f"{r.label}: cycles={r.cycles:,.0f} "
              f"flit-hops={r.total_flit_hops:,.0f} "
              f"L3-miss={r.l3_miss_pct:.1f}% energy={r.energy_pj:,.0f} pJ "
              f"({time.perf_counter() - t0:.1f}s wall)")
        return 0

    if args.target == "all":
        ids = runner.ALL_IDS
    else:
        ids = tuple(t for t in args.target.split(",") if t)
        bad = [t for t in ids if t not in runner.EXPERIMENTS]
        if bad or not ids:
            parser.error(f"unknown target {args.target!r}; try 'list'")

    report = runner.run_figures(
        ids, jobs=args.jobs, scale=args.scale, seed=args.seed,
        use_cache=not args.no_cache,
        results_dir=args.results_dir if len(ids) > 1 else None,
        preflight=not args.no_lint,
        progress=lambda line: print(line, file=sys.stderr, flush=True))

    for fig in report.figures:
        print(fig.render())
        print()
    if len(ids) > 1:
        print(report.summary_table())
        if report.path is not None:
            print(f"\nmetrics JSON: {report.path}")
    print(f"\n[{len(ids)} experiment(s) in {report.wall_s:.1f}s wall, "
          f"jobs={report.jobs}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
