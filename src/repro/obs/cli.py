"""``python -m repro trace`` — trace any workload or experiment.

Runs the requested targets inside a :func:`~repro.obs.tracer.trace_session`
(always executing them — the figure cache is bypassed on purpose, since a
cache hit would produce no events), then exports:

* a Chrome trace-event JSON (``--out``) loadable in the Perfetto UI,
* a flat metrics dump (``--metrics``, ``.json`` or ``.csv``),
* a per-run cycle-attribution table plus the hottest banks and NoC
  channels (``--top N``) on stdout.

Determinism contract: the same ``(targets, mode, scale, seed)`` produce
byte-identical trace and metrics files at any ``--jobs``
(:func:`~repro.harness.cliutil.fan_out` merges in task order; process
ids are assigned during the merge).  ``--diff A B`` checks two trace files for
exact equality (exit 1 on mismatch); ``--validate FILE`` checks one
against the trace-event schema.
"""

from __future__ import annotations

import argparse
import functools
import json
import types
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.harness.cliutil import (EXIT_FAILURE, EXIT_OK, add_seed_argument,
                                   fan_out)
from repro.obs.export import (channel_labels, chrome_trace, diff_traces,
                              metrics_csv_lines, top_entries,
                              validate_chrome_trace)
from repro.obs.tracer import TraceConfig, trace_session

__all__ = ["DEFAULT_TARGETS", "run_trace", "cli"]

#: Default target: the paper's smallest canonical affine kernel.
DEFAULT_TARGETS = ("vecadd",)


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
def _trace_task(target: str, mode_name: str, scale: float, seed: int,
                cfg: TraceConfig) -> Dict[str, Any]:
    """Trace one workload or experiment (in this or a worker process).

    Returns plain data only, so results pickle and merge identically
    whatever the process layout.
    """
    from repro.harness import runner
    from repro.nsc.engine import EngineMode
    from repro.workloads import WORKLOADS
    from repro.workloads.base import run_workload

    with trace_session(cfg, task=target) as session:
        if target in WORKLOADS:
            run_workload(target, EngineMode[mode_name], scale=scale,
                         seed=seed)
        else:
            runner.EXPERIMENTS[target](scale, seed)

    states: List[Dict[str, Any]] = []
    for st in session.states:
        label = str(st.runs[-1]["label"]) if st.runs else (st.task or target)
        states.append({
            "label": label,
            "events": st.resolved_events(),
            "runs": list(st.runs),
            "registry": st.registry.as_dict(),
            "channel_loads": list(st.channel_loads),
            "channel_labels": channel_labels(st.machine.mesh),
            "bank_busy": list(st.bank_busy),
        })
    return {"target": target, "states": states}


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def run_trace(targets: Sequence[str], mode: str = "AFF_ALLOC",
              scale: float = 0.05, seed: int = 0, jobs: int = 1,
              cfg: Optional[TraceConfig] = None,
              progress: Optional[Callable[[str], None]] = None
              ) -> Dict[str, Any]:
    """Trace every target; return the merged, deterministic payload.

    The result carries ``trace`` (Chrome trace-event object), ``metrics``
    (``{pid/label: {metric: value}}``), and ``states`` (the per-machine
    data the stdout report is rendered from).
    """
    cfg = cfg if cfg is not None else TraceConfig()
    results, _ = fan_out(
        functools.partial(_trace_task, mode_name=mode, scale=scale,
                          seed=seed, cfg=cfg),
        targets, jobs, notify=progress)

    # pids are assigned here, sequentially in task order.
    runs: List[Dict[str, Any]] = []
    metrics: Dict[str, Dict[str, float]] = {}
    states: List[Dict[str, Any]] = []
    pid = 0
    for result in results:
        for st in result["states"]:
            st = dict(st)
            st["pid"] = pid
            runs.append({"pid": pid, "label": st["label"],
                         "events": st["events"]})
            metrics[f"{pid:03d}/{st['label']}"] = dict(st["registry"])
            states.append(st)
            pid += 1
    trace = chrome_trace(runs, other_data={
        "targets": list(targets), "mode": mode, "scale": scale,
        "seed": seed, "trace_config": asdict(cfg)})
    return {"trace": trace, "metrics": metrics, "states": states}


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def render_report(payload: Dict[str, Any], top: int = 0) -> str:
    """Human report: per-run attribution plus hottest banks/channels."""
    from repro.harness.report import (ascii_table, attribution_table,
                                      section)
    blocks: List[str] = []
    for st in payload["states"]:
        for run in st["runs"]:
            shim = types.SimpleNamespace(
                phase_cycles=run["phase_cycles"],
                phase_resources=run["phase_resources"])
            blocks.append(section(
                f"{run['label']} — {run['cycles']:.0f} cycles",
                attribution_table(shim)))
        if top > 0:
            bank_labels = [f"bank:{i}" for i in range(len(st["bank_busy"]))]
            hot_banks = top_entries(st["bank_busy"], bank_labels, top)
            hot_links = top_entries(st["channel_loads"],
                                    st["channel_labels"], top)
            rows = [[lbl, f"{val:.1f}"] for lbl, val in hot_banks]
            rows += [[lbl, f"{val:.1f}"] for lbl, val in hot_links]
            if rows:
                blocks.append(section(
                    f"top-{top} hot banks (busy cycles) / "
                    f"channels (flits) — {st['label']}",
                    ascii_table(["resource", "load"], rows)))
    n_events = len(payload["trace"]["traceEvents"])
    blocks.append(f"{len(payload['states'])} machine(s), "
                  f"{n_events} trace event(s)")
    return "\n\n".join(blocks)


def _dump_json(obj: Any, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")


def _load_json(path: Path) -> Any:
    return json.loads(path.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def cli(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Deterministic tracing: run workloads/experiments with "
                    "the span tracer on and export Chrome trace-event "
                    "JSON, metrics, and cycle attribution.")
    parser.add_argument("targets", nargs="*", default=[],
                        help=f"workload names or experiment ids (default: "
                             f"{', '.join(DEFAULT_TARGETS)})")
    parser.add_argument("--mode", default="AFF_ALLOC",
                        choices=["IN_CORE", "NEAR_L3", "AFF_ALLOC"],
                        help="engine mode for plain workload targets "
                             "(default AFF_ALLOC)")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="workload scale (default 0.05)")
    add_seed_argument(parser)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the Chrome trace-event JSON here "
                             "(load it at https://ui.perfetto.dev)")
    parser.add_argument("--metrics", type=Path, default=None,
                        help="write the flat metrics dump here "
                             "(.csv for CSV, anything else for JSON)")
    parser.add_argument("--top", type=int, default=0,
                        help="also report the N hottest banks and NoC "
                             "channels per machine")
    parser.add_argument("--no-args", action="store_true",
                        help="drop instant arguments from the trace")
    parser.add_argument("--max-events", type=int, default=None,
                        help="cap on buffered instants per machine")
    parser.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"),
                        default=None,
                        help="compare two trace files for exact equality "
                             "and exit (1 on mismatch)")
    parser.add_argument("--validate", type=Path, default=None,
                        help="validate one trace file against the "
                             "trace-event schema and exit (1 on problems)")
    args = parser.parse_args(argv)

    if args.diff is not None:
        problems = diff_traces(_load_json(args.diff[0]),
                               _load_json(args.diff[1]))
        for p in problems:
            print(p)
        if problems:
            print(f"ERROR: traces differ ({len(problems)} problem(s))")
            return EXIT_FAILURE
        print("traces are identical")
        return EXIT_OK

    if args.validate is not None:
        problems = validate_chrome_trace(_load_json(args.validate))
        for p in problems:
            print(p)
        if problems:
            print(f"ERROR: invalid trace ({len(problems)} problem(s))")
            return EXIT_FAILURE
        print("trace is schema-valid")
        return EXIT_OK

    targets = list(args.targets) or list(DEFAULT_TARGETS)
    from repro.harness import runner
    from repro.workloads import WORKLOADS
    bad = [t for t in targets
           if t not in WORKLOADS and t not in runner.EXPERIMENTS]
    if bad:
        parser.error(f"unknown target(s): {', '.join(bad)}; "
                     f"try 'python -m repro list'")

    kwargs: Dict[str, Any] = {}
    if args.no_args:
        kwargs["include_args"] = False
    if args.max_events is not None:
        kwargs["max_events"] = args.max_events
    cfg = TraceConfig(**kwargs)

    payload = run_trace(targets, mode=args.mode, scale=args.scale,
                        seed=args.seed, jobs=args.jobs, cfg=cfg,
                        progress=print)
    print(render_report(payload, top=args.top))
    if args.out is not None:
        _dump_json(payload["trace"], args.out)
        print(f"chrome trace -> {args.out}")
    if args.metrics is not None:
        if args.metrics.suffix == ".csv":
            args.metrics.write_text(
                "\n".join(metrics_csv_lines(payload["metrics"])) + "\n",
                encoding="utf-8")
        else:
            _dump_json(payload["metrics"], args.metrics)
        print(f"metrics -> {args.metrics}")
    return EXIT_OK
