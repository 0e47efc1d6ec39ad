"""Parallel experiment runner with per-figure artifact caching.

The paper's evaluation is embarrassingly parallel at figure granularity:
each figure is an independent pipeline of deterministic workload runs.
:func:`run_figures` fans the figure experiments (plus the DESIGN.md
ablations and the Table renders) across a process pool, streams
per-figure progress and wall-clock back to the parent, and aggregates
everything into one report plus a machine-readable metrics JSON
(``results/run-<hash>.json``).

Two invariants the golden-metrics suite (``tests/test_golden_metrics.py``)
locks down:

* **jobs-independence** — the metrics JSON is byte-identical for
  ``--jobs 8`` and ``--jobs 1``: results are keyed and ordered by figure
  id, every experiment seeds its own RNGs, and wall-clock never enters
  the metrics payload.
* **cache-transparency** — a warm-cache rerun returns exactly the rows
  the cold run produced (figure results are cached post-sanitization, so
  the cached and fresh paths serialize identically).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.cache import GENERATOR_VERSION, cache_key, configure, get_cache
from repro.config import DEFAULT_CONFIG
from repro.harness import experiments as exp
from repro.harness import tables
from repro.harness.cliutil import fan_out
from repro.harness.report import ascii_table
from repro.scenario import Scenario

__all__ = ["EXPERIMENTS", "FIGURE_IDS", "ABLATION_IDS", "TABLE_IDS",
           "ALL_IDS", "FigureRun", "RunReport", "run_figures"]


# ----------------------------------------------------------------------
# Registry — every runnable experiment, keyed by CLI id.  Each entry maps
# (scale, seed) to a result object carrying title/headers/rows(); the
# lambdas encode the same Table 3 size conventions the paper uses.
# ----------------------------------------------------------------------
EXPERIMENTS: Dict[str, Callable[[float, int], object]] = {
    "fig4": lambda scale, seed: exp.fig4_vecadd_delta(
        n=max(int((1 << 20) * scale * 4), 1 << 16), seed=seed),
    "fig6": lambda scale, seed: exp.fig6_chunk_remap(scale=scale, seed=seed),
    "fig12": lambda scale, seed: exp.fig12_overall(scale=scale, seed=seed),
    "fig13": lambda scale, seed: exp.fig13_policies(scale=scale, seed=seed),
    "fig14": lambda scale, seed: exp.fig14_atomic_timeline(scale=scale,
                                                           seed=seed),
    "fig15": lambda scale, seed: exp.fig15_affine_scaling(scale=scale,
                                                          seed=seed),
    "fig16": lambda scale, seed: exp.fig16_graph_scaling(
        log_sizes=(12, 13, 14, 15), seed=seed),
    "fig17": lambda scale, seed: exp.fig17_bfs_iterations(scale=scale,
                                                          seed=seed),
    "fig18": lambda scale, seed: exp.fig18_push_pull_timeline(scale=scale,
                                                              seed=seed),
    "fig19": lambda scale, seed: exp.fig19_degree_sweep(
        total_edges=max(int((1 << 22) * scale), 1 << 16), seed=seed),
    "fig20": lambda scale, seed: exp.fig20_real_world(scale=scale / 4,
                                                      seed=seed),
    "abl_nodesize": lambda scale, seed: exp.ablation_node_size(scale=scale,
                                                               seed=seed),
    "abl_pools": lambda scale, seed: exp.ablation_pool_granularity(
        scale=scale, seed=seed),
    "abl_codesign": lambda scale, seed: exp.ablation_codesign(scale=scale,
                                                              seed=seed),
    "relayout": lambda scale, seed: exp.fig_relayout(scale=scale, seed=seed),
    "interfere": lambda scale, seed: exp.fig_interfere(scale=scale / 2,
                                                       seed=seed),
    "table1": lambda scale, seed: tables.table1_iot_format(),
    "table2": lambda scale, seed: tables.table2_system_parameters(),
    "table3": lambda scale, seed: tables.table3_workloads(),
    "table4": lambda scale, seed: tables.table4_real_world_graphs(),
}

FIGURE_IDS = ("fig4", "fig6", "fig12", "fig13", "fig14", "fig15", "fig16",
              "fig17", "fig18", "fig19", "fig20")
ABLATION_IDS = ("abl_nodesize", "abl_pools", "abl_codesign")
TABLE_IDS = ("table1", "table2", "table3", "table4")
ALL_IDS = FIGURE_IDS + ABLATION_IDS + TABLE_IDS


def _plain(obj):
    """Strip numpy/tuple types so rows serialize (and compare) as JSON."""
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _config_fingerprint() -> str:
    """Digest of the default SystemConfig — experiment cache entries are
    invalidated whenever the Table 2 parameters change."""
    blob = json.dumps(dataclasses.asdict(DEFAULT_CONFIG), sort_keys=True,
                      default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
_PLAIN = Scenario()


def _run_one(fid: str, scale: float, seed: int, use_cache: bool,
             cache_dir: Optional[str], crash: bool = False,
             scenario: Scenario = _PLAIN) -> Dict:
    """Run one experiment (in this or a worker process) → plain dict.

    Figure-level results are cached post-sanitization under a key derived
    from (id, scale, seed, config fingerprint, generator version), plus
    the scenario's key fields; a hit skips the whole experiment.
    ``use_cache=False`` bypasses both the figure cache and the graph
    cache underneath.

    ``crash=True`` injects a WORKER_CRASH fault: the worker dies here,
    before computing or touching the cache, and the parent's restart
    logic is exercised exactly as if the process had been OOM-killed.

    ``scenario`` runs the experiment inside its sessions; each active
    part's digest joins the cache key (:class:`repro.scenario.Scenario`).
    A cache hit skips execution, so a traced hit records no events —
    ``python -m repro trace`` runs workloads directly.
    """
    if crash:
        from repro.analysis.diagnostics import WorkerCrashError
        raise WorkerCrashError(fid)
    t0 = time.perf_counter()
    cache = get_cache()
    if cache_dir is not None and Path(cache_dir) != cache.root:
        cache = configure(root=cache_dir)
    key_fields = dict(id=fid, scale=scale, seed=seed,
                      config=_config_fingerprint())
    key_fields.update(scenario.key_fields())
    key = cache_key("experiment", **key_fields)
    payload = cache.get_json(key) if use_cache else None
    from_cache = payload is not None
    if payload is None:
        fn = EXPERIMENTS[fid]
        with scenario.sessions(task=fid):
            if use_cache:
                result = fn(scale, seed)
            else:
                with cache.disabled():
                    result = fn(scale, seed)
        payload = {"title": result.title,
                   "headers": _plain(list(result.headers)),
                   "rows": _plain(list(result.rows()))}
        # Round-trip through JSON so fresh results are exactly what a
        # later cache hit would return (e.g. tuples already lists).
        payload = json.loads(json.dumps(payload))
        if use_cache:
            cache.put_json(key, payload)
    return {"id": fid, "title": payload["title"],
            "headers": payload["headers"], "rows": payload["rows"],
            "wall_s": time.perf_counter() - t0, "from_cache": from_cache}


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
@dataclass
class FigureRun:
    """One completed experiment, fully materialized as plain data."""

    id: str
    title: str
    headers: List[str]
    rows: List[List]
    wall_s: float
    from_cache: bool = False

    def render(self) -> str:
        return f"== {self.title} ==\n{ascii_table(self.headers, self.rows)}"


@dataclass
class RunReport:
    """Aggregate of one :func:`run_figures` invocation."""

    figures: List[FigureRun]
    metrics: Dict
    run_hash: str
    jobs: int
    wall_s: float
    path: Optional[Path] = None

    def summary_table(self) -> str:
        rows = [[f.id, f.title[:48], len(f.rows),
                 "hit" if f.from_cache else "run", f.wall_s]
                for f in self.figures]
        rows.append(["total", f"(jobs={self.jobs})", "", "",
                     sum(f.wall_s for f in self.figures)])
        return ascii_table(
            ["experiment", "title", "rows", "cache", "wall_s"], rows,
            float_fmt="{:.2f}")

    def metrics_json(self) -> str:
        return json.dumps(self.metrics, sort_keys=True, indent=1) + "\n"


def metrics_from_runs(runs: Sequence[FigureRun], scale: float,
                      seed: int) -> Dict:
    """Machine-readable summary — deliberately excludes wall-clock and
    cache provenance so the payload is identical across jobs/cache
    settings."""
    return {
        "run": {
            "ids": [f.id for f in runs],
            "scale": scale,
            "seed": seed,
            "generator_version": GENERATOR_VERSION,
            "config": _config_fingerprint(),
        },
        "figures": {
            f.id: {"title": f.title, "headers": f.headers, "rows": f.rows}
            for f in runs
        },
    }


def _run_name(ids: Sequence[str], scale: float, seed: int) -> str:
    blob = json.dumps({"ids": list(ids), "scale": scale, "seed": seed,
                       "version": GENERATOR_VERSION,
                       "config": _config_fingerprint()}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _preflight_lint(scale: float, notify: Callable[[str], None]) -> None:
    """afflint the workloads' declared layouts before any run starts.

    Cheap (pure plan analysis, no execution): catches layout mistakes —
    conflicting alignments, missing pools, predicted exhaustion — before
    a process pool spends minutes tracing them.
    """
    from repro.analysis.diagnostics import LintFailure
    from repro.analysis.lint import lint_workload_plans

    result, _per_workload = lint_workload_plans(scale=scale)
    notify(f"[preflight] afflint: {result.report.summary()}")
    if result.report.has_errors:
        raise LintFailure(result.report)


def run_figures(ids: Sequence[str], jobs: int = 1, scale: float = 0.12,
                seed: int = 0, use_cache: bool = True,
                results_dir: Optional[os.PathLike] = None,
                preflight: bool = True,
                progress: Optional[Callable[[str], None]] = None,
                fault_plan=None, relayout=None, trace=None,
                interfere=None) -> RunReport:
    """Run experiments by id, optionally fanned across a process pool.

    Args:
        ids: experiment ids from :data:`EXPERIMENTS` (e.g. ``FIGURE_IDS``).
        jobs: worker processes; ``1`` runs inline in this process.
        scale: fraction of the paper's Table 3 input sizes.
        seed: base RNG seed threaded through every experiment.
        use_cache: serve/populate figure + graph caches (``--no-cache``
            passes False).
        results_dir: if given, write ``run-<hash>.json`` there (the hash
            covers ids/scale/seed/version — never jobs — so reruns of the
            same configuration overwrite the same file with the same
            bytes).
        preflight: afflint every workload's layout plan before fanning
            out; errors abort the run with
            :class:`repro.analysis.diagnostics.LintFailure`.
        progress: callback for human-readable per-figure progress lines.
        fault_plan: optional :class:`repro.faults.plan.FaultPlan`.  The
            harness consumes only its WORKER_CRASH events (machine-level
            faults belong to ``python -m repro chaos``, which controls
            the per-run fault session — consuming them here would poison
            the shared figure cache): each budgeted crash kills the
            worker before it computes, and the parent restarts it, up to
            :data:`~repro.harness.cliutil.MAX_RESTARTS` per experiment.
            An empty/None plan leaves every code path and the metrics
            JSON byte-identical to a plain run.
        relayout, trace, interfere: optional scenario parts — a
            :class:`~repro.relayout.policy.RelayoutConfig`, a
            :class:`~repro.obs.tracer.TraceConfig` and a
            :class:`~repro.interfere.plan.HostTrafficPlan` (see
            :class:`repro.scenario.Scenario`).  Every experiment runs
            inside their sessions, and each active part's digest joins
            its figure's cache key, so scenario and plain runs never
            share entries.  The results filename never changes: a run
            whose scenario changes no number (a trace, zero migrations,
            an empty host plan) reproduces the plain run's
            ``run-<hash>.json`` byte for byte.

    Returns:
        A :class:`RunReport`; ``report.figures`` preserves ``ids`` order
        regardless of completion order.
    """
    unknown = [fid for fid in ids if fid not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiment ids {unknown}; "
                       f"available: {sorted(EXPERIMENTS)}")
    notify = progress or (lambda line: None)
    if preflight:
        _preflight_lint(scale, notify)
    jobs = max(1, int(jobs))
    t_start = time.perf_counter()
    crashes: Dict[str, int] = {}
    if fault_plan is not None and fault_plan.events:
        crashes = fault_plan.crash_budget(list(ids))
    task = functools.partial(
        _run_one, scale=scale, seed=seed, use_cache=use_cache,
        cache_dir=str(get_cache().root),
        scenario=Scenario(relayout=relayout, trace=trace,
                          interfere=interfere))
    done, _ = fan_out(
        task, ids, jobs, crash_budget=crashes, notify=notify,
        done_line=lambda k, fid, r: (
            f"[{k}/{len(ids)}] {fid:<12} "
            f"{'cache hit' if r['from_cache'] else 'computed'} "
            f"in {r['wall_s']:.1f}s"))

    runs = [FigureRun(**r) for r in done]
    metrics = metrics_from_runs(runs, scale, seed)
    run_hash = _run_name(ids, scale, seed)
    report = RunReport(figures=runs, metrics=metrics, run_hash=run_hash,
                       jobs=jobs, wall_s=time.perf_counter() - t_start)

    if results_dir is not None:
        out_dir = Path(results_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        out = out_dir / f"run-{run_hash}.json"
        tmp = out.with_suffix(".json.tmp")
        tmp.write_text(report.metrics_json(), encoding="utf-8")
        os.replace(tmp, out)
        report.path = out
    return report
