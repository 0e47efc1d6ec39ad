"""Arm comparisons: the ``chaos``, ``autoplace`` and ``interfere`` subcommands.

An *arm* is one workload run under one :class:`~repro.scenario.Scenario`
(:func:`_arm`).  Each subcommand is a preset comparing arms of one
workload at one mode, scale and seed: chaos runs clean vs faulted,
autoplace static (re-layout held off) vs online, interfere clean vs
contended per host-intensity factor.  A preset supplies a task (its arms
as plain data, so results pickle and merge alike in any process), an
:class:`ArmReport` subclass and a ``*_cli`` over the shared
:func:`_parser` and :func:`_finish`.  ``fan_out`` merges in task order,
so any ``--jobs`` writes the same report, log and plan bytes (DESIGN §14).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (Any, Callable, Collection, Dict, List, Optional,
                    Sequence, Tuple)

from repro.analysis.diagnostics import WorkerCrashError
from repro.analysis.interference import verify_host_injection
from repro.config import DEFAULT_CONFIG
from repro.faults.log import FaultEventLog, FaultRecord
from repro.faults.plan import FaultKind, FaultPlan
from repro.harness.cliutil import (EXIT_FAILURE, EXIT_OK, add_scale_argument,
                                   add_seed_argument, fan_out,
                                   load_or_usage_error)
from repro.harness.report import ascii_table, ratio, run_metrics, section
from repro.interfere.plan import HostTrafficPlan
from repro.nsc.engine import EngineMode
from repro.relayout.engine import RelayoutState, relayout_session
from repro.relayout.plan import MigrationPlan
from repro.relayout.policy import RelayoutConfig
from repro.scenario import Scenario
from repro.serial import PlanFieldError
from repro.workloads import WORKLOADS, run_workload

__all__ = ["ArmReport", "ChaosReport", "AutoplaceReport", "InterfereReport",
           "CHAOS_WORKLOADS", "INTERFERE_WORKLOADS", "DEFAULT_FACTORS",
           "SCENARIOS", "DEFAULT_SCENARIOS", "run_chaos", "run_autoplace",
           "run_interfere", "chaos_cli", "autoplace_cli", "interfere_cli"]

Row = Dict[str, Any]

#: chaos defaults: one affine kernel (vecadd, Fig 4) and one graph kernel
#: (pr_push, Fig 12).
CHAOS_WORKLOADS = ("vecadd", "pr_push")

#: interfere defaults: an affine kernel plus the two bank-hostile zoo
#: members (skewed join, gather/scatter) where contention bites hardest.
INTERFERE_WORKLOADS = ("vecadd", "hash_join_skew", "spmv_gather")

#: Host-intensity multipliers applied to the base plan, in sweep order.
DEFAULT_FACTORS = (0.5, 1.0, 2.0, 4.0)


# -- Shared: one arm, the report base, the parser and the finisher ------------
def _arm(workload: str, mode: str, scale: float, seed: int,
         scenario: Optional[Scenario] = None, task: str = "",
         **overrides: Any) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Run ``workload`` inside ``scenario``'s sessions; returns its
    :func:`run_metrics` and the sessions by part name."""
    with (scenario or Scenario()).sessions(task=task) as sessions:
        result = run_workload(workload, EngineMode[mode], scale=scale,
                              seed=seed, **overrides)
    return run_metrics(result), sessions


@dataclass
class ArmReport:
    """One preset run: its scale and seed, and one row per task in task
    order."""

    scale: float
    seed: int
    rows: List[Row]

    def to_dict(self) -> Dict[str, Any]:
        return {"scale": self.scale, "seed": self.seed, "rows": self.rows}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"

    def save(self, path: Path) -> None:
        path.write_text(self.to_json(), encoding="utf-8")

    def render(self) -> str:
        raise NotImplementedError


def _factor(text: str) -> float:
    """A finite float >= 0; anything else is a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a finite number >= 0, got {text!r}")
    return value


def _rate(text: str) -> float:
    """A probability: a finite float in [0, 1]."""
    value = _factor(text)
    if value <= 1:
        return value
    raise argparse.ArgumentTypeError(f"rate must be in [0, 1], got {text!r}")


def _sweep(text: str) -> Tuple[float, ...]:
    factors = tuple(_factor(tok) for tok in text.split(",") if tok.strip())
    if not factors:
        raise argparse.ArgumentTypeError(f"bad sweep {text!r}")
    return factors


def _parser(name: str, description: str, noun: str,
            defaults: Sequence[str], scale: float, report: str,
            modes: bool = True) -> argparse.ArgumentParser:
    """The flags every preset shares: the task positional, ``--seed``,
    ``--mode`` (unless ``modes`` is False), ``--scale``, ``--jobs`` and
    ``--save-report``."""
    parser = argparse.ArgumentParser(prog=f"python -m repro {name}",
                                     description=description)
    parser.add_argument("tasks", nargs="*", default=list(defaults),
                        metavar=f"{noun}s",
                        help=f"{noun} names (default: {', '.join(defaults)})")
    add_seed_argument(parser, help_suffix="plan generation and runs")
    if modes:
        parser.add_argument("--mode", default="AFF_ALLOC",
                            choices=["IN_CORE", "NEAR_L3", "AFF_ALLOC"],
                            help="engine mode for the runs "
                                 "(default AFF_ALLOC)")
    add_scale_argument(parser, scale)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--save-report", type=Path, default=None,
                        help=f"write {report} here")
    return parser


def _parse(parser: argparse.ArgumentParser, argv: Optional[List[str]],
           known: Collection[str], noun: str, hint: str
           ) -> argparse.Namespace:
    args = parser.parse_args(argv)
    bad = [t for t in args.tasks if t not in known]
    if bad:
        parser.error(f"unknown {noun}(s): {', '.join(bad)}; {hint}")
    return args


#: (path or None, writer, label) for one ``--save-*`` flag.
Save = Tuple[Optional[Path], Callable[[Path], None], str]


def _finish(report: ArmReport, saves: Sequence[Save],
            rerun: Optional[Callable[..., ArmReport]],
            checks: Sequence[Tuple[bool, str]]) -> int:
    """Print the report and write the requested files in order; then
    ``rerun(jobs=2)`` (``--check-determinism``) must give the same bytes
    and no ``(failed, message)`` check may fail."""
    print(report.render())
    for path, save, label in saves:
        if path is not None:
            save(path)
            print(f"{label} -> {path}")
    if rerun is not None:
        if rerun(jobs=2).to_json() != report.to_json():
            print("ERROR: report differs between --jobs 1 and --jobs 2")
            return EXIT_FAILURE
        print("determinism check passed (jobs=1 == jobs=2)")
    for failed, message in checks:
        if failed:
            print(f"ERROR: {message}")
            return EXIT_FAILURE
    return EXIT_OK


def _load_host_plan(path: Path) -> HostTrafficPlan:
    """A host-traffic plan file, checked against the default machine."""
    return HostTrafficPlan.load(path).check(DEFAULT_CONFIG)


# -- chaos: clean vs faulted --------------------------------------------------
def _chaos_task(name: str, mode: str, scale: float, seed: int,
                scenario: Scenario, crash: bool = False) -> Row:
    """One workload's clean and faulted arms.  The row gains
    ``injected_messages`` only when ``scenario`` carries host traffic,
    so plain chaos rows keep their bytes."""
    if crash:
        raise WorkerCrashError(name)
    clean, _ = _arm(name, mode, scale, seed)
    faulted, sessions = _arm(name, mode, scale, seed, scenario, task=name)
    faults = sessions["faults"]
    faults.finalize()
    row: Row = {"workload": name, "clean": clean, "faulted": faulted,
                "retries": sum(s.retries for s in faults.states),
                "host_fallbacks": sum(s.host_fallbacks
                                      for s in faults.states),
                "records": [r.to_dict() for r in faults.log.records]}
    if "interfere" in sessions:
        row["injected_messages"] = sum(
            s.injected_messages for s in sessions["interfere"].states)
    return row


@dataclass
class ChaosReport(ArmReport):
    """Aggregate of one :func:`run_chaos` invocation."""

    plan: FaultPlan = field(default_factory=FaultPlan.empty)
    mode: str = "AFF_ALLOC"
    log: FaultEventLog = field(default_factory=FaultEventLog)
    restarts: Dict[str, int] = field(default_factory=dict)
    #: Host-traffic plan composed into the faulted arms; joins the
    #: payload only when set, so plain chaos reports keep their bytes.
    interfere: Optional[HostTrafficPlan] = None

    @property
    def unhandled_count(self) -> int:
        return self.log.count("unhandled")

    def to_dict(self) -> Dict[str, Any]:
        payload = super().to_dict()
        payload.update(plan=self.plan.to_dict(), mode=self.mode,
                       restarts=dict(sorted(self.restarts.items())),
                       handled_faults=self.log.handled_count(),
                       unhandled_faults=self.unhandled_count)
        if self.interfere is not None:
            payload["interfere"] = self.interfere.to_dict()
        return payload

    def render(self) -> str:
        headers = ["workload", "slowdown", "extra hops", "locality clean",
                   "locality faulted", "retries", "host-fb", "restarts"]
        contended = self.interfere is not None
        if contended:
            headers.append("inj msgs")
        table_rows = []
        for row in self.rows:
            c, f = row["clean"], row["faulted"]
            cells = [
                row["workload"], f"{ratio(f['cycles'], c['cycles']):.2f}x",
                f"{f['flit_hops'] - c['flit_hops']:.0f}",
                f"{c['locality']:.3f}", f"{f['locality']:.3f}",
                row["retries"], row["host_fallbacks"],
                self.restarts.get(row["workload"], 0)]
            if contended:
                cells.append(f"{row.get('injected_messages', 0.0):.0f}")
            table_rows.append(cells)
        return "\n".join([
            str(self.plan), "",
            section("Degradation report", ascii_table(headers, table_rows)),
            "", section("Fault event log", self.log.render()), "",
            f"handled: {self.log.handled_count()}  "
            f"unhandled: {self.unhandled_count}"])


def run_chaos(workloads: Sequence[str], plan: FaultPlan,
              mode: str = "AFF_ALLOC", scale: float = 0.05, seed: int = 0,
              jobs: int = 1, progress: Optional[Callable[[str], None]] = None,
              interfere: Optional[HostTrafficPlan] = None) -> ChaosReport:
    """Clean-vs-faulted pairs for every workload under one plan.

    WORKER_CRASH events are consumed here (budget mapped over the
    workload list by ordinal); the others apply inside each faulted arm.
    ``interfere`` contends every faulted arm; ``None`` or an empty plan
    leaves the report byte-identical to a plain chaos run.
    """
    if interfere is not None and interfere.is_empty:
        interfere = None  # attaches nothing: keep the plain report bytes
    results, restarts = fan_out(
        functools.partial(_chaos_task, mode=mode, scale=scale, seed=seed,
                          scenario=Scenario(faults=plan,
                                            interfere=interfere)),
        workloads, jobs,
        crash_budget=plan.crash_budget(list(workloads)), notify=progress)

    log = FaultEventLog()
    for name, row in zip(workloads, results):
        for _ in range(restarts.get(name, 0)):
            for action, detail in (
                    ("crash", "injected worker crash"),
                    ("restart", "harness restarted the worker")):
                log.add(FaultRecord(task=name,
                                    kind=FaultKind.WORKER_CRASH.value,
                                    target=name, action=action,
                                    detail=detail))
        for rec in row.pop("records"):
            log.add(FaultRecord.from_dict(rec))
    return ChaosReport(scale=scale, seed=seed, rows=results, plan=plan,
                       mode=mode, log=log, restarts=restarts,
                       interfere=interfere)


def chaos_cli(argv: Optional[List[str]] = None) -> int:
    parser = _parser("chaos", "Deterministic fault injection: run workloads "
                     "under a fault plan and report graceful degradation.",
                     "workload", CHAOS_WORKLOADS, 0.05,
                     "the degradation report JSON")
    parser.add_argument("--plan", type=Path, default=None,
                        help="JSON fault plan file (overrides --seed/--rate)")
    parser.add_argument("--interfere", type=Path, default=None,
                        help="JSON host-traffic plan to contend the faulted "
                             "arms with (see 'interfere --save-plan')")
    parser.add_argument("--rate", type=_rate, default=0.05,
                        help="generated plans' per-resource fault rate")
    parser.add_argument("--save-log", type=Path, default=None,
                        help="write the fault event log JSON here")
    args = _parse(parser, argv, WORKLOADS, "workload",
                  "try 'python -m repro list'")
    plan = (FaultPlan.generate(args.seed, args.rate, tasks=len(args.tasks))
            if args.plan is None else load_or_usage_error(
                parser, FaultPlan.load, args.plan, "fault plan"))
    interfere = None if args.interfere is None else load_or_usage_error(
        parser, _load_host_plan, args.interfere, "host-traffic plan")
    report = run_chaos(args.tasks, plan, mode=args.mode, scale=args.scale,
                       seed=args.seed, jobs=args.jobs, progress=print,
                       interfere=interfere)
    unhandled = report.unhandled_count
    return _finish(report, [(args.save_log, report.log.save, "fault log"),
                            (args.save_report, report.save,
                             "degradation report")],
                   None, [(unhandled > 0,
                           f"{unhandled} unhandled fault event(s)")])


# -- autoplace: static vs online re-layout ------------------------------------
def _bfs_overrides(scale: float, seed: int) -> Dict[str, Any]:
    """BFS push->pull switch on a sparse graph whose spatial queue was
    (deliberately) homed three banks off its vertex partitions."""
    from repro.graphs.csr import CSRGraph
    from repro.graphs.generators import kronecker
    kscale = 14 if scale == 1.0 else max(11, 14 + int(round(math.log2(scale))))
    g = kronecker(kscale, 2, seed=seed)
    g = CSRGraph.from_edge_list(g.num_vertices, g.sources(), g.edges,
                                g.weights, symmetrize=True)
    return {"graph": g, "queue_delta": 3}


#: Phase-changing scenarios, each named after the workload it runs ->
#: builder(scale, seed) of that run's overrides.  ``stream_flip`` is a
#: streaming add whose read offset slides by three banks mid-run;
#: ``dyn_graph`` a mutation stream whose hot offset moves twice.
SCENARIOS: Dict[str, Callable[[float, int], Dict[str, Any]]] = {
    "bfs": _bfs_overrides,
    "stream_flip": lambda scale, seed: {},
    "dyn_graph": lambda scale, seed: {},
}

DEFAULT_SCENARIOS = ("stream_flip", "bfs", "dyn_graph")


def _post_locality(state: RelayoutState) -> Optional[float]:
    """Stream locality of the last epoch (after any migrations settled)."""
    for _label, total, remote in reversed(state.epoch_locality):
        if total > 0:
            return 1.0 - remote / total
    return None


def _autoplace_task(scenario: str, scale: float, seed: int,
                    cfg: RelayoutConfig) -> Row:
    """One scenario's static and online arms."""
    overrides = SCENARIOS[scenario](scale, seed)
    with relayout_session(None):  # static, even under an outer session
        static, _ = _arm(scenario, "AFF_ALLOC", scale, seed, **overrides)
    online, sessions = _arm(scenario, "AFF_ALLOC", scale, seed,
                            Scenario(relayout=cfg), task=scenario,
                            **overrides)
    session = sessions["relayout"]
    plan = session.merged_plan()
    post = (p for p in map(_post_locality, session.states) if p is not None)
    return {"scenario": scenario, "workload": scenario,
            "static": static, "online": online,
            "migrations": plan.applied_count(),
            "moved_bytes": plan.moved_bytes(),
            "post_locality": next(post, None),
            "plan": plan.to_dict()}


@dataclass
class AutoplaceReport(ArmReport):
    """Aggregate of one :func:`run_autoplace` invocation."""

    config: RelayoutConfig = field(default_factory=RelayoutConfig)
    plan: MigrationPlan = field(default_factory=MigrationPlan.empty)

    @staticmethod
    def recovered(row: Row) -> float:
        return ratio(row["static"]["cycles"], row["online"]["cycles"])

    @property
    def best_recovered(self) -> float:
        return max((self.recovered(r) for r in self.rows), default=1.0)

    def to_dict(self) -> Dict[str, Any]:
        payload = super().to_dict()
        payload.update(config=self.config.to_dict(), plan=self.plan.to_dict())
        return payload

    def render(self) -> str:
        headers = ["scenario", "static cyc", "online cyc", "recovered",
                   "migrations", "moved KiB", "loc static", "loc online",
                   "loc final"]
        table_rows = []
        for row in self.rows:
            s, o = row["static"], row["online"]
            post = row.get("post_locality")
            table_rows.append([
                row["scenario"], f"{s['cycles']:.0f}", f"{o['cycles']:.0f}",
                f"{self.recovered(row):.3f}x", row["migrations"],
                f"{row['moved_bytes'] / 1024:.0f}",
                f"{s['locality']:.3f}", f"{o['locality']:.3f}",
                f"{post:.3f}" if post is not None else "-"])
        return "\n".join([section("Online re-layout report",
                                  ascii_table(headers, table_rows)), "",
                          str(self.plan)])


def run_autoplace(scenarios: Sequence[str],
                  cfg: Optional[RelayoutConfig] = None,
                  scale: float = 1.0, seed: int = 0, jobs: int = 1,
                  progress: Optional[Callable[[str], None]] = None
                  ) -> AutoplaceReport:
    """Static-vs-online pairs for every scenario under one config."""
    cfg = cfg if cfg is not None else RelayoutConfig()
    rows, _ = fan_out(
        functools.partial(_autoplace_task, scale=scale, seed=seed, cfg=cfg),
        scenarios, jobs, notify=progress)
    plan = MigrationPlan.empty(seed=cfg.seed, max_per_epoch=cfg.max_per_epoch)
    for name, row in zip(scenarios, rows):
        plan = plan.merged_with(
            MigrationPlan.from_dict(row["plan"]).retagged(name))
    return AutoplaceReport(scale=scale, seed=seed, rows=rows, config=cfg,
                           plan=plan)


def autoplace_cli(argv: Optional[List[str]] = None) -> int:
    parser = _parser("autoplace", "Telemetry-driven online re-layout: "
                     "compare the allocator's static placement against "
                     "epoch-based migration on phase-changing workloads.",
                     "scenario", DEFAULT_SCENARIOS, 1.0, "the report JSON",
                     modes=False)
    parser.add_argument("--max-per-epoch", type=int, default=None,
                        help="migration bound per epoch")
    parser.add_argument("--min-recovery", type=float, default=0.0,
                        help="fail unless some scenario recovers this speedup")
    parser.add_argument("--check-determinism", action="store_true",
                        help="fail unless --jobs 2 writes the same report")
    parser.add_argument("--save-plan", type=Path, default=None,
                        help="write the merged migration plan JSON here")
    args = _parse(parser, argv, SCENARIOS, "scenario",
                  f"available: {', '.join(sorted(SCENARIOS))}")
    cfg = RelayoutConfig(seed=args.seed)
    if args.max_per_epoch is not None:
        cfg = replace(cfg, max_per_epoch=args.max_per_epoch)

    run = functools.partial(run_autoplace, args.tasks, cfg, scale=args.scale,
                            seed=args.seed)
    report = run(jobs=args.jobs, progress=print)
    best = report.best_recovered
    return _finish(report, [(args.save_report, report.save, "report"),
                            (args.save_plan, report.plan.save,
                             "migration plan")],
                   run if args.check_determinism else None,
                   [(args.min_recovery > 0.0 and best < args.min_recovery,
                     f"best recovered speedup {best:.3f}x below required "
                     f"{args.min_recovery:.3f}x")])


# -- interfere: clean vs contended, per intensity factor ----------------------
def _interfere_task(name: str, mode: str, scale: float, seed: int,
                    plan: HostTrafficPlan, factors: Tuple[float, ...]) -> Row:
    """One workload's clean arm, contended arms (with the INT006 check
    of their injection ledgers) and, under AFF_ALLOC, recovery arm."""
    clean, _ = _arm(name, mode, scale, seed)
    arms: List[Row] = []
    for factor in factors:
        metrics, sessions = _arm(name, mode, scale, seed,
                                 Scenario(interfere=plan.scaled(factor)),
                                 task=name)
        findings: List[str] = []
        residuals: Dict[str, float] = {}
        host: Dict[str, float] = {}
        session = sessions.get("interfere")
        for state in session.states if session is not None else ():
            report, res = verify_host_injection(state)
            findings.extend(d.render() for d in report.diagnostics)
            for key, value in res.items():
                residuals[key] = max(residuals.get(key, 0.0), value)
            host = state.summary()
        arms.append({"factor": factor, "metrics": metrics,
                     "slowdown": ratio(metrics["cycles"], clean["cycles"]),
                     "host": host, "int006_findings": findings,
                     "residuals": residuals})

    recovery: Optional[Row] = None
    if mode == "AFF_ALLOC" and factors:
        fmax = max(factors)
        online, sessions = _arm(name, mode, scale, seed,
                                Scenario(relayout=RelayoutConfig(seed=seed),
                                         interfere=plan.scaled(fmax)),
                                task=name)
        contended = arms[factors.index(fmax)]["metrics"]["cycles"]
        migrations = sessions["relayout"].merged_plan().applied_count()
        recovery = {"factor": fmax, "metrics": online,
                    "recovered": ratio(contended, online["cycles"]),
                    "migrations": migrations}
    return {"workload": name, "clean": clean, "arms": arms,
            "recovery": recovery}


@dataclass
class InterfereReport(ArmReport):
    """Aggregate of one :func:`run_interfere` invocation."""

    plan: HostTrafficPlan = field(default_factory=HostTrafficPlan.empty)
    mode: str = "AFF_ALLOC"
    factors: Tuple[float, ...] = DEFAULT_FACTORS

    @property
    def max_slowdown(self) -> float:
        return float(max((arm["slowdown"] for row in self.rows
                          for arm in row["arms"]), default=1.0))

    @property
    def int006_findings(self) -> List[str]:
        return [line for row in self.rows for arm in row["arms"]
                for line in arm["int006_findings"]]

    def to_dict(self) -> Dict[str, Any]:
        payload = super().to_dict()
        payload.update(plan=self.plan.to_dict(), mode=self.mode,
                       factors=list(self.factors))
        return payload

    def render(self) -> str:
        table_rows = []
        recovery_rows = []
        for row in self.rows:
            clean = row["clean"]
            for arm in row["arms"]:
                table_rows.append([
                    row["workload"], f"{arm['factor']:g}x",
                    f"{clean['cycles']:.0f}",
                    f"{arm['metrics']['cycles']:.0f}",
                    f"{arm['slowdown']:.3f}x",
                    f"{arm['host'].get('messages', 0.0):.0f}",
                    "FAIL" if arm["int006_findings"] else "ok"])
            rec = row["recovery"]
            if rec is not None:
                contended = next(a["metrics"]["cycles"] for a in row["arms"]
                                 if a["factor"] == rec["factor"])
                recovery_rows.append([
                    row["workload"], f"{rec['factor']:g}x",
                    f"{contended:.0f}", f"{rec['metrics']['cycles']:.0f}",
                    f"{rec['recovered']:.3f}x", rec["migrations"]])
        lines = [str(self.plan), "", section(
            "Host-contention report",
            ascii_table(["workload", "factor", "clean cyc", "contended cyc",
                         "slowdown", "host msgs", "INT006"], table_rows))]
        if recovery_rows:
            lines += ["", section(
                "Re-layout recovery (contended vs contended+online)",
                ascii_table(["workload", "factor", "contended cyc",
                             "online cyc", "recovered", "migrations"],
                            recovery_rows))]
        findings = self.int006_findings
        if findings:
            lines += ["", section("INT006 findings", "\n".join(findings))]
        return "\n".join(lines)


def run_interfere(workloads: Sequence[str], plan: HostTrafficPlan,
                  mode: str = "AFF_ALLOC", scale: float = 0.05, seed: int = 0,
                  factors: Sequence[float] = DEFAULT_FACTORS, jobs: int = 1,
                  progress: Optional[Callable[[str], None]] = None
                  ) -> InterfereReport:
    """Clean-vs-contended sweeps for every workload under one plan."""
    factors_t = tuple(float(f) for f in factors)
    rows, _ = fan_out(
        functools.partial(_interfere_task, mode=mode, scale=scale,
                          seed=seed, plan=plan, factors=factors_t),
        workloads, jobs, notify=progress)
    return InterfereReport(scale=scale, seed=seed, rows=rows, plan=plan,
                           mode=mode, factors=factors_t)


def _check_empty_identity(scale: float, seed: int) -> bool:
    """Byte-compare ``run-<hash>.json`` for ``interfere=None`` versus an
    *empty* plan — the structural no-op contract CI gates on."""
    import tempfile

    from repro.harness.runner import run_figures
    with tempfile.TemporaryDirectory() as tmp:
        clean, empty = (run_figures(["fig4"], scale=scale, seed=seed,
                                    use_cache=False,
                                    results_dir=Path(tmp) / sub,
                                    preflight=False, interfere=plan).path
                        for sub, plan in (("clean", None),
                                          ("empty", HostTrafficPlan.empty())))
        assert clean is not None and empty is not None
        name, data = (clean.name == empty.name,
                      clean.read_bytes() == empty.read_bytes())
    print("empty-plan identity check passed (run-*.json byte-identical, "
          f"name {clean.name})" if name and data else
          "ERROR: empty-plan run differs from the clean run "
          f"(same name: {name}, same bytes: {data})")
    return name and data


def interfere_cli(argv: Optional[List[str]] = None) -> int:
    parser = _parser("interfere", "Concurrent-host interference: run "
                     "workloads against a deterministic host-traffic plan, "
                     "sweep its intensity, and report slowdown + recovery.",
                     "workload", INTERFERE_WORKLOADS, 0.05,
                     "the contention report JSON")
    parser.add_argument("--plan", type=Path, default=None,
                        help="JSON host-traffic plan (overrides --intensity)")
    parser.add_argument("--intensity", type=_factor, default=1.0,
                        help="generated plans' base host intensity")
    parser.add_argument("--sweep", type=_sweep, default=DEFAULT_FACTORS,
                        help="comma-separated intensity factors (default "
                             f"{','.join(map(str, DEFAULT_FACTORS))})")
    parser.add_argument("--save-plan", type=Path, default=None,
                        help="write the (generated or loaded) plan here")
    parser.add_argument("--min-slowdown", type=float, default=0.0,
                        help="fail unless some contended arm slows this much")
    parser.add_argument("--check-empty-identity", action="store_true",
                        help="fail unless an empty plan's run-<hash>.json "
                             "matches a clean run's")
    parser.add_argument("--check-determinism", action="store_true",
                        help="fail unless --jobs 2 writes the same report")
    args = _parse(parser, argv, WORKLOADS, "workload",
                  "try 'python -m repro list'")
    try:
        plan = (HostTrafficPlan.generate(args.seed, intensity=args.intensity)
                if args.plan is None else load_or_usage_error(
                    parser, _load_host_plan, args.plan, "plan"))
        for factor in args.sweep:
            plan.scaled(factor)
    except PlanFieldError as exc:
        parser.error("--intensity and --sweep must keep every host "
                     f"intensity finite: {exc}")
    if args.check_empty_identity and not _check_empty_identity(args.scale,
                                                               args.seed):
        return EXIT_FAILURE

    run = functools.partial(run_interfere, args.tasks, plan, mode=args.mode,
                            scale=args.scale, seed=args.seed,
                            factors=args.sweep)
    report = run(jobs=args.jobs, progress=print)
    findings = report.int006_findings
    slowdown = report.max_slowdown
    return _finish(report, [(args.save_plan, plan.save, "host-traffic plan"),
                            (args.save_report, report.save,
                             "contention report")],
                   run if args.check_determinism else None,
                   [(bool(findings),
                     f"{len(findings)} INT006 injection-model finding(s)"),
                    (args.min_slowdown > 0.0
                     and slowdown < args.min_slowdown,
                     f"max slowdown {slowdown:.3f}x below required "
                     f"{args.min_slowdown:.3f}x")])
