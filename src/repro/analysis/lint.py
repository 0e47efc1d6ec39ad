"""The afflint orchestrator and CLI (``python -m repro lint``).

A :class:`LintSession` is the analysis-time analogue of a run context:
it owns a machine and a *recording* allocator (``record_events=True``),
and fixtures/workloads register layout plans and kernels against it.
:func:`run_passes` then drives all four passes and merges their findings
into one deduplicated :class:`DiagnosticReport`:

1. constraint linting of every registered plan (+ allocator state),
2. lifetime checking of the allocator's event trace,
3. stream-graph hazard detection per kernel,
4. static coverage estimation per kernel (and per plan, as notes).

The CLI lints the shipped workloads' layout plans by default, or fixture
files (modules defining ``build(session)``) when paths are given.  Two
further modes cover the v2 passes:

* ``--plans SPEC`` runs the cross-plan interference analyzer
  (:mod:`repro.analysis.interference`) over a *set* of tenants — either
  comma-separated shipped workload names or a fixture module defining
  ``tenants()`` (and optionally ``config()``) — emitting INT001-INT004,
  plus INT005 under ``--verify-traffic`` (predictions held to measured
  counters).
* ``--self [PATHS]`` runs the determinism/guard sanitizer
  (:mod:`repro.analysis.selfcheck`) over this repository's own source
  (default: the installed ``repro`` package), emitting DET/GRD codes.

``--format text|json|github`` selects the output encoding in every
mode (see :mod:`repro.analysis.format`).
"""

from __future__ import annotations

import argparse
import importlib.util
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis import constraints, coverage, hazards, lifetime
from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.plan import LayoutPlan
from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core.runtime import AffinityAllocator
from repro.machine import Machine

__all__ = ["LintSession", "LintResult", "run_passes", "lint_fixture_file",
           "lint_workload_plans", "load_tenant_fixture", "cli"]


class LintSession:
    """Analysis-time context fixtures and workloads lint against."""

    def __init__(self, config: SystemConfig = DEFAULT_CONFIG,
                 strict: bool = False, seed: int = 0):
        self.machine = Machine(config, seed=seed)
        self.allocator = AffinityAllocator(self.machine, strict=strict,
                                           record_events=True)
        self.plans: List[LayoutPlan] = []
        self.kernels: List[object] = []
        #: Set False when leaked allocations at session end are expected.
        self.expect_clean_exit = True

    # Convenience alias so fixtures read like workload code.
    @property
    def alloc(self) -> AffinityAllocator:
        return self.allocator

    def add_plan(self, plan: LayoutPlan) -> LayoutPlan:
        self.plans.append(plan)
        return plan

    def add_kernel(self, kernel) -> object:
        """Register a kernel (KernelBuilder or CompiledKernel).

        Registration counts as a *use* of every array the kernel touches,
        so freeing an array before registering a kernel over it is a
        use-after-free (LIF003).
        """
        builder = getattr(kernel, "builder", kernel)
        if builder is not None and hasattr(builder, "accesses"):
            for acc in builder.accesses():
                vaddr = getattr(acc.handle, "vaddr", None)
                if vaddr is not None:
                    self.allocator.record_use(
                        int(vaddr), getattr(acc.handle, "name", acc.name))
        self.kernels.append(kernel)
        return kernel

    def use(self, handle) -> None:
        """Explicitly mark a handle/address as referenced."""
        vaddr = getattr(handle, "vaddr", handle)
        self.allocator.record_use(int(vaddr),
                                  getattr(handle, "name", ""))


@dataclass
class LintResult:
    """Merged findings plus the per-kernel coverage reports."""

    report: DiagnosticReport
    coverages: List[coverage.KernelCoverage] = field(default_factory=list)

    def render(self) -> str:
        parts = [c.render() for c in self.coverages]
        parts.append(self.report.render())
        return "\n\n".join(parts)


def _merge(target: DiagnosticReport, source: DiagnosticReport,
           seen: set) -> None:
    for d in source:
        key = (d.code, str(d.site), d.message)
        if key in seen:
            continue
        seen.add(key)
        target.add(d)


def run_passes(session: LintSession) -> LintResult:
    """Drive all four afflint passes over one session."""
    merged = DiagnosticReport()
    seen: set = set()
    coverages: List[coverage.KernelCoverage] = []

    for plan in session.plans:
        plan_report, layouts = constraints.lint_plan(plan, session.machine)
        _merge(merged, plan_report, seen)
        cov_report, _frac = coverage.estimate_plan_coverage(
            plan, layouts, session.machine)
        _merge(merged, cov_report, seen)

    _merge(merged, constraints.lint_allocator(session.allocator), seen)

    events = session.allocator.events or []
    _merge(merged,
           lifetime.check_lifetime(events, session.expect_clean_exit),
           seen)

    for kernel in session.kernels:
        graph = getattr(kernel, "graph", None)
        name = getattr(kernel, "name", "")
        if graph is not None:
            _merge(merged, hazards.check_graph(graph, name), seen)
        builder = getattr(kernel, "builder", kernel)
        if builder is not None and hasattr(builder, "accesses"):
            if graph is None:
                from repro.nsc.compiler import _build_graph
                _merge(merged,
                       hazards.check_graph(_build_graph(builder),
                                           builder.name), seen)
            cov = coverage.estimate_kernel_coverage(builder, session.machine)
            coverages.append(cov)
            _merge(merged, cov.diagnostics(session.machine), seen)
    return LintResult(merged, coverages)


def lint_fixture_file(path, strict: bool = False,
                      config: SystemConfig = DEFAULT_CONFIG) -> LintResult:
    """Lint one fixture module (must define ``build(session)``)."""
    path = Path(path)
    module = _load_fixture_module(path, "lint_fixture")
    build = getattr(module, "build", None)
    if build is None:
        raise ImportError(f"fixture {path} defines no build(session)")
    session = LintSession(config, strict=strict)
    build(session)
    return run_passes(session)


def lint_workload_plans(scale: float = 0.12,
                        config: SystemConfig = DEFAULT_CONFIG,
                        ) -> Tuple[LintResult, Dict[str, DiagnosticReport]]:
    """Lint the layout plan of every shipped workload that declares one."""
    from repro.workloads import WORKLOADS

    session = LintSession(config)
    per_workload: Dict[str, DiagnosticReport] = {}
    for name in sorted(WORKLOADS):
        plan = WORKLOADS[name].layout_plan(scale)
        if plan is None:
            continue
        report, layouts = constraints.lint_plan(plan, session.machine)
        cov_report, _ = coverage.estimate_plan_coverage(
            plan, layouts, session.machine)
        report.extend(cov_report)
        per_workload[name] = report
        session.add_plan(plan)
    result = run_passes(session)
    return result, per_workload


def _load_fixture_module(path: Path, prefix: str):
    spec = importlib.util.spec_from_file_location(
        f"{prefix}_{path.stem}", path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load fixture {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tenant_fixture(path) -> Tuple[list, Machine]:
    """Load a tenant-set fixture: a module defining ``tenants()`` (a
    list of :class:`~repro.analysis.interference.Tenant`) and optionally
    ``config()`` (a :class:`SystemConfig` for the shared machine)."""
    path = Path(path)
    module = _load_fixture_module(path, "tenant_fixture")
    tenants_fn = getattr(module, "tenants", None)
    if tenants_fn is None:
        raise ImportError(f"tenant fixture {path} defines no tenants()")
    config_fn = getattr(module, "config", None)
    config = config_fn() if config_fn is not None else DEFAULT_CONFIG
    return list(tenants_fn()), Machine(config)


def _cli_self(args) -> int:
    from repro.analysis.format import render_report
    from repro.analysis.selfcheck import selfcheck_paths

    if args.paths:
        targets = [Path(p) for p in args.paths]
    else:
        import repro
        targets = [Path(repro.__file__).parent]
    report = selfcheck_paths(targets)
    print(render_report(report, args.format))
    if args.expect_findings:
        return 0 if report.has_findings else 1
    if report.has_errors or (args.strict and report.has_findings):
        return 1
    return 0


def _cli_plans(args) -> int:
    from repro.analysis import interference as itf
    from repro.analysis.format import render_report

    spec = args.plans
    if spec.endswith(".py"):
        if args.verify_traffic:
            print("--verify-traffic needs workload-name tenants (it runs "
                  "the named workloads); got a fixture file")
            return 2
        tenants, machine = load_tenant_fixture(spec)
    else:
        names = [s.strip() for s in spec.split(",") if s.strip()]
        from repro.workloads import WORKLOADS
        unknown = [n for n in names if n not in WORKLOADS]
        if not names or unknown:
            print(f"--plans expects shipped workload names or a .py "
                  f"fixture; unknown: {', '.join(unknown) or '(empty)'}")
            return 2
        tenants = itf.tenants_from_workloads(names, scale=args.scale)
        machine = Machine()

    result = itf.analyze_interference(tenants, machine)
    report = result.report
    rows = []
    if args.verify_traffic:
        vreport, rows = itf.validate_contention(
            tenants, scale=args.scale, seed=args.seed)
        report.extend(vreport)

    if args.format == "text":
        print(result.matrix.render())
        print()
        for row in rows:
            print(f"verify {row.tenant}: access TVD {row.access_tvd:.3f} "
                  f"(tol {itf.ACCESS_SHARE_TOLERANCE}), flit TVD "
                  f"{row.flit_tvd:.3f} (tol {itf.FLIT_SHARE_TOLERANCE})")
        if rows:
            print()
        print(report.render())
    else:
        print(render_report(report, args.format))

    if args.expect_findings:
        return 0 if report.has_findings else 1
    if report.has_errors or (args.strict and report.has_findings):
        return 1
    return 0


def _collect_fixture_paths(paths: List[str]) -> List[Path]:
    out: List[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            out.extend(sorted(f for f in path.glob("*.py")
                              if not f.name.startswith("_")))
        else:
            out.append(path)
    return out


def cli(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="afflint: static affinity/layout analysis.")
    parser.add_argument("paths", nargs="*",
                        help="fixture files or directories; with none "
                             "given, lints every shipped workload's "
                             "layout plan (with --self: source files or "
                             "trees to sanitize)")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero on warnings, not just errors")
    parser.add_argument("--self", dest="self_check", action="store_true",
                        help="run the determinism/guard self-sanitizer "
                             "(DET/GRD codes) over the given paths, or "
                             "over the installed repro package when no "
                             "paths are given")
    parser.add_argument("--plans", type=str, default=None,
                        help="cross-plan interference analysis (INT "
                             "codes) over a tenant set: comma-separated "
                             "shipped workload names, or a .py fixture "
                             "defining tenants() and optionally "
                             "config()")
    parser.add_argument("--verify-traffic", action="store_true",
                        help="with --plans over workload names: run the "
                             "workloads and hold the predicted "
                             "contention matrix to the measured-counter "
                             "tolerance contract (INT005 on divergence)")
    parser.add_argument("--format", choices=("text", "json", "github"),
                        default="text",
                        help="output encoding (default text); json is "
                             "the stable afflint-diagnostics/1 schema, "
                             "github emits workflow-command annotations")
    parser.add_argument("--scale", type=float, default=0.12,
                        help="workload scale for plan linting "
                             "(default 0.12)")
    parser.add_argument("--expect-findings", action="store_true",
                        help="invert the exit code: succeed only if "
                             "findings were reported (CI fixture check)")
    parser.add_argument("--fault-log", type=Path, default=None,
                        help="replay a chaos fault event log (JSON from "
                             "python -m repro chaos --save-log) into CHS "
                             "diagnostics; exits nonzero on unhandled "
                             "faults (CHS001)")
    parser.add_argument("--migration-plan", type=Path, default=None,
                        help="replay an autoplace migration plan (JSON "
                             "from python -m repro autoplace --save-plan) "
                             "into RLY diagnostics; exits nonzero on "
                             "unsafe migrations (RLY001/RLY004)")
    from repro.harness.cliutil import add_seed_argument, load_or_usage_error
    add_seed_argument(parser, help_suffix="accepted for CLI uniformity; "
                                          "layout linting is "
                                          "seed-independent")
    args = parser.parse_args(argv)
    from repro.analysis.format import render_report

    if args.self_check and args.plans is not None:
        print("--self and --plans are mutually exclusive")
        return 2

    if args.self_check:
        return _cli_self(args)

    if args.plans is not None:
        return _cli_plans(args)

    if args.verify_traffic:
        print("--verify-traffic requires --plans")
        return 2

    replayed: Optional[DiagnosticReport] = None
    if args.fault_log is not None:
        from repro.faults.log import FaultEventLog
        replayed = load_or_usage_error(parser, FaultEventLog.load,
                                       args.fault_log,
                                       "fault log").to_diagnostics()
    elif args.migration_plan is not None:
        from repro.relayout.plan import MigrationPlan
        replayed = load_or_usage_error(
            parser, MigrationPlan.load, args.migration_plan,
            "migration plan").to_diagnostics(DEFAULT_CONFIG.num_banks)
    if replayed is not None:
        print(render_report(replayed, args.format))
        if args.expect_findings:
            return 0 if replayed.has_findings else 1
        return 1 if replayed.has_errors else 0

    any_findings = False
    any_errors = False
    if args.paths:
        merged = DiagnosticReport()
        for path in _collect_fixture_paths(args.paths):
            result = lint_fixture_file(path)
            if args.format == "text":
                print(f"== {path.name} ==")
                print(result.render())
                print()
            else:
                merged.extend(result.report)
            any_findings |= result.report.has_findings
            any_errors |= result.report.has_errors
        if args.format != "text":
            print(render_report(merged, args.format))
    else:
        result, per_workload = lint_workload_plans(scale=args.scale)
        if args.format == "text":
            for name, report in per_workload.items():
                print(f"{name}: {report.summary()}")
            print()
            print(result.render())
        else:
            print(render_report(result.report, args.format))
        any_findings = result.report.has_findings
        any_errors = result.report.has_errors

    if args.expect_findings:
        return 0 if any_findings else 1
    if any_errors or (args.strict and any_findings):
        return 1
    return 0
