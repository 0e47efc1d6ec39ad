"""The afflint self-sanitizer: AST passes over this repository's own
source (``DET0xx`` / ``GRD0xx``), run as ``repro lint --self``.

PRs 1-6 built load-bearing *dynamic* invariants — byte-identical results
across ``--jobs``, clean-path byte-identity behind ``is None`` feature
guards, cache keys that extend with every new ``run_figures`` kwarg —
that 855 tests exercise but nothing enforces at the source level, so
every new subsystem re-risks the latent-bug classes PR 4 fixed.  These
passes make the disciplines checkable:

* DET001 — unseeded randomness or wallclock readable from simulation
  code: the stdlib ``random`` module, numpy's legacy global RNG
  (``np.random.rand`` & co.), argument-less ``default_rng()``, and
  wall-clock reads (``time.time``, ``datetime.now``, ...).  Monotonic
  timers (``perf_counter``, ``monotonic``, ``process_time``) are fine —
  wall timing is excluded from result metrics by design.
* DET002 — iteration over unordered sources (set literals/calls,
  ``iterdir``/``glob``/``os.listdir``) whose order can leak into
  results or merged logs.  Order-insensitive reducers (``sum``,
  ``min``, ``max``, ``any``, ``all``, ``len``) and ``sorted(...)``
  consumption are exempt.
* GRD001 — use of a feature-state attribute (``machine.faults``,
  ``machine.relayout``, ``machine.tracer``) not dominated by an
  ``is None`` clean-path guard.  The recognized guard idioms are
  exactly the shipped ones: alias-then-``if st is not None``, direct
  ``if x.faults is not None``, ternaries, ``assert ... is not None``,
  ``and``-chains, and early ``return`` on ``is None``.
* GRD002 — a parameter of a function that computes a cache key does not
  flow into the key (the stale-cache class of bug: adding a
  ``run_figures`` kwarg without extending the digest).  Parameters that
  legitimately do not affect results (``use_cache``, ``cache_dir``,
  ``crash``, ...) are allowlisted.

Findings anchor to real ``file:line`` sites.  A finding can be
suppressed in place with ``# afflint: allow(CODE)`` on the same line —
the escape hatch for deliberate exceptions (e.g. the wall-clock
timestamp stamped into bench *metadata*).
"""

from __future__ import annotations

import ast
import os
import re
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Severity,
    Site,
)
from repro.scenario import SESSION_KINDS

__all__ = ["selfcheck_source", "selfcheck_paths", "FEATURE_ATTRS",
           "CACHE_PARAM_ALLOWLIST"]

#: Machine attributes that are None on the clean path: the slots of the
#: scenario session kinds (see repro.scenario).
FEATURE_ATTRS = frozenset(kind.slot for kind in SESSION_KINDS)

#: Parameters that deliberately never enter a cache key: cache plumbing
#: itself, UI callbacks, and worker-crash injection (which only kills
#: workers mid-run and must never change a *result*, so keying on it
#: would split the cache for identical outputs).
CACHE_PARAM_ALLOWLIST = frozenset({
    "self", "cls", "use_cache", "cache_dir", "cache", "crash",
    "progress", "notify", "jobs", "builder",
})

_WALLCLOCK = frozenset({
    "time.time", "time.time_ns", "time.ctime", "time.asctime",
    "time.localtime", "time.gmtime", "time.strftime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

_NUMPY_LEGACY_RNG = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "shuffle", "permutation", "choice", "seed",
    "standard_normal", "uniform", "normal", "bytes",
})

_FS_LISTING_METHODS = frozenset({"iterdir", "glob", "rglob"})
_FS_LISTING_FUNCS = frozenset({"os.listdir", "os.scandir"})

#: Callables whose result does not depend on argument order.
_ORDER_INSENSITIVE = frozenset({
    "sorted", "sum", "min", "max", "any", "all", "len", "set",
    "frozenset", "dict",
})

#: Callables that materialize their argument's order into a sequence.
_ORDER_MATERIALIZING = frozenset({"list", "tuple", "enumerate", "reversed"})

_PRAGMA_RE = re.compile(r"#\s*afflint:\s*allow\(([A-Z0-9,\s]+)\)")


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` -> ``"a.b.c"`` for pure Name/Attribute chains."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


class _ModuleContext:
    """Shared per-file state: source lines, pragmas, import aliases."""

    def __init__(self, source: str, filename: str, tree: ast.Module):
        self.filename = filename
        self.lines = source.splitlines()
        self.imports: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] \
                        = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    self.imports[alias.asname or alias.name] \
                        = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted call target with the leading alias import-resolved."""
        dotted = _dotted(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        full = self.imports.get(head, head)
        return f"{full}.{rest}" if rest else full

    def allowed(self, code: str, lineno: int) -> bool:
        if not (1 <= lineno <= len(self.lines)):
            return False
        m = _PRAGMA_RE.search(self.lines[lineno - 1])
        if not m:
            return False
        return code in {c.strip() for c in m.group(1).split(",")}


def _add(report: DiagnosticReport, ctx: _ModuleContext, code: str,
         severity: Severity, node: ast.AST, message: str, fix: str,
         detail: str = "") -> None:
    lineno = getattr(node, "lineno", 0)
    if ctx.allowed(code, lineno):
        return
    report.add(Diagnostic(
        code, severity,
        Site("file", ctx.filename, detail=detail,
             file=ctx.filename, line=lineno),
        message, fix_hint=fix))


# ----------------------------------------------------------------------
# DET001 — unseeded randomness / wallclock
# ----------------------------------------------------------------------
def _check_det001(tree: ast.Module, ctx: _ModuleContext,
                  report: DiagnosticReport) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    _add(report, ctx, "DET001", Severity.ERROR, node,
                         "stdlib random imported; its module-level RNG is "
                         "process-global and unseeded",
                         "use a seeded numpy Generator "
                         "(np.random.default_rng(seed)) threaded from the "
                         "run's seed")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                _add(report, ctx, "DET001", Severity.ERROR, node,
                     "stdlib random imported; its module-level RNG is "
                     "process-global and unseeded",
                     "use a seeded numpy Generator threaded from the "
                     "run's seed")
        elif isinstance(node, ast.Call):
            target = ctx.resolve(node.func)
            if target is None:
                continue
            if target in _WALLCLOCK:
                _add(report, ctx, "DET001", Severity.ERROR, node,
                     f"wall-clock read {target}() can reach results or "
                     "logs; repeated runs would differ",
                     "derive timestamps from the run seed or virtual "
                     "time, or keep wall time out of result artifacts "
                     "(monotonic timers are fine for wall_s)")
            elif target.startswith("random."):
                _add(report, ctx, "DET001", Severity.ERROR, node,
                     f"{target}() draws from the process-global stdlib "
                     "RNG",
                     "use a seeded numpy Generator threaded from the "
                     "run's seed")
            elif (target.startswith("numpy.random.")
                    and target.rsplit(".", 1)[1] in _NUMPY_LEGACY_RNG):
                _add(report, ctx, "DET001", Severity.ERROR, node,
                     f"{target}() uses numpy's legacy global RNG state",
                     "use a seeded Generator: "
                     "np.random.default_rng(seed)")
            elif (target.rsplit(".", 1)[-1] == "default_rng"
                    and not node.args and not node.keywords):
                _add(report, ctx, "DET001", Severity.ERROR, node,
                     "default_rng() without a seed draws OS entropy",
                     "pass the run's seed: default_rng(seed)")


# ----------------------------------------------------------------------
# DET002 — unordered iteration
# ----------------------------------------------------------------------
def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


def _scope_nodes(scope: ast.AST):
    """Every node of ``scope``'s body without descending into nested
    scopes (functions, lambdas, classes)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _set_variables(scope: ast.AST) -> Set[str]:
    """Names that are only ever bound to set values within ``scope``."""
    is_set: Dict[str, bool] = {}

    def note(name: str, setness: bool) -> None:
        is_set[name] = is_set.get(name, True) and setness

    for node in _scope_nodes(scope):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    note(target.id, _is_set_expr(node.value))
                else:  # tuple targets etc.: unknown value shapes
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name):
                            note(n.id, False)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                note(node.target.id, _is_set_expr(node.value))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for n in ast.walk(node.target):
                if isinstance(n, ast.Name):
                    note(n.id, False)
        elif isinstance(node, ast.comprehension):
            for n in ast.walk(node.target):
                if isinstance(n, ast.Name):
                    note(n.id, False)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    for n in ast.walk(item.optional_vars):
                        if isinstance(n, ast.Name):
                            note(n.id, False)
        # AugAssign (s |= other) preserves set-ness: not an invalidation.
    return {name for name, setness in is_set.items() if setness}


def _unordered_source(node: ast.AST, ctx: _ModuleContext,
                      set_vars: Set[str]) -> Optional[str]:
    """Why ``node``'s iteration order is unstable, or None."""
    if _is_set_expr(node):
        return "set iteration order is hash-dependent"
    if isinstance(node, ast.Name) and node.id in set_vars:
        return (f"{node.id!r} is a set; its iteration order is "
                "hash-dependent")
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in _FS_LISTING_METHODS:
            return (f".{node.func.attr}() yields filesystem order, "
                    "which varies across machines")
        target = ctx.resolve(node.func)
        if target in _FS_LISTING_FUNCS:
            return (f"{target}() yields filesystem order, which varies "
                    "across machines")
    return None


def _check_det002(tree: ast.Module, ctx: _ModuleContext,
                  report: DiagnosticReport) -> None:
    # Iterations that are the direct argument of an order-insensitive
    # reducer are fine; remember those call sites to exempt them.
    exempt: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _ORDER_INSENSITIVE:
            for arg in node.args:
                exempt.add(id(arg))
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                    for gen in arg.generators:
                        exempt.add(id(gen.iter))

    scopes = [tree] + [n for n in ast.walk(tree)
                       if isinstance(n, (ast.FunctionDef,
                                         ast.AsyncFunctionDef,
                                         ast.ClassDef))]
    for scope in scopes:
        set_vars = _set_variables(scope)

        def flag(iter_node: ast.AST, where: ast.AST, what: str) -> None:
            reason = _unordered_source(iter_node, ctx, set_vars)
            if reason is None or id(iter_node) in exempt:
                return
            _add(report, ctx, "DET002", Severity.WARNING, where,
                 f"{what} over an unordered source: {reason}; the order "
                 "can leak into results or merged logs",
                 "wrap the source in sorted(...) with a total key")

        for node in _scope_nodes(scope):
            if isinstance(node, ast.For):
                flag(node.iter, node, "for-loop")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp, ast.SetComp)):
                if isinstance(node, ast.SetComp) or id(node) in exempt:
                    continue  # building a set loses order anyway
                for gen in node.generators:
                    flag(gen.iter, node, "comprehension")
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) \
                        and func.id in _ORDER_MATERIALIZING and node.args:
                    flag(node.args[0], node, f"{func.id}(...)")
                elif isinstance(func, ast.Attribute) \
                        and func.attr in ("extend", "join") and node.args:
                    flag(node.args[0], node, f".{func.attr}(...)")


# ----------------------------------------------------------------------
# GRD001 — clean-path guard discipline
# ----------------------------------------------------------------------
_GuardSet = FrozenSet[str]


def _feature_expr_key(node: ast.AST, taints: Dict[str, str],
                      ) -> Optional[str]:
    """Guard-state key if ``node`` evaluates to a feature-state value."""
    if isinstance(node, ast.Attribute) and node.attr in FEATURE_ATTRS:
        dotted = _dotted(node)
        if dotted is not None and "." in dotted:
            return dotted
    if isinstance(node, ast.Name) and node.id in taints:
        return node.id
    return None


def _test_guards(test: ast.AST, taints: Dict[str, str],
                 positive: bool) -> Set[str]:
    """Keys known non-None when ``test`` is True (positive) / False."""
    out: Set[str] = set()
    if isinstance(test, ast.Compare) and len(test.ops) == 1 \
            and isinstance(test.comparators[0], ast.Constant) \
            and test.comparators[0].value is None:
        key = _feature_expr_key(test.left, taints)
        if key is not None:
            if positive and isinstance(test.ops[0], ast.IsNot):
                out.add(key)
            elif not positive and isinstance(test.ops[0], ast.Is):
                out.add(key)
    elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        out |= _test_guards(test.operand, taints, not positive)
    elif isinstance(test, ast.BoolOp):
        if positive and isinstance(test.op, ast.And):
            for v in test.values:
                out |= _test_guards(v, taints, True)
        elif not positive and isinstance(test.op, ast.Or):
            for v in test.values:
                out |= _test_guards(v, taints, False)
    elif positive:
        key = _feature_expr_key(test, taints)
        if key is not None:
            out.add(key)  # truthiness: `if machine.tracer:` / `if st:`
    return out


class _GuardChecker:
    """Flow-sensitive (per straight-line block + branches) GRD001 pass."""

    def __init__(self, ctx: _ModuleContext, report: DiagnosticReport):
        self.ctx = ctx
        self.report = report

    # -- expression side -------------------------------------------------
    def _check_expr(self, node: Optional[ast.AST], guarded: _GuardSet,
                    taints: Dict[str, str]) -> None:
        if node is None:
            return
        if isinstance(node, ast.BoolOp):
            acc = set(guarded)
            for value in node.values:
                self._check_expr(value, frozenset(acc), taints)
                if isinstance(node.op, ast.And):
                    acc |= _test_guards(value, taints, True)
                else:
                    acc |= _test_guards(value, taints, False)
            return
        if isinstance(node, ast.IfExp):
            self._check_expr(node.test, guarded, taints)
            pos = _test_guards(node.test, taints, True)
            neg = _test_guards(node.test, taints, False)
            self._check_expr(node.body, guarded | pos, taints)
            self._check_expr(node.orelse, guarded | neg, taints)
            return
        if isinstance(node, ast.Attribute):
            key = _feature_expr_key(node.value, taints)
            if key is not None and key not in guarded:
                pretty = _dotted(node.value) or key
                self._flag(node, pretty)
            self._check_expr(node.value, guarded, taints)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return  # separate scope; functions are checked independently
        for child in ast.iter_child_nodes(node):
            self._check_expr(child, guarded, taints)

    def _flag(self, node: ast.AST, expr: str) -> None:
        _add(self.report, self.ctx, "GRD001", Severity.ERROR, node,
             f"use of feature state {expr!r} is not dominated by an "
             "is-None guard; on the clean path this attribute is None "
             "and the access raises",
             "alias and guard: `st = ...; if st is not None: st.use()` "
             "(see machine.py's clean-path contract)")

    # -- statement side --------------------------------------------------
    def check_body(self, stmts: Sequence[ast.stmt]) -> None:
        self._block(stmts, frozenset(), {})

    def _block(self, stmts: Sequence[ast.stmt], guarded: _GuardSet,
               taints: Dict[str, str]) -> Tuple[_GuardSet, bool]:
        for stmt in stmts:
            guarded, terminated = self._stmt(stmt, guarded, taints)
            if terminated:
                return guarded, True
        return guarded, False

    def _invalidate(self, name: str, guarded: _GuardSet,
                    taints: Dict[str, str]) -> _GuardSet:
        taints.pop(name, None)
        return guarded - {name}

    def _stmt(self, stmt: ast.stmt, guarded: _GuardSet,
              taints: Dict[str, str]) -> Tuple[_GuardSet, bool]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            checker = _GuardChecker(self.ctx, self.report)
            checker.check_body(stmt.body)
            return guarded, False
        if isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                guarded_cls, _ = self._stmt(sub, frozenset(), {})
            return guarded, False
        if isinstance(stmt, ast.Assign):
            self._check_expr(stmt.value, guarded, taints)
            for target in stmt.targets:
                guarded = self._assign(target, stmt.value, guarded, taints)
            return guarded, False
        if isinstance(stmt, ast.AnnAssign):
            self._check_expr(stmt.value, guarded, taints)
            if stmt.value is not None:
                guarded = self._assign(stmt.target, stmt.value, guarded,
                                       taints)
            return guarded, False
        if isinstance(stmt, ast.AugAssign):
            self._check_expr(stmt.value, guarded, taints)
            if isinstance(stmt.target, ast.Name):
                guarded = self._invalidate(stmt.target.id, guarded, taints)
            return guarded, False
        if isinstance(stmt, ast.Assert):
            self._check_expr(stmt.test, guarded, taints)
            return guarded | _test_guards(stmt.test, taints, True), False
        if isinstance(stmt, ast.If):
            self._check_expr(stmt.test, guarded, taints)
            pos = _test_guards(stmt.test, taints, True)
            neg = _test_guards(stmt.test, taints, False)
            body_taints = dict(taints)
            body_out, body_term = self._block(stmt.body, guarded | pos,
                                              body_taints)
            else_taints = dict(taints)
            else_out, else_term = self._block(stmt.orelse, guarded | neg,
                                              else_taints)
            taints.update(body_taints)
            taints.update(else_taints)
            if body_term and else_term:
                return guarded, True
            if body_term:
                return else_out, False
            if else_term:
                return body_out, False
            return body_out & else_out, False
        if isinstance(stmt, (ast.While,)):
            self._check_expr(stmt.test, guarded, taints)
            pos = _test_guards(stmt.test, taints, True)
            self._block(stmt.body, guarded | pos, dict(taints))
            self._block(stmt.orelse, guarded, dict(taints))
            return guarded, False
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._check_expr(stmt.iter, guarded, taints)
            if isinstance(stmt.target, ast.Name):
                guarded = self._invalidate(stmt.target.id, guarded, taints)
            self._block(stmt.body, guarded, dict(taints))
            self._block(stmt.orelse, guarded, dict(taints))
            return guarded, False
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._check_expr(item.context_expr, guarded, taints)
            return self._block(stmt.body, guarded, taints)
        if isinstance(stmt, ast.Try):
            self._block(stmt.body, guarded, dict(taints))
            for handler in stmt.handlers:
                self._block(handler.body, guarded, dict(taints))
            self._block(stmt.orelse, guarded, dict(taints))
            out, term = self._block(stmt.finalbody, guarded, taints)
            return out, term
        if isinstance(stmt, ast.Return):
            self._check_expr(stmt.value, guarded, taints)
            return guarded, True
        if isinstance(stmt, ast.Raise):
            self._check_expr(stmt.exc, guarded, taints)
            return guarded, True
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return guarded, True
        if isinstance(stmt, (ast.Expr, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                self._check_expr(child, guarded, taints)
            return guarded, False
        for child in ast.iter_child_nodes(stmt):
            self._check_expr(child, guarded, taints)
        return guarded, False

    def _assign(self, target: ast.AST, value: ast.AST, guarded: _GuardSet,
                taints: Dict[str, str]) -> _GuardSet:
        if not isinstance(target, ast.Name):
            if isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    guarded = self._assign(elt, value, guarded, taints)
            return guarded
        name = target.id
        guarded = self._invalidate(name, guarded, taints)
        key = _feature_expr_key(value, taints)
        if key is not None:
            # Alias of feature state (directly or via another alias):
            # tainted until guarded.  If the source was already guarded,
            # the alias inherits that knowledge.
            taints[name] = key if "." in key else taints.get(key, key)
            if key in guarded or (isinstance(value, ast.Name)
                                  and value.id in guarded):
                guarded = guarded | {name}
        return guarded


def _check_grd001(tree: ast.Module, ctx: _ModuleContext,
                  report: DiagnosticReport) -> None:
    _GuardChecker(ctx, report).check_body(tree.body)


# ----------------------------------------------------------------------
# GRD002 — cache-key digest completeness
# ----------------------------------------------------------------------
def _check_grd002(tree: ast.Module, ctx: _ModuleContext,
                  report: DiagnosticReport) -> None:
    # The module *defining* the key function is cache plumbing, not a
    # consumer; its helpers forward **params wholesale.
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == "cache_key":
            return

    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls = [node for node in ast.walk(fn)
                 if isinstance(node, ast.Call)
                 and _dotted(node.func) is not None
                 and _dotted(node.func).rsplit(".", 1)[-1] == "cache_key"]
        if not calls:
            continue

        covered: Set[str] = set()
        splat_dicts: Set[str] = set()
        for call in calls:
            for arg in call.args:
                covered |= {n.id for n in ast.walk(arg)
                            if isinstance(n, ast.Name)}
            for kw in call.keywords:
                if kw.arg is None and isinstance(kw.value, ast.Name):
                    splat_dicts.add(kw.value.id)
                else:
                    covered |= {n.id for n in ast.walk(kw.value)
                                if isinstance(n, ast.Name)}
        # Anything assigned into a splatted dict feeds the key too.
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    feeds = (
                        isinstance(target, ast.Name)
                        and target.id in splat_dicts
                    ) or (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in splat_dicts
                    )
                    if feeds:
                        covered |= {n.id for n in ast.walk(node.value)
                                    if isinstance(n, ast.Name)}
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "update" \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id in splat_dicts:
                for n in ast.walk(node):
                    if isinstance(n, ast.Name):
                        covered.add(n.id)

        args = fn.args
        params = [a.arg for a in
                  (*args.posonlyargs, *args.args, *args.kwonlyargs)]
        for param in params:
            if param in covered or param in CACHE_PARAM_ALLOWLIST:
                continue
            _add(report, ctx, "GRD002", Severity.ERROR, fn,
                 f"parameter {param!r} of {fn.name}() never flows into "
                 "its cache key; two calls differing only in this "
                 "parameter would collide on one cache entry",
                 "fold the parameter (or a digest of it) into the "
                 "key-field dict, or allowlist it if it provably cannot "
                 "change results", detail=fn.name)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def selfcheck_source(source: str, filename: str) -> DiagnosticReport:
    """Run every DET/GRD pass over one module's source text."""
    report = DiagnosticReport()
    tree = ast.parse(source, filename=filename)
    ctx = _ModuleContext(source, filename, tree)
    _check_det001(tree, ctx, report)
    _check_det002(tree, ctx, report)
    _check_grd001(tree, ctx, report)
    _check_grd002(tree, ctx, report)
    return report


def selfcheck_paths(paths: Sequence[os.PathLike],
                    base: Optional[Path] = None) -> DiagnosticReport:
    """Sanitize every ``.py`` file under ``paths`` (files or trees).

    Files are visited in sorted path order so reports are stable, and
    sites are rendered relative to ``base`` (default: the current
    directory) so output does not depend on where the tree is mounted.
    """
    files: List[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    report = DiagnosticReport()
    root = base if base is not None else Path.cwd()
    for path in files:
        try:
            rel = os.path.relpath(path, root)
        except ValueError:  # different drive (Windows)
            rel = str(path)
        report.extend(selfcheck_source(path.read_text(encoding="utf-8"),
                                       rel.replace(os.sep, "/")))
    return report
