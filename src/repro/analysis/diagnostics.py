"""Typed diagnostics and the affinity error hierarchy (afflint core).

Every ``afflint`` pass reports findings as :class:`Diagnostic` values —
a stable machine-readable code, a severity, a :class:`Site` naming the
object the finding is anchored to, a human message, and a fix hint.
Codes are grouped by pass:

* ``AFF0xx`` — constraint linter (alignment / interleave / pool issues),
* ``LIF0xx`` — allocation lifetime checker,
* ``RACE0xx`` — stream-graph hazard detector,
* ``COV0xx`` — static affinity-coverage estimator,
* ``CHS0xx`` — chaos fault-log replay checker,
* ``INT0xx`` — cross-plan (multi-tenant) interference analyzer,
* ``DET0xx`` / ``GRD0xx`` — the self-sanitizer over this repository's
  own source (determinism and clean-path guard discipline).

The module also defines the :class:`AffinityError` exception hierarchy
used by the runtime's error paths.  Every class subclasses
:class:`ValueError` so pre-existing ``except ValueError`` callers keep
working, while the linter and new callers can discriminate precisely.

This module deliberately imports nothing from the rest of :mod:`repro`,
so any layer (``core``, ``vm``, ``nsc``, ``harness``) may depend on it
without cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List

__all__ = [
    "Severity",
    "Site",
    "Diagnostic",
    "DiagnosticReport",
    "CODES",
    "AffinityError",
    "LayoutError",
    "AllocationError",
    "AllocationSizeError",
    "AffinityCountError",
    "OversizeError",
    "PoolExhaustedError",
    "DoubleFreeError",
    "UnknownAddressError",
    "LintFailure",
    "TopologyError",
    "NoHealthyBankError",
    "WorkerCrashError",
]


class Severity(enum.IntEnum):
    """Ordered severity; comparisons follow the obvious order."""

    NOTE = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Site:
    """Where a diagnostic is anchored.

    Attributes:
        kind: object class — ``"array"``, ``"alloc"``, ``"stream"``,
            ``"kernel"``, ``"pool"``, ``"plan"``, ``"tenant"``,
            ``"bank"``, or ``"file"``.
        name: the object's name (array/stream/kernel name, pool size,
            or a formatted address for anonymous allocations).
        detail: optional extra location context (e.g. owning kernel).
        file: source path, for diagnostics anchored to code (the
            self-sanitizer); empty for runtime-object sites.
        line: 1-based source line when ``file`` is set, else 0.
    """

    kind: str
    name: str
    detail: str = ""
    file: str = ""
    line: int = 0

    def __str__(self) -> str:
        if self.file:
            base = f"{self.file}:{self.line}"
            return f"{base} ({self.detail})" if self.detail else base
        base = f"{self.kind} {self.name!r}"
        return f"{base} ({self.detail})" if self.detail else base

    def to_dict(self) -> Dict[str, object]:
        """Stable machine-readable form (one key per field, always)."""
        return {"kind": self.kind, "name": self.name, "detail": self.detail,
                "file": self.file, "line": self.line}


#: Registry of every diagnostic code afflint can emit.
CODES: Dict[str, str] = {
    # Constraint linter -------------------------------------------------
    "AFF001": "unsatisfiable alignment constraint (Eq. 2/3 has no layout)",
    "AFF002": "broken inter-array alignment chain (unknown, forward, or "
              "fallback target)",
    "AFF003": "partition vs. alignment conflict in one spec",
    "AFF004": "required interleaving has no backing InterleavePool",
    "AFF005": "forced element padding wastes space above threshold",
    "AFF006": "predicted demand exhausts an interleave pool reservation",
    # Lifetime checker --------------------------------------------------
    "LIF001": "double free of an affinity allocation",
    "LIF002": "allocation leaked at exit",
    "LIF003": "use after free of an affinity allocation",
    "LIF004": "free of an address that was never allocated",
    # Stream-graph hazards ----------------------------------------------
    "RACE001": "remote-atomic and plain-store streams overlap on one array",
    "RACE002": "read-after-write pair with no dependence edge",
    "RACE003": "write-after-write pair with no dependence edge",
    # Coverage estimator ------------------------------------------------
    "COV001": "predicted bank-local fraction below threshold",
    "COV002": "predicted mean NoC hops per access above threshold",
    # Chaos fault-log replay --------------------------------------------
    "CHS001": "fault event left unhandled (no degradation path fired)",
    "CHS002": "fault handled by a degraded-mode fallback",
    "CHS003": "fault plan event never triggered during the run",
    # Online re-layout plan replay ---------------------------------------
    "RLY001": "migration targets a failed or out-of-range bank",
    "RLY002": "migration applied by the online re-layout engine",
    "RLY003": "migration decision skipped (ineligible or unsafe)",
    "RLY004": "epoch exceeded the plan's max-per-epoch migration bound",
    # Cross-plan interference analyzer -----------------------------------
    "INT001": "conflicting interleave claims exceed the IOT's bank-range "
              "entries",
    "INT002": "aggregate capacity/quota overflow on an interleave pool",
    "INT003": "predicted hot-bank contention across tenant plans",
    "INT004": "tenant placement dilutes another tenant's affinity",
    "INT005": "contention prediction diverges from measured traffic "
              "beyond tolerance",
    # Self-sanitizer: determinism ----------------------------------------
    "DET001": "unseeded randomness or wallclock reachable from "
              "simulation paths",
    "DET002": "unordered set/filesystem iteration feeding results or "
              "merged logs",
    # Self-sanitizer: guard discipline -----------------------------------
    "GRD001": "feature-state attribute access not dominated by an "
              "is-None clean-path guard",
    "GRD002": "cache-key parameter missing from the figure-cache digest",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding from an afflint pass."""

    code: str
    severity: Severity
    site: Site
    message: str
    fix_hint: str = ""

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    def render(self) -> str:
        line = f"{self.code} {self.severity}: {self.site}: {self.message}"
        if self.fix_hint:
            line += f"\n    fix: {self.fix_hint}"
        return line

    def to_dict(self) -> Dict[str, object]:
        """Stable machine-readable form — one object per diagnostic.

        The key set is frozen (schema ``afflint-diagnostics/1``); new
        fields may be added but existing keys never change meaning.
        """
        return {"code": self.code, "severity": str(self.severity),
                "site": self.site.to_dict(), "message": self.message,
                "fix_hint": self.fix_hint}

    def __str__(self) -> str:
        return self.render()


@dataclass
class DiagnosticReport:
    """An ordered collection of diagnostics with summary helpers."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def codes(self) -> List[str]:
        return sorted({d.code for d in self.diagnostics})

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity is severity)

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    @property
    def has_findings(self) -> bool:
        """True if anything at WARNING or above was reported."""
        return any(d.severity >= Severity.WARNING for d in self.diagnostics)

    def summary(self) -> str:
        return (f"{self.count(Severity.ERROR)} error(s), "
                f"{self.count(Severity.WARNING)} warning(s), "
                f"{self.count(Severity.NOTE)} note(s)")

    def render(self) -> str:
        if not self.diagnostics:
            return "no findings"
        body = "\n".join(d.render() for d in self.diagnostics)
        return f"{body}\n{self.summary()}"


# ----------------------------------------------------------------------
# Exception hierarchy (satellite: typed error paths)
# ----------------------------------------------------------------------
class AffinityError(ValueError):
    """Base of every affinity-runtime error.

    Subclasses :class:`ValueError` for backwards compatibility with the
    runtime's original bare-``ValueError`` error paths.
    """


class LayoutError(AffinityError):
    """An affine spec is malformed or its constraints conflict."""


class AllocationError(AffinityError):
    """An allocation request is invalid."""


class AllocationSizeError(AllocationError):
    """Non-positive (or otherwise nonsensical) allocation size."""


class AffinityCountError(AllocationError):
    """Too many affinity addresses for one irregular allocation."""


class OversizeError(AllocationError):
    """Irregular allocation exceeds the largest valid interleaving."""


class PoolExhaustedError(AffinityError, MemoryError):
    """An interleave pool ran out of its virtual reservation.

    Also a :class:`MemoryError` so callers treating exhaustion as OOM
    keep working.
    """


class DoubleFreeError(AffinityError):
    """``free_aff`` was called twice on the same live allocation."""


class UnknownAddressError(AffinityError):
    """An address handed to ``free_aff``/``realloc_aff`` was never
    allocated (or is not allocatable)."""


class LintFailure(AffinityError):
    """A pre-flight lint stage found error-severity diagnostics."""

    def __init__(self, report: "DiagnosticReport"):
        self.report = report
        super().__init__(f"afflint pre-flight failed: {report.summary()}")


class TopologyError(AffinityError):
    """A topology change would leave the mesh unroutable (e.g. removing
    a link that disconnects a tile)."""


class NoHealthyBankError(AllocationError):
    """Every candidate bank for a placement decision is failed/masked."""


class WorkerCrashError(RuntimeError):
    """An injected runner-worker crash (chaos fault injection).

    Deliberately *not* an :class:`AffinityError`: it models infrastructure
    death, not an allocation problem, and must cross process boundaries
    (it is raised inside pool workers and re-raised in the parent), so it
    keeps a single-string payload to stay picklable.
    """

    def __init__(self, task: str = ""):
        self.task = task
        super().__init__(f"injected worker crash while running {task!r}")
