"""Typed fault event log — every injected and handled fault, replayable.

The log is the contract between the injector and everything downstream:
the chaos CLI prints it, golden tests pin it, the property suite asserts
same-seed runs produce identical logs, and ``python -m repro lint
--fault-log`` replays it into CHS diagnostics.

Each :class:`FaultRecord` carries an *action* — what the degradation
machinery did about the fault:

===================  ===================================================
action               meaning
===================  ===================================================
``injected``         fault applied (or armed) as planned
``rehomed``          bank retired; IOT remap installed, footprint moved
``rerouted``         link removed; routing recomputed around it
``skipped``          fault could not apply (would disconnect the mesh,
                     bank already failed, no such pool) — benign
``alloc-degraded``   armed allocation fault fired; allocator degraded
``pool-fallback``    pool exhausted; allocation moved to another pool
``heap-fallback``    all pools exhausted; allocation fell back to heap
``retry``            offloaded stream retried (bounded backoff) after
                     touching a re-homed bank
``host-fallback``    offload abandoned; stream ran on the host cores
``crash``            worker crashed (injected)
``restart``          harness restarted a crashed worker
``not-triggered``    armed fault never fired during the run
``unhandled``        no degradation path fired — a chaos-suite failure
===================  ===================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List

from repro.serial import Serial, checked, one_of

if TYPE_CHECKING:
    from repro.analysis.diagnostics import DiagnosticReport

__all__ = ["FaultRecord", "FaultEventLog", "ACTIONS"]

ACTIONS = frozenset({
    "injected", "rehomed", "rerouted", "skipped", "alloc-degraded",
    "pool-fallback", "heap-fallback", "retry", "host-fallback",
    "crash", "restart", "not-triggered", "unhandled",
})

#: Actions that mean "a fault happened and something degraded gracefully".
HANDLED_ACTIONS = frozenset({
    "rehomed", "rerouted", "alloc-degraded", "pool-fallback",
    "heap-fallback", "retry", "host-fallback", "restart",
})


@dataclass(frozen=True)
class FaultRecord(Serial):
    """One log line: who, what, and how it was handled."""

    task: str      # workload/figure the record belongs to ("" = global)
    kind: str      # FaultKind value string ("bank-fail", ...)
    target: str    # kind-specific target ("17", "9-10", "256", ...)
    action: str = checked(one_of(ACTIONS))  # see module docstring table
    detail: str = ""
    count: float = 0.0  # kind-specific magnitude (bytes moved, cycles, ...)

    def render(self) -> str:
        where = f"[{self.task}] " if self.task else ""
        tail = f" ({self.detail})" if self.detail else ""
        return f"{where}{self.kind} {self.target}: {self.action}{tail}"


@dataclass
class FaultEventLog(Serial):
    """Append-only ordered record list with value equality.  Saved as a
    bare JSON list of records, keys in field order."""

    records: List[FaultRecord] = field(default_factory=list)

    _json_root = "records"
    _json_sorted = False

    def add(self, record: FaultRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    def count(self, action: str) -> int:
        return sum(1 for r in self.records if r.action == action)

    @property
    def unhandled(self) -> List[FaultRecord]:
        return [r for r in self.records if r.action == "unhandled"]

    def handled_count(self) -> int:
        return sum(1 for r in self.records if r.action in HANDLED_ACTIONS)

    # ------------------------------------------------------------------
    def render(self) -> str:
        if not self.records:
            return "(no fault events)"
        return "\n".join(r.render() for r in self.records)

    # ------------------------------------------------------------------
    def to_diagnostics(self) -> "DiagnosticReport":
        """Replay the log into afflint CHS diagnostics.

        ``unhandled`` records become CHS001 errors (the chaos-smoke CI
        gate), handled degradations become CHS002 notes, and armed-but-
        never-fired faults become CHS003 notes.
        """
        from repro.analysis.diagnostics import (Diagnostic, DiagnosticReport,
                                                Severity, Site)
        report = DiagnosticReport()
        for rec in self.records:
            site = Site(kind="fault", name=f"{rec.kind}:{rec.target}",
                        detail=rec.task)
            if rec.action == "unhandled":
                code, sev = "CHS001", Severity.ERROR
            elif rec.action in ("not-triggered", "skipped"):
                code, sev = "CHS003", Severity.NOTE
            else:
                code, sev = "CHS002", Severity.NOTE
            report.add(Diagnostic(code=code, severity=sev, site=site,
                                  message=f"{rec.action}: "
                                          f"{rec.detail or rec.render()}"))
        return report
