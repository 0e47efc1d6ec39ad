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

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

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
class FaultRecord:
    """One log line: who, what, and how it was handled."""

    task: str      # workload/figure the record belongs to ("" = global)
    kind: str      # FaultKind value string ("bank-fail", ...)
    target: str    # kind-specific target ("17", "9-10", "256", ...)
    action: str    # see module docstring table
    detail: str = ""
    count: float = 0.0  # kind-specific magnitude (bytes moved, cycles, ...)

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")

    def to_dict(self) -> Dict:
        return {"task": self.task, "kind": self.kind, "target": self.target,
                "action": self.action, "detail": self.detail,
                "count": self.count}

    @classmethod
    def from_dict(cls, d: Dict) -> "FaultRecord":
        return cls(task=str(d.get("task", "")), kind=str(d["kind"]),
                   target=str(d["target"]), action=str(d["action"]),
                   detail=str(d.get("detail", "")),
                   count=float(d.get("count", 0.0)))

    def render(self) -> str:
        where = f"[{self.task}] " if self.task else ""
        tail = f" ({self.detail})" if self.detail else ""
        return f"{where}{self.kind} {self.target}: {self.action}{tail}"


class FaultEventLog:
    """Append-only ordered record list with value equality."""

    def __init__(self, records: Optional[List[FaultRecord]] = None) -> None:
        self.records: List[FaultRecord] = list(records) if records else []

    def add(self, record: FaultRecord) -> None:
        self.records.append(record)

    def extend(self, other: "FaultEventLog") -> None:
        self.records.extend(other.records)

    def __len__(self) -> int:
        return len(self.records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultEventLog):
            return NotImplemented
        return self.records == other.records

    # ------------------------------------------------------------------
    def count(self, action: str) -> int:
        return sum(1 for r in self.records if r.action == action)

    @property
    def unhandled(self) -> List[FaultRecord]:
        return [r for r in self.records if r.action == "unhandled"]

    def handled_count(self) -> int:
        return sum(1 for r in self.records if r.action in HANDLED_ACTIONS)

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps([r.to_dict() for r in self.records], indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultEventLog":
        records = json.loads(text)
        if not isinstance(records, list) \
                or not all(isinstance(d, dict) for d in records):
            raise ValueError("not a fault event log: expected a JSON list "
                             "of record objects")
        return cls([FaultRecord.from_dict(d) for d in records])

    def save(self, path: Union[str, os.PathLike]) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "FaultEventLog":
        return cls.from_json(Path(path).read_text())

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
