"""Migration plans: what the online re-layout engine decided and did.

A :class:`MigrationPlan` is the relayout analogue of the chaos layer's
``FaultPlan``+``FaultEventLog`` pair: an ordered, value-comparable,
JSON-round-trippable record of every migration the policy emitted, both
applied and skipped.  Plans are the determinism contract's currency —
the property suite asserts that the same seed and telemetry produce the
same plan, byte for byte — and afflint replays them offline
(``python -m repro lint --migration-plan plan.json``).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace
from pathlib import Path
import os
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:
    from repro.analysis.diagnostics import DiagnosticReport

__all__ = ["MigrationKind", "Migration", "MigrationPlan"]


class MigrationKind(enum.Enum):
    """What kind of re-homing a migration performs."""

    ROTATE = "rotate"    # rotate an array's bank assignment (IOT override)
    SWAP = "swap"        # swap a hot bank with a cold one (remap + footprint)
    REHOME = "rehome"    # re-place an irregular structure near its affinity


@dataclass(frozen=True)
class Migration:
    """One migration decision, with its outcome.

    ``applied=False`` records a decision the engine could not carry out
    (ineligible layout, unhealthy target banks, budget exhausted); those
    survive into the plan so afflint can audit *why* nothing moved.
    """

    kind: MigrationKind
    target: str                       # array name/vaddr, or "a<->b" for swaps
    epoch: str                        # epoch label the decision fired at
    task: str = ""                    # owning run (autoplace scenario name)
    src_banks: Tuple[int, ...] = ()
    dst_banks: Tuple[int, ...] = ()
    moved_bytes: float = 0.0
    applied: bool = True
    detail: str = ""

    def describe(self) -> str:
        state = "applied" if self.applied else "skipped"
        extra = f" ({self.detail})" if self.detail else ""
        return (f"{self.kind.value} {self.target} @ {self.epoch} "
                f"[{state}, {self.moved_bytes:,.0f} B]{extra}")

    def to_dict(self) -> Dict:
        return {"kind": self.kind.value, "target": self.target,
                "epoch": self.epoch, "task": self.task,
                "src_banks": list(self.src_banks),
                "dst_banks": list(self.dst_banks),
                "moved_bytes": self.moved_bytes,
                "applied": self.applied, "detail": self.detail}

    @classmethod
    def from_dict(cls, d: Dict) -> "Migration":
        return cls(kind=MigrationKind(d["kind"]), target=d["target"],
                   epoch=d["epoch"], task=d.get("task", ""),
                   src_banks=tuple(int(b) for b in d.get("src_banks", ())),
                   dst_banks=tuple(int(b) for b in d.get("dst_banks", ())),
                   moved_bytes=float(d.get("moved_bytes", 0.0)),
                   applied=bool(d.get("applied", True)),
                   detail=d.get("detail", ""))


@dataclass(frozen=True)
class MigrationPlan:
    """Ordered record of one run's migrations plus policy metadata."""

    migrations: Tuple[Migration, ...] = ()
    seed: int = 0
    max_per_epoch: int = 0

    @classmethod
    def empty(cls, seed: int = 0, max_per_epoch: int = 0) -> "MigrationPlan":
        return cls(migrations=(), seed=seed, max_per_epoch=max_per_epoch)

    @property
    def is_empty(self) -> bool:
        return not self.migrations

    def applied(self) -> Tuple[Migration, ...]:
        return tuple(m for m in self.migrations if m.applied)

    def by_kind(self, kind: MigrationKind) -> Tuple[Migration, ...]:
        return tuple(m for m in self.migrations if m.kind is kind)

    def applied_count(self) -> int:
        return len(self.applied())

    def moved_bytes(self) -> float:
        return float(sum(m.moved_bytes for m in self.migrations if m.applied))

    def retagged(self, task: str) -> "MigrationPlan":
        """A copy with every migration's ``task`` set (scenario merging)."""
        return replace(self, migrations=tuple(
            replace(m, task=task) for m in self.migrations))

    def merged_with(self, other: "MigrationPlan") -> "MigrationPlan":
        return replace(self, migrations=self.migrations + other.migrations)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {"migrations": [m.to_dict() for m in self.migrations],
                "seed": self.seed, "max_per_epoch": self.max_per_epoch}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, blob: str) -> "MigrationPlan":
        d = json.loads(blob)
        if not isinstance(d, dict) \
                or not set(d) <= {"migrations", "seed", "max_per_epoch"}:
            raise ValueError("not a migration plan: expected a JSON object "
                             "with keys max_per_epoch, migrations, seed")
        return cls(migrations=tuple(Migration.from_dict(m)
                                    for m in d.get("migrations", ())),
                   seed=int(d.get("seed", 0)),
                   max_per_epoch=int(d.get("max_per_epoch", 0)))

    def save(self, path: Union[str, os.PathLike]) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "MigrationPlan":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    # ------------------------------------------------------------------
    def to_diagnostics(self, num_banks: Optional[int] = None,
                       healthy: Optional[Sequence[bool]] = None,
                       ) -> "DiagnosticReport":
        """Audit the plan as afflint diagnostics (RLY001..RLY004).

        * RLY001 (ERROR): a migration targets an out-of-range bank, or —
          when a health mask is supplied — a failed bank.
        * RLY004 (ERROR): one epoch applied more migrations than the
          plan's own ``max_per_epoch`` bound permits.
        * RLY002 (NOTE): migration applied cleanly.
        * RLY003 (NOTE): decision recorded but skipped.
        """
        from repro.analysis.diagnostics import (Diagnostic, DiagnosticReport,
                                                Severity, Site)
        report = DiagnosticReport()
        per_epoch: Dict[Tuple[str, str], int] = {}
        for i, m in enumerate(self.migrations):
            site = Site("relayout", f"{m.task or 'run'}:{m.epoch}:{i}")
            bad = []
            for b in m.dst_banks:
                if num_banks is not None and not (0 <= b < num_banks):
                    bad.append((b, "out of range"))
                elif healthy is not None and 0 <= b < len(healthy) \
                        and not healthy[b]:
                    bad.append((b, "failed"))
            if m.applied and bad:
                what = ", ".join(f"bank {b} ({why})" for b, why in bad)
                report.add(Diagnostic(
                    "RLY001", Severity.ERROR, site,
                    f"{m.kind.value} of {m.target} targets {what}",
                    fix_hint="consult the fault session's health mask "
                             "before applying migrations"))
                continue
            if not m.applied:
                report.add(Diagnostic(
                    "RLY003", Severity.NOTE, site,
                    f"{m.kind.value} of {m.target} skipped: "
                    f"{m.detail or 'no detail recorded'}"))
                continue
            key = (m.task, m.epoch)
            per_epoch[key] = per_epoch.get(key, 0) + 1
            report.add(Diagnostic(
                "RLY002", Severity.NOTE, site,
                f"{m.describe()}"))
        if self.max_per_epoch > 0:
            for (task, epoch), n in sorted(per_epoch.items()):
                if n > self.max_per_epoch:
                    report.add(Diagnostic(
                        "RLY004", Severity.ERROR,
                        Site("relayout", f"{task or 'run'}:{epoch}"),
                        f"epoch applied {n} migrations, plan bound is "
                        f"{self.max_per_epoch}",
                        fix_hint="the engine must respect "
                                 "RelayoutConfig.max_per_epoch"))
        return report

    def __str__(self) -> str:
        if self.is_empty:
            return "MigrationPlan(empty)"
        lines = [f"MigrationPlan(seed={self.seed}, "
                 f"max_per_epoch={self.max_per_epoch}, "
                 f"{self.applied_count()}/{len(self.migrations)} applied)"]
        lines += [f"  - {m.describe()}" for m in self.migrations]
        return "\n".join(lines)
