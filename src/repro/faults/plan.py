"""Typed fault plans: what to break, where, and when.

A :class:`FaultPlan` is an ordered tuple of :class:`FaultEvent`\\ s.  Plans
are either authored explicitly (tests pin canonical plans as JSON files)
or generated from a seed + rate, in which case generation is fully
deterministic: the same ``(seed, rate, config, tasks)`` always yields the
same plan, independent of host, process count, or interning.

Event semantics (the ``target``/``param`` encoding per kind):

=================  ==========================  ===========================
kind               target                      param
=================  ==========================  ===========================
``BANK_FAIL``      failed bank id              --
``LINK_FAIL``      tile A of the link          tile B of the link
``POOL_EXHAUST``   pool interleave (bytes)     expansion cap granted
``ALLOC_FAIL``     allocation ordinal          --
``WORKER_CRASH``   task ordinal (mod #tasks)   crash count before success
=================  ==========================  ===========================

``phase`` is ``"boot"`` (applied before any allocation) or ``"run"``
(armed at boot, fired when the executor starts streaming — so the
allocator places data on the soon-to-fail resource first and the
degradation machinery is actually exercised).  ``rehome=False`` on a
``BANK_FAIL`` suppresses the IOT re-home: offloaded streams touching the
bank must fall back to host execution instead.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
import os
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.config import DEFAULT_CONFIG, SystemConfig

__all__ = ["FaultKind", "FaultEvent", "FaultPlan"]


class FaultKind(enum.Enum):
    BANK_FAIL = "bank-fail"
    LINK_FAIL = "link-fail"
    POOL_EXHAUST = "pool-exhaust"
    ALLOC_FAIL = "alloc-fail"
    WORKER_CRASH = "worker-crash"


@dataclass(frozen=True)
class FaultEvent:
    """One typed fault; immutable so plans can live in sets/dict keys."""

    kind: FaultKind
    target: int
    param: int = 0
    phase: str = "run"
    rehome: bool = True

    def __post_init__(self) -> None:
        if self.phase not in ("boot", "run"):
            raise ValueError(f"phase must be 'boot' or 'run', got {self.phase!r}")
        if self.target < 0:
            raise ValueError(f"target must be non-negative, got {self.target}")

    def describe(self) -> str:
        k = self.kind
        if k is FaultKind.BANK_FAIL:
            mode = "re-homed" if self.rehome else "no-rehome"
            return f"bank {self.target} fails at {self.phase} ({mode})"
        if k is FaultKind.LINK_FAIL:
            return f"link {self.target}-{self.param} fails at {self.phase}"
        if k is FaultKind.POOL_EXHAUST:
            return (f"pool {self.target}B capped at "
                    f"{self.param} expansion(s)")
        if k is FaultKind.ALLOC_FAIL:
            return f"allocation ordinal {self.target} fails"
        return f"worker for task ordinal {self.target} crashes x{self.param}"

    def to_dict(self) -> Dict:
        return {"kind": self.kind.value, "target": self.target,
                "param": self.param, "phase": self.phase,
                "rehome": self.rehome}

    @classmethod
    def from_dict(cls, d: Dict) -> "FaultEvent":
        return cls(kind=FaultKind(d["kind"]), target=int(d["target"]),
                   param=int(d.get("param", 0)),
                   phase=str(d.get("phase", "run")),
                   rehome=bool(d.get("rehome", True)))


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable set of faults to inject into one run."""

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0
    rate: float = 0.0

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "FaultPlan":
        return cls(events=())

    @property
    def is_empty(self) -> bool:
        return not self.events

    def by_kind(self, kind: FaultKind) -> List[FaultEvent]:
        return [e for e in self.events if e.kind is kind]

    def crash_budget(self, task_names: List[str]) -> Dict[str, int]:
        """Map WORKER_CRASH events onto concrete task names.

        The event's ``target`` is an ordinal taken mod the task count, so
        a plan generated without knowing the task list still applies
        deterministically to any list.
        """
        budget: Dict[str, int] = {}
        if not task_names:
            return budget
        for ev in self.by_kind(FaultKind.WORKER_CRASH):
            name = task_names[ev.target % len(task_names)]
            budget[name] = budget.get(name, 0) + max(1, ev.param)
        return budget

    # ------------------------------------------------------------------
    # Serialization (tests pin canonical plans as JSON)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "rate": self.rate,
            "events": [e.to_dict() for e in self.events],
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        d = json.loads(text)
        if not isinstance(d, dict) or not set(d) <= {"seed", "rate", "events"}:
            raise ValueError("not a fault plan: expected a JSON object "
                             "with keys events, rate, seed")
        return cls(events=tuple(FaultEvent.from_dict(e)
                                for e in d.get("events", [])),
                   seed=int(d.get("seed", 0)),
                   rate=float(d.get("rate", 0.0)))

    def save(self, path: Union[str, os.PathLike]) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())

    def digest(self) -> str:
        """Stable 12-hex fingerprint, used to extend run cache keys."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:12]

    # ------------------------------------------------------------------
    @classmethod
    def generate(cls, seed: int, rate: float,
                 config: SystemConfig = DEFAULT_CONFIG,
                 tasks: int = 0) -> "FaultPlan":
        """Seeded random plan; the draw order below is part of the format.

        Categories are drawn in a fixed order (banks, links, pools, alloc
        ordinals, worker crashes) from one ``default_rng(seed)`` stream,
        so a given ``(seed, rate)`` pair names exactly one plan forever.
        Caps keep generated plans survivable: at most a quarter of the
        banks fail, at most 4 links (never disconnecting — the injector
        skips those at apply time), and alloc faults stay sparse.
        """
        # Imported here, not at module top: mesh pulls numpy-heavy modules
        # that plan-only consumers (the harness) don't otherwise need.
        from repro.arch.mesh import Mesh

        if rate < 0.0:
            raise ValueError("fault rate must be non-negative")
        rng = np.random.default_rng(seed)
        events: List[FaultEvent] = []

        nb = config.num_banks
        draws = rng.random(nb)
        failed = np.flatnonzero(draws < rate)[: max(1, nb // 4)]
        for i, b in enumerate(failed.tolist()):
            # Every third failed bank is non-re-homeable, so generated
            # plans exercise the host-fallback path too.
            events.append(FaultEvent(FaultKind.BANK_FAIL, int(b),
                                     rehome=(i % 3 != 2)))

        mesh = Mesh(config.noc.width, config.noc.height)
        pairs = mesh.undirected_interior_links()
        draws = rng.random(len(pairs))
        for i in np.flatnonzero(draws < rate / 2)[:4].tolist():
            a, b = pairs[int(i)]
            events.append(FaultEvent(FaultKind.LINK_FAIL, int(a), param=int(b)))

        for intrlv in (64, 128, 256, 512, 1024, 2048, 4096):
            if rng.random() < rate:
                events.append(FaultEvent(FaultKind.POOL_EXHAUST, intrlv,
                                         param=1 + int(rng.integers(0, 3)),
                                         phase="boot"))

        n_alloc = int(rng.poisson(rate * 20.0))
        if n_alloc:
            ordinals = np.unique(rng.integers(0, 2000, size=n_alloc))
            for o in ordinals.tolist():
                events.append(FaultEvent(FaultKind.ALLOC_FAIL, int(o),
                                         phase="boot"))

        for t in range(tasks):
            if rng.random() < rate:
                events.append(FaultEvent(FaultKind.WORKER_CRASH, t, param=1))

        return cls(events=tuple(events), seed=seed, rate=float(rate))

    def __str__(self) -> str:
        if self.is_empty:
            return "FaultPlan(empty)"
        lines = [f"FaultPlan(seed={self.seed}, rate={self.rate}, "
                 f"{len(self.events)} events)"]
        lines += [f"  - {e.describe()}" for e in self.events]
        return "\n".join(lines)
