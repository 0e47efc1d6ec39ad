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
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.serial import Serial, checked, non_negative, one_of, probability

__all__ = ["FaultKind", "FaultEvent", "FaultPlan"]


class FaultKind(enum.Enum):
    BANK_FAIL = "bank-fail"
    LINK_FAIL = "link-fail"
    POOL_EXHAUST = "pool-exhaust"
    ALLOC_FAIL = "alloc-fail"
    WORKER_CRASH = "worker-crash"


@dataclass(frozen=True)
class FaultEvent(Serial):
    """One typed fault; immutable so plans can live in sets/dict keys."""

    kind: FaultKind
    target: int = checked(non_negative)
    param: int = checked(non_negative, default=0)
    phase: str = checked(one_of(("boot", "run")), default="run")
    rehome: bool = True

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


@dataclass(frozen=True)
class FaultPlan(Serial):
    """An ordered, immutable set of faults to inject into one run."""

    events: Tuple[FaultEvent, ...] = ()
    seed: int = checked(non_negative, default=0)
    #: Per-resource fault probability of a generated plan.
    rate: float = checked(probability, default=0.0)

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

        cls(seed=seed, rate=float(rate))  # range checks before any draw
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
