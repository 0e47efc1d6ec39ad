"""Pure migration policy: telemetry in, bounded decisions out.

``decide`` is a pure function of a :class:`Telemetry` snapshot and a
frozen :class:`RelayoutConfig`; it touches no global state and draws no
randomness beyond what the config carries, so the same inputs always
produce the same ordered decision tuple.  That purity is what makes the
whole autoplace loop epoch-deterministic: the engine feeds it snapshots
built from the recorder's phase deltas, and the property suite replays
it directly.

Decision rules (paper framing: keep forwarding distance near zero):

* **ROTATE** — an array whose observed accesses land a *consistent*
  bank distance ``d`` from their consumers (dominant bin of the delta
  histogram) gets its pool slots rotated by ``-d`` via an IOT override.
* **SWAP** — under extreme bank-heat skew (max/mean >= ``hot_ratio``)
  the hottest and coldest healthy banks trade identities.
* **REHOME** — advisory, budget-gated: an irregular array with high
  remote fraction but *no* dominant delta is flagged for structural
  re-placement (the engine records it; data structures with their own
  re-homing hooks may act on it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.relayout.plan import MigrationKind
from repro.serial import Serial

__all__ = ["ArrayDrift", "Decision", "RelayoutConfig", "Telemetry", "decide"]


@dataclass(frozen=True)
class RelayoutConfig(Serial):
    """Tuning knobs for the online re-layout engine (all deterministic).

    Costs live here rather than on :class:`repro.config.SystemConfig`
    on purpose: the harness fingerprints the system config for its
    artifact cache, and relayout must not invalidate unrelated runs.
    """

    heat_decay: float = 0.5            # rolling bank-heat EWMA retention
    drift_threshold: float = 0.1       # min remote fraction to consider
    dominance: float = 0.6             # dominant delta bin vs all remotes
    min_accesses: float = 512.0        # ignore arrays below this traffic
    max_per_epoch: int = 2             # migration bound per epoch
    max_total: int = 16                # lifetime migration budget per run
    hot_ratio: float = 8.0             # bank heat max/mean to trigger SWAP
    cooldown_epochs: int = 1           # epochs an array rests after moving
    line_move_cycles: float = 2.0      # bank cycles per migrated line
    #: Quiesce stall (serial cycles on every core) charged once per
    #: epoch that applies at least one migration: streams drain, the
    #: IOT update propagates, streams resume.
    stall_cycles: float = 200.0
    rehome_budget: int = 0             # advisory REHOME decisions allowed
    seed: int = 0


@dataclass(frozen=True)
class ArrayDrift:
    """Per-array drift observation accumulated over one epoch."""

    name: str
    vaddr: int
    total: float                       # observed element accesses
    remote: float                      # of which landed off-consumer-bank
    delta_hist: Tuple[float, ...]      # histogram of (data - desired) % nb
    eligible_rotate: bool = True       # pool-backed, IOT-rotatable
    cooling: bool = False              # migrated within cooldown window

    @property
    def remote_fraction(self) -> float:
        return self.remote / self.total if self.total > 0 else 0.0

    def dominant_delta(self) -> Tuple[int, float]:
        """(delta, weight) of the heaviest nonzero histogram bin."""
        best_d, best_w = 0, 0.0
        for d, w in enumerate(self.delta_hist):
            if d == 0:
                continue
            if w > best_w:
                best_d, best_w = d, w
        return best_d, best_w


@dataclass(frozen=True)
class Telemetry:
    """One epoch's snapshot handed to :func:`decide`."""

    epoch: str
    num_banks: int
    bank_heat: Tuple[float, ...]       # rolling per-bank heat (cycles)
    healthy: Tuple[bool, ...]          # per-bank health mask
    arrays: Tuple[ArrayDrift, ...]
    budget_left: int                   # lifetime migrations remaining


@dataclass(frozen=True)
class Decision:
    """One policy output; the engine turns these into Migrations."""

    kind: MigrationKind
    name: str = ""
    vaddr: int = 0
    rot: int = 0                       # ROTATE: bank rotation amount
    bank_a: int = -1                   # SWAP: hot bank
    bank_b: int = -1                   # SWAP: cold bank
    reason: str = ""


def _heat_skew(heat: Tuple[float, ...]) -> float:
    if not heat:
        return 0.0
    mean = sum(heat) / len(heat)
    return max(heat) / mean if mean > 0 else 0.0


def _swap_candidate(t: Telemetry) -> Tuple[int, int]:
    """(hot, cold) healthy bank pair, ties broken by lowest id."""
    hot, cold = -1, -1
    for b in range(t.num_banks):
        if not t.healthy[b]:
            continue
        if hot < 0 or t.bank_heat[b] > t.bank_heat[hot]:
            hot = b
        if cold < 0 or t.bank_heat[b] < t.bank_heat[cold]:
            cold = b
    return hot, cold


def decide(telemetry: Telemetry, cfg: RelayoutConfig) -> Tuple[Decision, ...]:
    """Emit at most ``min(max_per_epoch, budget_left)`` decisions.

    Deterministic: arrays are ranked by (traffic desc, vaddr asc) and
    every threshold comes from the frozen config.  Rotations aim to zero
    the dominant forwarding distance; the rotation amount is
    ``(num_banks - d) % num_banks`` so post-rotation accesses land on
    their consumer's bank.
    """
    out: List[Decision] = []
    budget = min(cfg.max_per_epoch, telemetry.budget_left)
    if budget <= 0:
        return ()

    ranked = sorted(telemetry.arrays, key=lambda a: (-a.total, a.vaddr))
    rehome_left = cfg.rehome_budget
    for a in ranked:
        if len(out) >= budget:
            break
        if a.cooling or a.total < cfg.min_accesses:
            continue
        if a.remote_fraction < cfg.drift_threshold:
            continue
        d, weight = a.dominant_delta()
        if a.eligible_rotate and d != 0 and weight >= cfg.dominance * a.remote:
            rot = (telemetry.num_banks - d) % telemetry.num_banks
            if rot:
                out.append(Decision(
                    kind=MigrationKind.ROTATE, name=a.name, vaddr=a.vaddr,
                    rot=rot,
                    reason=(f"dominant delta {d} over "
                            f"{a.remote_fraction:.0%} remote accesses")))
            continue
        if rehome_left > 0:
            rehome_left -= 1
            out.append(Decision(
                kind=MigrationKind.REHOME, name=a.name, vaddr=a.vaddr,
                reason=(f"{a.remote_fraction:.0%} remote with no dominant "
                        f"delta")))

    if len(out) < budget and _heat_skew(telemetry.bank_heat) >= cfg.hot_ratio:
        hot, cold = _swap_candidate(telemetry)
        if hot >= 0 and cold >= 0 and hot != cold:
            out.append(Decision(
                kind=MigrationKind.SWAP, bank_a=hot, bank_b=cold,
                name=f"bank{hot}<->bank{cold}",
                reason=(f"heat skew {_heat_skew(telemetry.bank_heat):.1f}x "
                        f">= {cfg.hot_ratio:.1f}x")))
    return tuple(out)
