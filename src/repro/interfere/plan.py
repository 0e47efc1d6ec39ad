"""Typed host-traffic plans: who the host hammers, how hard, and when.

A :class:`HostTrafficPlan` is an ordered tuple of :class:`HostStream`\\ s.
Plans are either authored explicitly (tests pin canonical plans as JSON
files) or generated from a seed + intensity, in which case generation is
fully deterministic: the same ``(seed, intensity, config)`` always yields
the same plan, independent of host, process count, or interning.

Stream semantics (the ``tile``/``targets`` encoding per kind):

=============  =======================  ================================
kind           tile                     targets
=============  =======================  ================================
``READ``       host injection tile      LLC banks read each epoch
``WRITE``      host injection tile      LLC banks written each epoch
``ATOMIC``     host injection tile      LLC banks hit with atomics
``LINK``       source tile              destination tiles (raw transfers)
=============  =======================  ================================

``intensity`` is the mean message count the stream issues per NDC epoch
(the engine charges one batch at every :meth:`RunRecorder.end_phase`).
``burst`` in ``[0, 1)`` modulates each epoch's count by a seeded factor
in ``[1-burst, 1+burst]`` drawn from ``default_rng([seed, stream, epoch])``
— independent of intensity, so scaling a plan up or down never changes
the burst pattern and slowdown stays monotone in intensity.
``start``/``stop`` gate the stream to an epoch window (``stop=-1`` means
"until the run ends").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.serial import (PlanFieldError, Serial, checked, in_range,
                          non_empty, non_negative)

__all__ = ["HostStreamKind", "HostStream", "HostTrafficPlan",
           "burst_multiplier", "predict_host_injection"]


class HostStreamKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    ATOMIC = "atomic"
    LINK = "link"


#: Stream kinds whose targets are LLC banks (and therefore follow IOT
#: re-homes when chaos retires a bank mid-run).
BANK_KINDS = (HostStreamKind.READ, HostStreamKind.WRITE,
              HostStreamKind.ATOMIC)


def burst_multiplier(seed: int, stream_idx: int, epoch: int,
                     burst: float) -> float:
    """Per-epoch intensity modulation factor in ``[1-burst, 1+burst]``.

    Keyed by (plan seed, stream index, epoch index) only — deliberately
    *not* by intensity — so :meth:`HostTrafficPlan.scaled` sweeps are
    strictly monotone and the pure predictor replays the engine exactly.
    """
    if burst <= 0.0:
        return 1.0
    u = float(np.random.default_rng([seed, stream_idx, epoch]).random())
    return 1.0 + burst * (2.0 * u - 1.0)


@dataclass(frozen=True)
class HostStream(Serial):
    """One typed host traffic stream; immutable so plans hash/compare."""

    kind: HostStreamKind
    tile: int = checked(non_negative)
    targets: Tuple[int, ...] = checked(non_empty, item=non_negative)
    intensity: float = checked(non_negative)
    start: int = checked(non_negative, default=0)
    stop: int = -1
    burst: float = checked(in_range(0, 1), default=0.0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.stop != -1 and self.stop <= self.start:
            raise PlanFieldError("stop", "must be -1 or greater than start "
                                 f"({self.start}), got {self.stop}")

    def active(self, epoch: int) -> bool:
        return self.start <= epoch and (self.stop < 0 or epoch < self.stop)

    def describe(self) -> str:
        window = (f"epochs {self.start}.." if self.stop < 0
                  else f"epochs {self.start}..{self.stop}")
        tgt = ",".join(str(t) for t in self.targets)
        noun = "tiles" if self.kind is HostStreamKind.LINK else "banks"
        extra = f", burst {self.burst:.2f}" if self.burst else ""
        return (f"host {self.kind.value} from tile {self.tile} onto "
                f"{noun} [{tgt}] @ {self.intensity:g} msg/epoch "
                f"({window}{extra})")


@dataclass(frozen=True)
class HostTrafficPlan(Serial):
    """An ordered, immutable set of host streams to run against one NDC
    run.  The empty plan is the clean host: attaching it is a no-op and
    runs stay byte-identical to uncontended ones."""

    streams: Tuple[HostStream, ...] = ()
    seed: int = checked(non_negative, default=0)
    intensity: float = checked(non_negative, default=0.0)

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "HostTrafficPlan":
        return cls(streams=())

    @property
    def is_empty(self) -> bool:
        return not self.streams

    def scaled(self, factor: float) -> "HostTrafficPlan":
        """Same streams, intensities multiplied by ``factor``.

        Burst modulation is keyed by (seed, stream, epoch) only, so a
        scaled plan replays the identical burst pattern — the basis of
        the monotone-slowdown property the tests pin.
        """
        return HostTrafficPlan(
            streams=tuple(replace(s, intensity=s.intensity * factor)
                          for s in self.streams),
            seed=self.seed, intensity=self.intensity * factor)

    def check(self, config: SystemConfig) -> "HostTrafficPlan":
        """This plan, if every bank target is a bank of ``config`` and
        every tile (and LINK target) one of its tiles, the ranges a plan
        file cannot know on its own; else :class:`PlanFieldError`."""
        tiles = config.noc.num_tiles
        for i, s in enumerate(self.streams):
            limit, noun = ((tiles, "tile") if s.kind is HostStreamKind.LINK
                           else (config.num_banks, "bank"))
            for where, value, n, what in [("tile", s.tile, tiles, "tile")] + [
                    (f"targets[{j}]", t, limit, noun)
                    for j, t in enumerate(s.targets)]:
                if value >= n:
                    raise PlanFieldError(f"streams[{i}].{where}", f"{what} "
                                         f"{value} out of range for {n} {what}s")
        return self

    # ------------------------------------------------------------------
    @classmethod
    def generate(cls, seed: int, intensity: float = 1.0,
                 config: SystemConfig = DEFAULT_CONFIG) -> "HostTrafficPlan":
        """Seeded random plan; the draw order below is part of the format.

        Stream categories are drawn in a fixed order (hot banks, reads,
        writes, one atomic stream, link streams) from one
        ``default_rng(seed)`` stream, so a ``(seed, intensity)`` pair
        names exactly one plan forever.  The shape mirrors a host that
        keeps working while NDC runs: corner-tile memory controllers
        streaming over a hot subset of banks, plus DMA-style tile-to-tile
        transfers crossing the mesh center.
        """
        rng = np.random.default_rng(seed)
        streams: List[HostStream] = []
        if intensity == 0.0:
            return cls(streams=(), seed=seed, intensity=0.0)

        nb = config.num_banks
        w, h = config.noc.width, config.noc.height
        corners = (0, w - 1, (h - 1) * w, w * h - 1)

        # Hot-bank working set: ~1/8 of the banks, at least 2.
        n_hot = max(2, nb // 8)
        hot = np.sort(rng.choice(nb, size=min(n_hot, nb), replace=False))
        hot_tuple = tuple(int(b) for b in hot.tolist())

        # Read streams from every corner over the hot set.
        base = 24.0 * intensity
        for c in corners:
            streams.append(HostStream(
                HostStreamKind.READ, int(c), hot_tuple,
                intensity=base * float(0.75 + 0.5 * rng.random()),
                burst=float(0.25 * rng.random())))

        # Write-backs from two opposite corners over half the hot set.
        half = hot_tuple[: max(1, len(hot_tuple) // 2)]
        for c in (corners[0], corners[3]):
            streams.append(HostStream(
                HostStreamKind.WRITE, int(c), half,
                intensity=0.5 * base * float(0.75 + 0.5 * rng.random()),
                burst=float(0.25 * rng.random())))

        # One atomic stream on the single hottest bank (lock word / queue
        # tail shared with the host).
        hottest = hot_tuple[int(rng.integers(0, len(hot_tuple)))]
        streams.append(HostStream(
            HostStreamKind.ATOMIC, int(corners[1]), (int(hottest),),
            intensity=0.25 * base))

        # DMA-style link streams crossing the center of the mesh.
        center = (h // 2) * w + w // 2
        for c in (corners[0], corners[2]):
            streams.append(HostStream(
                HostStreamKind.LINK, int(c), (int(center),),
                intensity=0.5 * base * float(0.75 + 0.5 * rng.random())))

        return cls(streams=tuple(streams), seed=seed,
                   intensity=float(intensity))

    def __str__(self) -> str:
        if self.is_empty:
            return "HostTrafficPlan(empty)"
        lines = [f"HostTrafficPlan(seed={self.seed}, "
                 f"intensity={self.intensity:g}, "
                 f"{len(self.streams)} streams)"]
        lines += [f"  - {s.describe()}" for s in self.streams]
        return "\n".join(lines)


def predict_host_injection(plan: HostTrafficPlan, epochs: int,
                           num_banks: int) -> Dict[str, Any]:
    """Pure replay of the engine's injection algebra — no machine needed.

    Returns the plan-space (pre-IOT-remap) per-bank access and atomic
    vectors plus the total message count after ``epochs`` host epochs.
    The INT006 analysis check compares these against what an
    :class:`~repro.interfere.engine.InterferenceState` actually charged;
    any divergence means the engine and the model disagree about the
    injected contention.
    """
    accesses = np.zeros(num_banks, dtype=np.float64)
    atomics = np.zeros(num_banks, dtype=np.float64)
    messages = 0.0
    for epoch in range(epochs):
        for idx, s in enumerate(plan.streams):
            if not s.active(epoch) or s.intensity <= 0.0:
                continue
            n = s.intensity * burst_multiplier(plan.seed, idx, epoch, s.burst)
            targets = np.asarray(s.targets, dtype=np.int64)
            per = n / targets.size
            if s.kind is HostStreamKind.READ:
                # request + line response per message, one bank access
                np.add.at(accesses, targets[targets < num_banks], per)
                messages += 2.0 * n
            elif s.kind is HostStreamKind.WRITE:
                # request + response + writeback, two bank accesses
                np.add.at(accesses, targets[targets < num_banks], 2.0 * per)
                messages += 3.0 * n
            elif s.kind is HostStreamKind.ATOMIC:
                np.add.at(atomics, targets[targets < num_banks], per)
                messages += n
            else:  # LINK: raw transfer, no bank involvement
                messages += n
    return {"bank_accesses": accesses, "bank_atomics": atomics,
            "messages": np.float64(messages)}
