"""Normalization and comparison helpers for reported numbers.

The paper normalizes speedup and energy efficiency to the *Near-L3*
baseline (Fig 12 top two panels) and NoC traffic to *In-Core* (Fig 12
bottom panel); sweep figures normalize to whichever configuration the
caption names.  These helpers keep the direction of every ratio in one
place so experiment code cannot get them backwards.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.perf.model import RunResult

__all__ = ["speedup", "energy_efficiency", "traffic_ratio", "geomean",
           "mean"]


def speedup(baseline: RunResult, candidate: RunResult) -> float:
    """How much faster ``candidate`` is than ``baseline`` (>1 is faster)."""
    if candidate.cycles <= 0:
        raise ValueError("candidate has non-positive cycles")
    return baseline.cycles / candidate.cycles


def energy_efficiency(baseline: RunResult, candidate: RunResult) -> float:
    """Energy-efficiency gain of ``candidate`` over ``baseline`` (>1 uses less)."""
    if candidate.energy_pj <= 0:
        raise ValueError("candidate has non-positive energy")
    return baseline.energy_pj / candidate.energy_pj


def traffic_ratio(baseline: RunResult, candidate: RunResult) -> float:
    """Candidate NoC flit-hops as a fraction of baseline (<1 is a reduction)."""
    if baseline.total_flit_hops <= 0:
        return 0.0
    return candidate.total_flit_hops / baseline.total_flit_hops


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values]
    if not vals:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)

