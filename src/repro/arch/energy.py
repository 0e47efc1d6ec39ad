"""Event-count energy model (substitute for McPAT, see DESIGN.md §2).

Energy = sum over event types of (count x per-event constant).  The
constants live in :class:`repro.config.PerfParams`; this module only does
the bookkeeping and exposes a breakdown so experiments can report where
energy goes (NoC vs cache vs DRAM vs compute), mirroring the structure of
the paper's Fig 12 energy-efficiency bars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.config import PerfParams

__all__ = ["EnergyBreakdown", "EnergyModel"]


@dataclass
class EnergyBreakdown:
    """Picojoules by subsystem."""

    noc: float = 0.0
    l3: float = 0.0
    private_cache: float = 0.0
    dram: float = 0.0
    core_compute: float = 0.0
    near_compute: float = 0.0

    @property
    def total(self) -> float:
        return (self.noc + self.l3 + self.private_cache + self.dram
                + self.core_compute + self.near_compute)

    def as_dict(self) -> Dict[str, float]:
        return {
            "noc": self.noc,
            "l3": self.l3,
            "private_cache": self.private_cache,
            "dram": self.dram,
            "core_compute": self.core_compute,
            "near_compute": self.near_compute,
        }


class EnergyModel:
    def __init__(self, perf: PerfParams):
        self.perf = perf

    def compute(self, *, flit_hops: float, l3_accesses: float,
                private_accesses: float, dram_accesses: float,
                core_ops: float, near_ops: float) -> EnergyBreakdown:
        p = self.perf
        return EnergyBreakdown(
            noc=flit_hops * p.pj_per_hop_flit,
            l3=l3_accesses * p.pj_l3_access,
            private_cache=private_accesses * p.pj_l1_access,
            dram=dram_accesses * p.pj_dram_access,
            core_compute=core_ops * p.pj_core_op,
            near_compute=near_ops * p.pj_near_op,
        )
