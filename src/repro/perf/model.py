"""Analytic bottleneck timing model (DESIGN.md §5).

Each recorded phase is timed at the slowest of its resources:

* cores   — committed ops vs. issue width,
* banks   — L3 service occupancy (line accesses, atomics, near-ops),
* links   — most-loaded directed NoC link (1 flit/cycle/link),
* chains  — serialized dependence chains (pointer chasing),

and the run is the sum of its phases, floored by whole-run DRAM bandwidth
(misses overlap with everything, so DRAM is a global bound, not a
per-phase one).  This deliberately ignores cycle-level queueing — the
reproduced claims are ratios between configurations that shift *where*
messages go, which this model captures exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

import numpy as np

from repro.arch.energy import EnergyBreakdown
from repro.arch.noc import MessageClass
from repro.perf.stats import PhaseStats, RunRecorder

if TYPE_CHECKING:
    from repro.machine import Machine

__all__ = ["PerfModel", "RunResult", "bank_busy"]


def bank_busy(stats: Any, perf: Any) -> np.ndarray:
    """Per-bank L3 service cycles: line accesses, atomics, remote
    requests and near-data ops, from a phase or a whole run's recorder."""
    return (stats.bank_line_accesses * perf.bank_access_cycles
            + stats.bank_atomics * perf.atomic_access_cycles
            + stats.bank_remote_reqs * perf.remote_req_cycles
            + stats.bank_near_ops / perf.bank_ops_per_cycle)


@dataclass
class RunResult:
    """Everything an experiment needs from one run."""

    label: str
    cycles: float
    phase_cycles: List[Tuple[str, float]]
    energy: EnergyBreakdown
    flit_hops_by_class: Dict[str, float]
    total_flit_hops: float
    l3_miss_pct: float
    noc_utilization: float
    counters: Dict[str, float] = field(default_factory=dict)
    phases: List[PhaseStats] = field(default_factory=list)
    value: object = None  # functional result of the kernel, for checking
    #: Per-phase resource times (core/bank/link/serial), aligned with
    #: ``phase_cycles``; each phase's cycles is the max of its entries.
    phase_resources: List[Tuple[str, Dict[str, float]]] = field(default_factory=list)

    @property
    def energy_pj(self) -> float:
        return self.energy.total


class PerfModel:
    """Turns a finished :class:`RunRecorder` into a :class:`RunResult`."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.perf = machine.config.perf

    # ------------------------------------------------------------------
    def _phase_resources(self, phase: PhaseStats) -> Dict[str, float]:
        """Time each resource would take alone; the phase runs at the max.

        Insertion order (core, bank, link, serial) is load-bearing: the
        attribution table and ``max()`` both iterate it.
        """
        p = self.perf
        t_core = float(phase.core_ops.max()) / p.core_ops_per_cycle if phase.core_ops.size else 0.0
        busy = bank_busy(phase, p)
        t_bank = float(busy.max()) if busy.size else 0.0
        t_link = float(phase.channel_loads.max())
        t_serial = float(phase.core_serial_cycles.max()) if phase.core_serial_cycles.size else 0.0
        return {"core": t_core, "bank": t_bank,
                "link": t_link, "serial": t_serial}

    # ------------------------------------------------------------------
    def evaluate(self, recorder: RunRecorder, *, label: str = "run",
                 reuse_fraction: float = 1.0, value=None) -> RunResult:
        """Close the recorder, fold in capacity misses, and time the run.

        Args:
            recorder: the event sink of a completed trace execution.
            reuse_fraction: fraction of L3 accesses eligible to capacity-
                miss (see :meth:`repro.arch.llc.LlcModel.miss_fraction_for_banks`).
            value: functional kernel result to carry along.
        """
        recorder.close()
        machine = self.machine
        p = self.perf
        noc = machine.config.noc
        line = machine.config.cache.line_bytes

        # ---------------- capacity misses -> DRAM traffic -------------
        miss_frac = machine.llc.bank_miss_fraction()
        accesses = recorder.bank_line_accesses + recorder.bank_atomics
        miss_counts = accesses * miss_frac * reuse_fraction
        total_accesses = float(accesses.sum())
        miss_pct = 100.0 * float(miss_counts.sum()) / total_accesses if total_accesses else 0.0

        banks_idx = np.arange(machine.num_banks)
        have_misses = miss_counts > 0
        dram_accesses = float(miss_counts.sum())
        from repro.arch.dram import DramModel
        dram = DramModel(machine.mesh, machine.config.dram)
        if have_misses.any():
            b = banks_idx[have_misses]
            c = miss_counts[have_misses]
            ctrl_tiles = dram.controller_tile_for(b)
            # request to the memory controller, line response back
            recorder.traffic.record(b, ctrl_tiles, 0, MessageClass.CONTROL, count=c)
            recorder.traffic.record(ctrl_tiles, b, line, MessageClass.DATA, count=c)
            dram.record_miss_traffic(b, float(line), c)
            # The DRAM round-trips above were recorded after the last
            # phase mark; wrap them so they are timed too.
            recorder.end_phase("memory")
        t_dram = dram.bottleneck_cycles()

        # ---------------- per-phase timing ----------------------------
        phase_resources = [(ph.label, self._phase_resources(ph))
                           for ph in recorder.phases]
        phase_cycles = [(lbl, max(res.values())) for lbl, res in phase_resources]
        cycles = sum(c for _, c in phase_cycles)
        cycles = max(cycles, t_dram, 1.0)

        # ---------------- energy --------------------------------------
        flit_hops = recorder.traffic.flit_hops_by_class()
        total_hops = sum(flit_hops.values())
        l3_accesses = float(accesses.sum())
        core_ops = float(recorder.core_ops.sum())
        near_ops = float(recorder.bank_near_ops.sum())
        energy = machine.energy_model.compute(
            flit_hops=total_hops,
            l3_accesses=l3_accesses,
            private_accesses=recorder.private_line_accesses,
            dram_accesses=dram_accesses,
            core_ops=core_ops,
            near_ops=near_ops,
        )

        result = RunResult(
            label=label,
            cycles=cycles,
            phase_cycles=phase_cycles,
            energy=energy,
            flit_hops_by_class={cls.value: v for cls, v in flit_hops.items()},
            total_flit_hops=total_hops,
            l3_miss_pct=miss_pct,
            noc_utilization=recorder.traffic.utilization(cycles),
            counters={
                "l3_accesses": l3_accesses,
                "atomics": float(recorder.bank_atomics.sum()),
                "remote_reqs": float(recorder.bank_remote_reqs.sum()),
                "core_ops": core_ops,
                "near_ops": near_ops,
                "dram_accesses": dram_accesses,
                "messages": recorder.traffic.message_count(),
                "total_flits": recorder.traffic.total_flits(),
                "stream_elem_accesses": recorder.stream_elem_accesses,
                "stream_remote_accesses": recorder.stream_remote_accesses,
            },
            phases=list(recorder.phases),
            value=value,
            phase_resources=phase_resources,
        )
        interference = machine.interference
        if interference is not None:
            # Surface the injected host load so reports/goldens can pin
            # it; absent on clean runs, keeping their counters dict (and
            # serialized results) byte-identical.
            result.counters["host_injected_messages"] = float(
                interference.injected_messages)
            result.counters["host_epochs"] = float(interference.epoch_index)
        tracer = machine.tracer
        if tracer is not None:
            tracer.on_run_end(result, recorder)
        return result
