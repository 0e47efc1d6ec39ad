"""Run recording: every event the trace executor emits lands here.

A :class:`RunRecorder` accumulates, for one workload run:

* NoC message batches (via a :class:`~repro.arch.noc.TrafficAccountant`),
* per-bank L3 line accesses, remote atomics, and near-data ops,
* per-core committed ops and serialized (dependence-chain) cycles,
* private-cache line accesses (for energy),
* *phases* — labeled checkpoints (e.g. one BFS iteration) that snapshot
  counter deltas, so the perf model can time each phase at its own
  bottleneck and the harness can plot timelines (paper Figs 14/18).
  A phase's traffic is sealed into channel loads and per-class totals
  (:class:`~repro.arch.noc.SealedTraffic`), not a tiles x tiles matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

import numpy as np

from repro.arch.noc import MessageClass

if TYPE_CHECKING:
    from repro.machine import Machine

__all__ = ["PhaseStats", "RunRecorder"]


@dataclass
class PhaseStats:
    """Counter deltas for one phase of a run; the last four fields are
    the phase's :class:`~repro.arch.noc.SealedTraffic`."""

    label: str
    bank_line_accesses: np.ndarray
    bank_atomics: np.ndarray
    bank_remote_reqs: np.ndarray
    bank_near_ops: np.ndarray
    core_ops: np.ndarray
    core_serial_cycles: np.ndarray
    private_line_accesses: float
    channel_loads: np.ndarray
    flits: Dict[MessageClass, float]
    flit_hops: Dict[MessageClass, float]
    arrivals: Dict[MessageClass, np.ndarray]

    def total_flits(self) -> float:
        return float(sum(self.flits.values()))


class RunRecorder:
    """Mutable event sink for one run on one machine."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.traffic = machine.new_traffic()
        nb, nc = machine.num_banks, machine.num_cores
        self.bank_line_accesses = np.zeros(nb, dtype=np.float64)
        self.bank_atomics = np.zeros(nb, dtype=np.float64)
        self.bank_remote_reqs = np.zeros(nb, dtype=np.float64)
        self.bank_near_ops = np.zeros(nb, dtype=np.float64)
        self.core_ops = np.zeros(nc, dtype=np.float64)
        self.core_serial_cycles = np.zeros(nc, dtype=np.float64)
        self.private_line_accesses = 0.0
        # Offloaded-stream locality (measured ground truth for the afflint
        # coverage estimator).  Deliberately kept out of phase snapshots:
        # they inform no timing/energy result, only the locality report.
        self.stream_elem_accesses = 0.0
        self.stream_remote_accesses = 0.0
        self.phases: List[PhaseStats] = []
        self._mark = self._snapshot()

    # ------------------------------------------------------------------
    # Event sinks (all accept scalars or arrays)
    # ------------------------------------------------------------------
    def add_bank_accesses(self, banks, count=1.0) -> None:
        """L3 line accesses at bank(s)."""
        self._accumulate(self.bank_line_accesses, banks, count)

    def add_bank_atomics(self, banks, count=1.0) -> None:
        """Atomic operations executed at bank(s)."""
        self._accumulate(self.bank_atomics, banks, count)

    def add_remote_reqs(self, banks, count=1.0) -> None:
        """Remote fine-grained requests handled at bank(s): the per-message
        receive overhead colocation avoids (see PerfParams.remote_req_cycles)."""
        self._accumulate(self.bank_remote_reqs, banks, count)

    def add_near_ops(self, banks, count=1.0) -> None:
        """Near-data compute ops executed at bank(s)' stream engine."""
        self._accumulate(self.bank_near_ops, banks, count)

    def add_core_ops(self, cores, count=1.0) -> None:
        """Committed core ops (compute + address generation)."""
        self._accumulate(self.core_ops, cores, count)

    def add_serial_cycles(self, cores, cycles) -> None:
        """Serialized dependence-chain cycles charged to core(s)' task."""
        self._accumulate(self.core_serial_cycles, cores, cycles)

    def add_private_accesses(self, count: float) -> None:
        self.private_line_accesses += float(count)

    def add_stream_locality(self, total: float, remote: float) -> None:
        """Offloaded stream element accesses, split local vs remote."""
        self.stream_elem_accesses += float(total)
        self.stream_remote_accesses += float(remote)

    @staticmethod
    def _accumulate(target: np.ndarray, idx, count) -> None:
        idx = np.atleast_1d(np.asarray(idx, dtype=np.int64))
        count = np.broadcast_to(np.asarray(count, dtype=np.float64), idx.shape)
        # bincount itself rejects negative indices, and an index past the
        # end yields a histogram longer than ``target`` — so bounds
        # violations surface without paying two extra reduction passes
        # per call on the hot accounting path.
        try:
            binned = np.bincount(idx, weights=count, minlength=target.size)
        except ValueError:
            raise ValueError("bank/core index out of range") from None
        if binned.size > target.size:
            raise ValueError("bank/core index out of range")
        target += binned

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def _snapshot(self) -> dict:
        return {
            "bank_line_accesses": self.bank_line_accesses.copy(),
            "bank_atomics": self.bank_atomics.copy(),
            "bank_remote_reqs": self.bank_remote_reqs.copy(),
            "bank_near_ops": self.bank_near_ops.copy(),
            "core_ops": self.core_ops.copy(),
            "core_serial_cycles": self.core_serial_cycles.copy(),
            "private": self.private_line_accesses,
        }

    def end_phase(self, label: str) -> PhaseStats:
        """Close the current phase, recording deltas since the last mark."""
        interference = self.machine.interference
        if interference is not None:
            # One host epoch per NDC phase, injected *before* the
            # snapshot so the host's messages land inside this phase and
            # the perf model prices the contention into its bottlenecks.
            interference.on_epoch(self, label)
        now = self._snapshot()
        prev = self._mark
        phase = PhaseStats(
            label=label,
            bank_line_accesses=now["bank_line_accesses"] - prev["bank_line_accesses"],
            bank_atomics=now["bank_atomics"] - prev["bank_atomics"],
            bank_remote_reqs=now["bank_remote_reqs"] - prev["bank_remote_reqs"],
            bank_near_ops=now["bank_near_ops"] - prev["bank_near_ops"],
            core_ops=now["core_ops"] - prev["core_ops"],
            core_serial_cycles=now["core_serial_cycles"] - prev["core_serial_cycles"],
            private_line_accesses=now["private"] - prev["private"],
            **self.traffic.seal()._asdict(),
        )
        self.phases.append(phase)
        self._mark = now
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.on_phase_end(phase)
        return phase

    def has_open_phase(self) -> bool:
        """True if events were recorded after the last end_phase()."""
        now = self._snapshot()
        prev = self._mark
        if now["private"] != prev["private"]:
            return True
        for key in ("bank_line_accesses", "bank_atomics", "bank_remote_reqs",
                    "bank_near_ops", "core_ops", "core_serial_cycles"):
            if not np.array_equal(now[key], prev[key]):
                return True
        return self.traffic.has_open_traffic()

    def close(self) -> None:
        """Wrap any trailing events into a final phase."""
        if self.has_open_phase():
            self.end_phase("tail")
