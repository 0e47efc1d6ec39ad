"""The interference engine: charges a host-traffic plan into real runs.

Lifecycle (the shared session protocol, :mod:`repro.session`):

1. Inside ``with interfere_session(plan, task=...)``, ``make_context``
   attaches an :class:`InterferenceState` to every new machine
   (``machine.interference``).  Empty plans attach *nothing*: the clean
   path stays structurally identical, not merely numerically.
2. :meth:`~repro.perf.stats.RunRecorder.end_phase` consults
   ``machine.interference`` through a cheap ``is None`` guard and, when
   present, injects one host epoch of traffic *before* sealing the
   phase — so the injected messages land inside the phase the NDC work
   ran in and the perf model prices the contention into that phase's
   link/bank bottlenecks.
3. Injection charges go through the run's real
   :class:`~repro.arch.noc.TrafficAccountant` and bank counters with the
   executor's own message conventions (request/response/writeback), so
   slowdowns come from the same physics as NDC traffic — no synthetic
   penalty terms anywhere.

Bank-targeted streams pass through the IOT bank remap
(:meth:`~repro.arch.iot.InterleaveOverrideTable.remap_banks`): when chaos
retires a bank mid-run, the host's traffic follows the re-home exactly as
NDC traffic does.  The *plan-space* (pre-remap) tallies are kept
separately so the INT006 analysis check can verify the engine against the
pure :func:`~repro.interfere.plan.predict_host_injection` replay even
under fault composition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ContextManager, Dict, List, Optional

import numpy as np

from repro.arch.noc import MessageClass
from repro.interfere.plan import (
    HostStream,
    HostStreamKind,
    HostTrafficPlan,
    burst_multiplier,
)
from repro.session import Session, scoped

if TYPE_CHECKING:
    from repro.machine import Machine
    from repro.perf.stats import RunRecorder

__all__ = ["InterferenceState", "InterferenceSession", "interfere_session"]

#: Header-only host request payload (same figure the executor uses for
#: indirect requests).
_REQ_BYTES = 8
#: Payload of a DMA-style tile-to-tile host transfer (one cache line).
_LINK_BYTES = 64


class InterferenceState:
    """Per-machine interference state: the plan, the epoch cursor, and
    the injected-traffic ledger.  Created by
    :meth:`InterferenceSession.attach`; reachable as
    ``machine.interference``."""

    def __init__(self, plan: HostTrafficPlan, machine: "Machine",
                 task: str = "") -> None:
        self.plan = plan
        self.task = task
        self._machine = machine
        #: Host epochs injected so far (== NDC phases sealed so far).
        self.epoch_index = 0
        nb = machine.num_banks
        #: Post-remap bank accesses actually charged (what the perf model
        #: timed).
        self.injected_bank_accesses = np.zeros(nb, dtype=np.float64)
        #: Plan-space (pre-remap) bank accesses — the INT006 oracle space.
        self.injected_raw_accesses = np.zeros(nb, dtype=np.float64)
        self.injected_bank_atomics = np.zeros(nb, dtype=np.float64)
        self.injected_raw_atomics = np.zeros(nb, dtype=np.float64)
        #: Total host messages placed on the NoC.
        self.injected_messages = 0.0
        #: Per-epoch record: (phase label, messages this epoch).
        self.epochs: List[Dict[str, object]] = []
        self._line_bytes = machine.config.cache.line_bytes

    # ------------------------------------------------------------------
    def on_epoch(self, recorder: "RunRecorder", label: str) -> None:
        """Inject one host epoch of traffic into ``recorder``.

        Called from the top of ``RunRecorder.end_phase`` so the charges
        land inside the phase being sealed.  Streams are walked in plan
        order with a counted-loop RNG key (seed, stream, epoch), so the
        injected traffic is a pure function of the plan and the phase
        sequence — same seed, same traffic, byte for byte.
        """
        epoch = self.epoch_index
        self.epoch_index += 1
        before = self.injected_messages
        iot = self._machine.iot
        for idx, stream in enumerate(self.plan.streams):
            if not stream.active(epoch) or stream.intensity <= 0.0:
                continue
            n = stream.intensity * burst_multiplier(
                self.plan.seed, idx, epoch, stream.burst)
            self._inject_stream(recorder, iot, stream, n)
        self.epochs.append({"label": label,
                            "messages": self.injected_messages - before})

    def _inject_stream(self, recorder: "RunRecorder", iot, stream: HostStream,
                       n: float) -> None:
        raw = np.asarray(stream.targets, dtype=np.int64)
        per = n / raw.size
        tile = stream.tile
        kind = stream.kind
        if kind is HostStreamKind.LINK:
            # DMA-style transfer between tiles: payload data on the mesh,
            # no bank involvement.
            recorder.traffic.record(tile, raw, _LINK_BYTES,
                                    MessageClass.DATA, count=per)
            self.injected_messages += n
            return
        homed = iot.remap_banks(raw)
        if kind is HostStreamKind.ATOMIC:
            # Remote atomic: header-only request, executed at the bank.
            recorder.traffic.record(tile, homed, _REQ_BYTES,
                                    MessageClass.CONTROL, count=per)
            recorder.add_bank_atomics(homed, per)
            np.add.at(self.injected_raw_atomics, raw, per)
            np.add.at(self.injected_bank_atomics, homed, per)
            self.injected_messages += n
            return
        # READ: request up, line back, one bank access.
        recorder.traffic.record(tile, homed, 0,
                                MessageClass.CONTROL, count=per)
        recorder.traffic.record(homed, tile, self._line_bytes,
                                MessageClass.DATA, count=per)
        recorder.add_bank_accesses(homed, per)
        np.add.at(self.injected_raw_accesses, raw, per)
        np.add.at(self.injected_bank_accesses, homed, per)
        self.injected_messages += 2.0 * n
        if kind is HostStreamKind.WRITE:
            # WRITE = read-for-ownership + dirty writeback: one more DATA
            # message to the bank and a second bank access.
            recorder.traffic.record(tile, homed, self._line_bytes,
                                    MessageClass.DATA, count=per)
            recorder.add_bank_accesses(homed, per)
            np.add.at(self.injected_raw_accesses, raw, per)
            np.add.at(self.injected_bank_accesses, homed, per)
            self.injected_messages += n

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        return {
            "epochs": float(self.epoch_index),
            "messages": float(self.injected_messages),
            "bank_accesses": float(self.injected_bank_accesses.sum()),
            "bank_atomics": float(self.injected_bank_atomics.sum()),
        }


class InterferenceSession(Session):
    """One plan, attachable to any number of machines (an intensity sweep
    builds several contexts; each gets its own state).

    Empty plans are inactive: ``machine.interference`` stays None and
    the run is *structurally* identical to an uncontended one — the
    byte-identity property the tests pin falls out of this, not out of
    arithmetic with zeros.
    """

    slot = "interference"
    state_cls = InterferenceState

    @classmethod
    def is_active(cls, spec: Optional[HostTrafficPlan]) -> bool:
        return spec is not None and not spec.is_empty

    def new_state(self, machine: "Machine") -> InterferenceState:
        return InterferenceState(self.spec, machine, self.task)


def interfere_session(plan: HostTrafficPlan, task: str = ""
                      ) -> ContextManager[InterferenceSession]:
    """Scope an interference session over the block
    (:mod:`repro.session`); an empty plan attaches nothing."""
    return scoped(InterferenceSession(plan, task))
