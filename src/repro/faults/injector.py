"""The fault injector: applies a plan to a machine and drives degradation.

Lifecycle:

1. Inside ``with fault_session(plan, log, task=...)`` (the shared
   session protocol, :mod:`repro.session`), ``make_context`` attaches a
   :class:`FaultState` to every new machine (``machine.faults``).
2. Boot-phase events apply immediately at attach (pool caps, armed alloc
   ordinals, ``phase="boot"`` bank/link failures).  Run-phase bank/link
   failures are deferred until the executor issues its first primitive
   (:meth:`FaultState.activate_run_phase`), so the allocator has already
   placed data on the soon-to-fail resources and the re-home / reroute /
   retry machinery is genuinely exercised.
3. Every layer consults ``machine.faults`` through cheap ``is None``
   guards; with no session the simulator executes the exact original
   instruction stream (clean runs stay byte-identical).

Everything the injector does or observes lands in the session's
:class:`~repro.faults.log.FaultEventLog`, in plan order, so same-seed
runs produce identical logs (a property the chaos suite pins).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    ContextManager,
    List,
    Optional,
    Sequence,
    Set,
    Union,
)

import numpy as np

from repro.analysis.diagnostics import TopologyError
from repro.faults.log import FaultEventLog, FaultRecord
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.session import Session, scoped

if TYPE_CHECKING:
    from repro.machine import Machine
    from repro.perf.stats import RunRecorder

__all__ = ["FaultState", "FaultSession", "fault_session"]


class FaultState:
    """Per-machine fault state: healthy mask, armed events, degradation
    bookkeeping.  Created by :meth:`FaultSession.attach`; reachable from
    every layer as ``machine.faults``."""

    #: Bounded exponential backoff charged (serial cycles, all cores)
    #: each time an offloaded stream must retry or abandon an offload.
    RETRY_BACKOFF_CYCLES = (64.0, 128.0, 256.0)

    def __init__(self, plan: FaultPlan, log: FaultEventLog,
                 machine: Machine, task: str = "") -> None:
        self.plan = plan
        self.log = log
        self.task = task
        self.healthy = np.ones(machine.num_banks, dtype=bool)
        #: Allocation ordinals armed to fail (ALLOC_FAIL events).
        self.alloc_fail_ordinals: Set[int] = set()
        self._alloc_seq = 0
        #: Re-homed banks whose first offloaded touch still owes a
        #: retry-storm charge (run-phase BANK_FAIL with rehome).
        self.pending_touch: Set[int] = set()
        #: Failed banks with no re-home: offloads touching them fall
        #: back to host execution.
        self.no_rehome: Set[int] = set()
        self._run_events: List[FaultEvent] = []
        self._run_applied = False
        self._machine = machine
        # Degradation counters surfaced in the chaos report.
        self.retries = 0
        self.host_fallbacks = 0
        self._apply_boot(machine)

    # ------------------------------------------------------------------
    def _rec(self, kind: Union[FaultKind, str], target: object,
             action: str, detail: str = "", count: float = 0.0) -> None:
        kind_str = kind.value if isinstance(kind, FaultKind) else str(kind)
        self.log.add(FaultRecord(task=self.task, kind=kind_str,
                                 target=str(target), action=action,
                                 detail=detail, count=count))
        tracer = self._machine.tracer
        if tracer is not None:
            # Retries get their own category in the span taxonomy; every
            # other record is a generic fault event.
            cat = "retry" if action == "retry" else "fault"
            tracer.instant(action, cat,
                           {"kind": kind_str, "target": str(target),
                            "detail": detail, "count": count})

    def note(self, kind: Union[FaultKind, str], target: object,
             action: str, detail: str = "", count: float = 0.0) -> None:
        """Public hook for other layers (runtime, executor) to log how
        they handled a fault."""
        self._rec(kind, target, action, detail, count)

    # ------------------------------------------------------------------
    # Plan application
    # ------------------------------------------------------------------
    def _apply_boot(self, machine: Machine) -> None:
        for ev in self.plan.events:
            if ev.kind is FaultKind.POOL_EXHAUST:
                if machine.pools.has_pool(ev.target):
                    machine.pools.pool(ev.target).max_expansions = ev.param
                    self._rec(ev.kind, ev.target, "injected",
                              f"expansion cap {ev.param}")
                else:
                    self._rec(ev.kind, ev.target, "skipped", "no such pool")
            elif ev.kind is FaultKind.ALLOC_FAIL:
                self.alloc_fail_ordinals.add(ev.target)
                self._rec(ev.kind, ev.target, "injected",
                          "armed for allocation ordinal")
            elif ev.kind is FaultKind.BANK_FAIL:
                if ev.phase == "boot":
                    self._fail_bank(machine, ev, run_phase=False)
                else:
                    self._run_events.append(ev)
                    self._rec(ev.kind, ev.target, "injected",
                              "armed; fires when streaming starts")
            elif ev.kind is FaultKind.LINK_FAIL:
                if ev.phase == "boot":
                    self._fail_link(machine, ev)
                else:
                    self._run_events.append(ev)
                    self._rec(ev.kind, f"{ev.target}-{ev.param}", "injected",
                              "armed; fires when streaming starts")
            # WORKER_CRASH is consumed by the harness, never per-machine.

    def activate_run_phase(self, machine: Machine) -> None:
        """Fire armed run-phase events; idempotent, called by the executor
        at the top of every primitive (first call wins)."""
        if self._run_applied:
            return
        self._run_applied = True
        for ev in self._run_events:
            if ev.kind is FaultKind.BANK_FAIL:
                self._fail_bank(machine, ev, run_phase=True)
            else:
                self._fail_link(machine, ev)

    # ------------------------------------------------------------------
    def _fail_bank(self, machine: Machine, ev: FaultEvent,
                   run_phase: bool) -> None:
        bank = ev.target
        if bank >= self.healthy.size:
            self._rec(ev.kind, bank, "skipped", "no such bank")
            return
        if not self.healthy[bank]:
            self._rec(ev.kind, bank, "skipped", "bank already failed")
            return
        self.healthy[bank] = False
        if not self.healthy.any():
            self.healthy[bank] = True
            self._rec(ev.kind, bank, "unhandled",
                      "would fail the last healthy bank")
            return
        if ev.rehome:
            cand = np.flatnonzero(self.healthy)
            hops = machine.mesh.hops(
                np.full(cand.size, bank, dtype=np.int64), cand)
            repl = int(cand[int(np.argmin(hops))])  # lowest id on ties
            moved = machine.llc.rehome_bank(bank, repl)
            if run_phase:
                self.pending_touch.add(bank)
            self._rec(ev.kind, bank, "rehomed",
                      f"IOT remap bank {bank} -> bank {repl}", count=moved)
        else:
            self.no_rehome.add(bank)
            self._rec(ev.kind, bank, "injected",
                      "no re-home; offloads touching it fall back to host")

    def _fail_link(self, machine: Machine, ev: FaultEvent) -> None:
        a, b = ev.target, ev.param
        label = f"{a}-{b}"
        try:
            machine.mesh.remove_link_between(a, b)
        except TopologyError as exc:
            self._rec(ev.kind, label, "skipped", str(exc))
            return
        self._rec(ev.kind, label, "rerouted",
                  f"link removed; topology epoch "
                  f"{machine.mesh.topology_epoch}")

    # ------------------------------------------------------------------
    # Allocator hooks
    # ------------------------------------------------------------------
    def take_alloc_fault(self) -> Optional[int]:
        """Advance the allocation ordinal; return it if armed to fail."""
        seq = self._alloc_seq
        self._alloc_seq += 1
        return seq if seq in self.alloc_fail_ordinals else None

    @property
    def any_failed(self) -> bool:
        return not bool(self.healthy.all())

    def policy_mask(self) -> Optional[np.ndarray]:
        """Healthy-bank mask for bank-select policies (None when all
        healthy, which keeps the policy on its original scoring path)."""
        return self.healthy if self.any_failed else None

    # ------------------------------------------------------------------
    # Executor hooks
    # ------------------------------------------------------------------
    def _charge_backoff(self, recorder: RunRecorder,
                        num_cores: int) -> float:
        cycles = float(sum(self.RETRY_BACKOFF_CYCLES))
        recorder.add_serial_cycles(np.arange(num_cores), cycles)
        self.retries += len(self.RETRY_BACKOFF_CYCLES)
        return cycles

    def check_first_touch(self, raw_banks: np.ndarray,
                          recorder: RunRecorder, num_cores: int) -> None:
        """Charge the retry storm the first time an offloaded stream
        touches each re-homed bank (``raw_banks`` is the pre-remap
        mapping, so failed banks are still visible here)."""
        if not self.pending_touch:
            return
        present = set(int(b) for b in np.unique(raw_banks).tolist())
        for bank in sorted(self.pending_touch & present):
            self.pending_touch.discard(bank)
            cycles = self._charge_backoff(recorder, num_cores)
            self._rec(FaultKind.BANK_FAIL, bank, "retry",
                      f"{len(self.RETRY_BACKOFF_CYCLES)} offload retries "
                      f"({cycles:.0f} backoff cycles), re-issued to the "
                      f"re-homed bank", count=cycles)

    def blocks_offload(self, banks_arrays: Sequence[Optional[np.ndarray]],
                       recorder: RunRecorder, num_cores: int) -> bool:
        """True if any stream operand lives on a failed, non-re-homed
        bank: the offload is retried (bounded backoff) then abandoned,
        and the caller must run the primitive on the host cores."""
        if not self.no_rehome:
            return False
        dead = np.fromiter(sorted(self.no_rehome), dtype=np.int64)
        for banks in banks_arrays:
            if banks is None:
                continue
            banks = np.asarray(banks)
            if banks.size == 0:
                continue
            hit = np.isin(banks, dead)
            if hit.any():
                bank = int(np.asarray(banks)[hit].min())
                cycles = self._charge_backoff(recorder, num_cores)
                self.host_fallbacks += 1
                self._rec(FaultKind.BANK_FAIL, bank, "host-fallback",
                          f"offload retries exhausted ({cycles:.0f} backoff "
                          f"cycles); stream ran on host cores", count=cycles)
                return True
        return False

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Log armed faults that never fired (CHS003 on replay)."""
        for o in sorted(self.alloc_fail_ordinals):
            if o >= self._alloc_seq:
                self._rec(FaultKind.ALLOC_FAIL, o, "not-triggered",
                          f"only {self._alloc_seq} allocations issued")
        for bank in sorted(self.pending_touch):
            self._rec(FaultKind.BANK_FAIL, bank, "not-triggered",
                      "re-homed bank never touched by an offloaded stream")
        self.pending_touch.clear()
        for ev in self.plan.by_kind(FaultKind.POOL_EXHAUST):
            if not self._machine.pools.has_pool(ev.target):
                continue
            pool = self._machine.pools.pool(ev.target)
            if pool.expansions < ev.param:
                self._rec(ev.kind, ev.target, "not-triggered",
                          f"pool issued {pool.expansions} expansion(s), "
                          f"never reached the cap of {ev.param}")


class FaultSession(Session):
    """One plan + log, attachable to any number of machines (a chaos task
    may build several contexts; they share the log).  Always active: an
    empty plan still attaches a (healthy) :class:`FaultState`."""

    slot = "faults"
    state_cls = FaultState

    def __init__(self, plan: FaultPlan, log: Optional[FaultEventLog] = None,
                 task: str = "") -> None:
        super().__init__(plan, task)
        self.log = log if log is not None else FaultEventLog()

    @classmethod
    def is_active(cls, spec: object) -> bool:
        return True

    def new_state(self, machine: Machine) -> FaultState:
        return FaultState(self.spec, self.log, machine, self.task)

    def finalize(self) -> None:
        for state in self.states:
            state.finalize()


def fault_session(plan: FaultPlan, log: Optional[FaultEventLog] = None,
                  task: str = "") -> ContextManager[FaultSession]:
    """Scope a fault session over the block (:mod:`repro.session`)."""
    return scoped(FaultSession(plan, log, task))
