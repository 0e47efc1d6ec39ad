"""Deterministic fault injection + graceful degradation (chaos layer).

The subsystem has three parts, and one consumer:

* :mod:`repro.faults.plan` — typed, seeded :class:`FaultPlan` (what to
  break and when).
* :mod:`repro.faults.log` — the typed :class:`FaultEventLog` every
  injected/handled fault is recorded into (replayable by tests and
  afflint).
* :mod:`repro.faults.injector` — the active :class:`FaultSession` /
  per-machine :class:`FaultState` that applies the plan and drives each
  layer's degradation path.
* the ``python -m repro chaos`` preset in :mod:`repro.harness.arms`,
  which runs clean-vs-faulted arm pairs and emits the degradation report.

Everything is gated so that *no* active fault session means the simulator
executes the exact original instruction stream — clean runs stay
byte-identical to a tree without this package.
"""

from repro.faults.log import FaultEventLog, FaultRecord
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.faults.injector import FaultSession, FaultState, fault_session

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultPlan",
    "FaultRecord",
    "FaultEventLog",
    "FaultSession",
    "FaultState",
    "fault_session",
]
