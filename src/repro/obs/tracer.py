"""Span-based tracer over *virtual time* (DESIGN.md §10).

The simulator has no global clock — phase durations come out of the
analytic :class:`~repro.perf.model.PerfModel` only when a run finishes.
The tracer therefore records events *positionally* during the run (which
phase they fell in, in what order) and resolves them onto the cycle axis
at run end, when the per-phase cycle counts exist:

* the run is one root span ``[0, sum(phase_cycles))``,
* each recorded phase is a child span at its cumulative offset,
* instants (allocations, offloaded streams, migrations, faults,
  retries) are placed inside their phase, evenly spaced in record
  order — deterministic, and faithful to ordering if not to exact
  sub-phase timing (which the model does not define).

``trace_session(cfg)`` follows the shared session protocol
(:mod:`repro.session`): ``make_context`` attaches it to each new machine
(``machine.tracer``); ``cfg=None`` is an explicit *off* session.  Every
hook in the simulator is gated on ``machine.tracer is None``, so
untraced runs execute the exact original instruction stream and stay
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ContextManager, Dict, List, Optional, Tuple

from repro.obs.metrics import alloc_metrics, run_metrics
from repro.perf.model import bank_busy
from repro.serial import Serial, checked, non_negative
from repro.session import Session, scoped

__all__ = ["SPAN_CATEGORIES", "TraceConfig", "TraceEvent", "TraceSession",
           "TraceState", "trace_session"]

#: The span/instant taxonomy (DESIGN.md §10).
SPAN_CATEGORIES: Tuple[str, ...] = (
    "run", "phase", "alloc", "stream", "migration", "fault", "retry")


@dataclass(frozen=True)
class TraceConfig(Serial):
    """Tracing knobs; frozen so it can key the artifact cache."""

    #: Attach instant arguments (bank ids, sizes, ...) to events.
    include_args: bool = True
    #: Hard cap on buffered instants per machine; overflow is counted,
    #: never raised (tracing must not perturb the run).
    max_events: int = checked(non_negative, default=200_000)


@dataclass
class TraceEvent:
    """One buffered instant, positioned by (phase_index, seq)."""

    name: str
    cat: str
    phase_index: int
    seq: int
    args: Dict[str, Any] = field(default_factory=dict)


class TraceState:
    """Per-machine tracing state; reachable as ``machine.tracer``.

    Created by :meth:`TraceSession.attach`.  Buffers instants during the
    run, snapshots per-phase counter totals at each ``end_phase``, and
    resolves everything onto the virtual-time axis at run end.
    """

    def __init__(self, machine: Any, cfg: TraceConfig, task: str = ""):
        self.machine = machine
        self.cfg = cfg
        self.task = task
        self.events: List[TraceEvent] = []
        self.dropped = 0
        #: Per-phase metadata captured at ``end_phase`` time:
        #: ``{"label": ..., "counters": {...}}`` in phase order.
        self.phase_meta: List[Dict[str, Any]] = []
        #: Run summaries captured at ``PerfModel.evaluate`` time.
        self.runs: List[Dict[str, Any]] = []
        #: Flat ``{key: value}`` metrics of the last run
        #: (:func:`~repro.obs.metrics.run_metrics`); rebuilt at each
        #: ``on_run_end``, its ``alloc_*`` keys updated by ``on_alloc_stats``.
        self.metrics: Dict[str, float] = {}
        self._alloc_stats: Optional[Any] = None
        #: Channel-load / bank-heat snapshots for ``repro trace --top``.
        self.channel_loads: List[float] = []
        self.bank_busy: List[float] = []
        self._seq = 0

    # ------------------------------------------------------------------
    # Hot-path hook (every call site is gated on ``tracer is None``)
    # ------------------------------------------------------------------
    def instant(self, name: str, cat: str,
                args: Optional[Dict[str, Any]] = None) -> None:
        """Buffer one instant event in the currently open phase."""
        if len(self.events) >= self.cfg.max_events:
            self.dropped += 1
            return
        ev_args = dict(args) if (args and self.cfg.include_args) else {}
        self.events.append(TraceEvent(name, cat, len(self.phase_meta),
                                      self._seq, ev_args))
        self._seq += 1

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def on_phase_end(self, phase: Any) -> None:
        """Called by :meth:`RunRecorder.end_phase` with the sealed phase."""
        counters = {
            "flits": float(phase.total_flits()),
            "bank_line_accesses": float(phase.bank_line_accesses.sum()),
            "bank_atomics": float(phase.bank_atomics.sum()),
            "bank_near_ops": float(phase.bank_near_ops.sum()),
            "core_ops": float(phase.core_ops.sum()),
        }
        self.phase_meta.append({"label": phase.label, "counters": counters})

    def on_run_end(self, result: Any, recorder: Any) -> None:
        """Called at the end of :meth:`PerfModel.evaluate`."""
        self.runs.append({
            "label": result.label,
            "cycles": float(result.cycles),
            "phase_cycles": [(str(lbl), float(c))
                             for lbl, c in result.phase_cycles],
            "phase_resources": [
                (str(lbl), {k: float(v) for k, v in res.items()})
                for lbl, res in result.phase_resources],
        })
        self.metrics = run_metrics(result, recorder, self.machine,
                                   self._alloc_stats, self.dropped)
        # --top snapshots: full channel loads + per-bank busy cycles.
        self.channel_loads = [float(x) for x in recorder.traffic.link_loads()]
        self.bank_busy = [float(x) for x in
                          bank_busy(recorder, self.machine.config.perf)]

    def on_alloc_stats(self, stats: Any) -> None:
        """Called by :meth:`RunContext.finish` after evaluate."""
        self._alloc_stats = stats
        self.metrics = dict(sorted(
            {**self.metrics, **alloc_metrics(stats)}.items()))

    # ------------------------------------------------------------------
    # Virtual-time resolution
    # ------------------------------------------------------------------
    def resolved_events(self) -> List[Dict[str, Any]]:
        """Resolve spans + instants onto the cycle axis (deterministic).

        Returns plain dicts: ``{"type": "span"|"instant"|"counter",
        "name", "cat", "ts", ...}`` with ``ts``/``dur`` in cycles.
        Phases with no model timing (run never finished) get unit width.
        """
        durations: Dict[int, float] = {}
        if self.runs:
            for i, (_lbl, c) in enumerate(self.runs[-1]["phase_cycles"]):
                durations[i] = float(c)
        starts: List[float] = []
        t = 0.0
        for i in range(len(self.phase_meta)):
            starts.append(t)
            t += durations.get(i, 1.0)
        total = t

        out: List[Dict[str, Any]] = []
        run_label = (self.runs[-1]["label"] if self.runs
                     else (self.task or "run"))
        out.append({"type": "span", "name": run_label, "cat": "run",
                    "ts": 0.0, "dur": total, "args": {"task": self.task}})
        for i, meta in enumerate(self.phase_meta):
            dur = durations.get(i, 1.0)
            out.append({"type": "span", "name": str(meta["label"]),
                        "cat": "phase", "ts": starts[i], "dur": dur,
                        "args": {}})
            for cname in sorted(meta["counters"]):
                out.append({"type": "counter", "name": cname,
                            "ts": starts[i] + dur,
                            "value": float(meta["counters"][cname])})

        per_phase: Dict[int, List[TraceEvent]] = {}
        for ev in self.events:
            per_phase.setdefault(ev.phase_index, []).append(ev)
        for pidx in sorted(per_phase):
            evs = per_phase[pidx]
            if pidx < len(self.phase_meta):
                base, dur = starts[pidx], durations.get(pidx, 1.0)
            else:  # recorded after the final seal: park past the end
                base, dur = total, 1.0
            width = max(dur, 1.0)
            m = len(evs)
            for j, ev in enumerate(evs):
                out.append({"type": "instant", "name": ev.name,
                            "cat": ev.cat,
                            "ts": base + width * (j + 1) / (m + 1),
                            "args": dict(ev.args)})
        return out


class TraceSession(Session):
    """One traced scope: config + every machine state it attached."""

    slot = "tracer"
    state_cls = TraceState


def trace_session(cfg: Optional[TraceConfig],
                  task: str = "") -> ContextManager[TraceSession]:
    """Scope a trace session over the block (:mod:`repro.session`);
    ``cfg=None`` turns tracing off even inside an outer session."""
    return scoped(TraceSession(cfg, task))
