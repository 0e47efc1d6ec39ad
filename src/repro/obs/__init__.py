"""Unified observability layer (DESIGN.md §10).

One instrumentation spine for the whole simulator:

* :mod:`repro.obs.tracer` — span-based tracing over *virtual time*
  (simulated cycles), attached per-machine behind the same
  clean-path-identical ``is-None`` guards as faults/relayout,
* :mod:`repro.obs.metrics` — each run's flat ``{key: value}`` metrics,
  read straight off the simulator's ledgers when the run ends,
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto),
  flat metrics JSON/CSV, trace validation and diffing,
* :mod:`repro.obs.cli` — the ``python -m repro trace`` subcommand.
"""

from repro.obs.tracer import (SPAN_CATEGORIES, TraceConfig, TraceSession,
                              TraceState, trace_session)

__all__ = ["SPAN_CATEGORIES", "TraceConfig", "TraceSession", "TraceState",
           "trace_session"]
