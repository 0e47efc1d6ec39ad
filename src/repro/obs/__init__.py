"""Unified observability layer (DESIGN.md §10).

One instrumentation spine for the whole simulator:

* :mod:`repro.obs.tracer` — span-based tracing over *virtual time*
  (simulated cycles), attached per-machine behind the same
  clean-path-identical ``is-None`` guards as faults/relayout,
* :mod:`repro.obs.metrics` — a typed metrics registry (counters,
  gauges, histograms with label sets) that mirrors the legacy
  per-subsystem counters exactly,
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto),
  flat metrics JSON/CSV, trace validation and diffing,
* :mod:`repro.obs.cli` — the ``python -m repro trace`` subcommand.
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import (SPAN_CATEGORIES, TraceConfig, TraceSession,
                              TraceState, trace_session)

__all__ = ["MetricsRegistry", "SPAN_CATEGORIES", "TraceConfig",
           "TraceSession", "TraceState", "trace_session"]
