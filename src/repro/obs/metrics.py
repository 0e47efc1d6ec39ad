"""Flat run metrics: one ``{rendered_key: value}`` mapping per run.

The simulator's ledgers — :class:`~repro.perf.model.RunResult`, the
:class:`~repro.perf.stats.RunRecorder`, and the machine's
:class:`~repro.faults.injector.FaultState`,
:class:`~repro.relayout.engine.RelayoutState` and
:class:`~repro.core.runtime.AllocStats` — are the source of truth.
:func:`run_metrics` reads each value straight off them when a run ends
and files it under ``name`` or ``name{k=v,...}`` (labels sorted by
name).  Nothing is recomputed, so every entry equals the ledger value it
names, bit for bit (DESIGN.md §10).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Tuple

import numpy as np

from repro.arch.noc import MessageClass

__all__ = ["PHASE_CYCLE_BUCKETS", "alloc_metrics", "metric_key",
           "run_metrics"]

#: Upper bounds (simulated cycles) of the cumulative
#: ``phase_cycles_bucket{le=...}`` series; ``+Inf`` follows them.
PHASE_CYCLE_BUCKETS: Tuple[float, ...] = (
    1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)


def metric_key(name: str, **labels: object) -> str:
    """``name``, or ``name{k=v,...}`` with the labels in sorted order."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def alloc_metrics(stats: Any) -> Dict[str, float]:
    """Every :class:`~repro.core.runtime.AllocStats` field as
    ``alloc_<field>``."""
    return {f"alloc_{f.name}": float(getattr(stats, f.name))
            for f in dataclasses.fields(stats)}


def run_metrics(result: Any, recorder: Any, machine: Any,
                alloc_stats: Any = None, dropped: int = 0) -> Dict[str, float]:
    """The metrics of one finished run, sorted by key.

    ``result`` and ``recorder`` are the run's RunResult and RunRecorder;
    the machine contributes its fault and relayout state when those
    sessions are attached.  ``alloc_stats`` adds the ``alloc_*`` keys,
    and ``trace_dropped_events`` appears only when ``dropped`` > 0.
    """
    m: Dict[str, float] = {
        "run_cycles": float(result.cycles),
        "run_energy_pj": float(result.energy_pj),
        "l3_miss_pct": float(result.l3_miss_pct),
        "noc_utilization": float(result.noc_utilization),
    }
    for key, value in result.counters.items():
        m[key] = float(value)
    for cls, hops in result.flit_hops_by_class.items():
        m[metric_key("flit_hops", cls=cls)] = float(hops)

    traffic = recorder.traffic
    for mcls in MessageClass:
        m[metric_key("noc_messages", cls=mcls.value)] = float(
            traffic.message_count(mcls))
        m[metric_key("noc_flits", cls=mcls.value)] = float(
            traffic.total_flits(mcls))
    m["noc_max_link_load"] = float(traffic.max_link_load())
    m["noc_mean_link_load"] = float(traffic.mean_link_load())

    for name, label, arr in (
            ("bank_line_accesses", "bank", recorder.bank_line_accesses),
            ("bank_atomics", "bank", recorder.bank_atomics),
            ("bank_remote_reqs", "bank", recorder.bank_remote_reqs),
            ("bank_near_ops", "bank", recorder.bank_near_ops),
            ("core_ops_per_core", "core", recorder.core_ops),
            ("core_serial_cycles", "core", recorder.core_serial_cycles)):
        for i in np.flatnonzero(arr).tolist():
            m[metric_key(name, **{label: i})] = float(arr[i])
    m["private_line_accesses"] = float(recorder.private_line_accesses)

    cycles = [float(c) for _, c in result.phase_cycles]
    total = 0.0
    for c in cycles:  # in phase order, as the run summed them
        total += c
    m["phase_cycles_count"] = float(len(cycles))
    m["phase_cycles_sum"] = total
    for bound in PHASE_CYCLE_BUCKETS:
        m[metric_key("phase_cycles_bucket", le=f"{bound:g}")] = float(
            sum(1 for c in cycles if c <= bound))
    m[metric_key("phase_cycles_bucket", le="+Inf")] = float(len(cycles))
    m["phases"] = float(len(cycles))

    faults = machine.faults
    if faults is not None:
        m["fault_failed_banks"] = float(np.count_nonzero(~faults.healthy))
        m["fault_retries"] = float(faults.retries)
        m["fault_host_fallbacks"] = float(faults.host_fallbacks)
        m["fault_armed_alloc_ordinals"] = float(
            len(faults.alloc_fail_ordinals))

    relayout = machine.relayout
    if relayout is not None:
        for mig in relayout.records:
            kind = mig.kind.value
            key = metric_key("relayout_migrations", kind=kind,
                             applied=str(bool(mig.applied)).lower())
            m[key] = m.get(key, 0.0) + 1.0
            if mig.applied:
                key = metric_key("relayout_moved_bytes", kind=kind)
                m[key] = m.get(key, 0.0) + float(mig.moved_bytes)
        m["relayout_epochs"] = float(relayout.epoch_index)
        m["relayout_applied_total"] = float(relayout.total_applied)

    if alloc_stats is not None:
        m.update(alloc_metrics(alloc_stats))
    if dropped:
        m["trace_dropped_events"] = float(dropped)
    return dict(sorted(m.items()))
