"""Typed metrics registry: counters, gauges, histograms with label sets.

The registry is the *single sink* the legacy per-subsystem counters
(:class:`~repro.arch.noc.TrafficAccountant`,
:class:`~repro.core.runtime.AllocStats`, the executor's stream-locality
counters, :class:`~repro.relayout.engine.RelayoutState`,
:class:`~repro.faults.injector.FaultState`) publish into.

Exactness contract (DESIGN.md §10): publication *copies* the
authoritative legacy value — ``set_total`` overwrites rather than
increments — so every registry value equals the legacy counter it
mirrors, bit for bit, and re-publication is idempotent.  The legacy
counters stay the source of truth; the registry is a read-side view.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "Metric", "MetricsRegistry",
           "DEFAULT_BUCKETS", "publish_alloc_stats", "publish_fault_state",
           "publish_relayout_state", "publish_run"]

LabelSet = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (simulated cycles).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)


def _labelset(labels: Dict[str, object]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_key(name: str, labels: LabelSet) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Metric:
    """Base: a named, labeled time series (one sample in this simulator)."""

    kind = "metric"

    def __init__(self, name: str, labels: LabelSet, help: str = ""):
        self.name = name
        self.labels = labels
        self.help = help

    @property
    def key(self) -> str:
        return _render_key(self.name, self.labels)

    def flat_items(self) -> Iterator[Tuple[str, float]]:
        raise NotImplementedError


class Counter(Metric):
    """Monotonic count.  ``inc`` for organic use; ``set_total`` for
    mirror publication of an authoritative legacy counter."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelSet, help: str = ""):
        super().__init__(name, labels, help)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.key} cannot decrease")
        self.value += amount

    def set_total(self, value: float) -> None:
        """Overwrite with the legacy counter's exact current value."""
        self.value = float(value)

    def flat_items(self) -> Iterator[Tuple[str, float]]:
        yield self.key, self.value


class Gauge(Metric):
    """Point-in-time value (may go up or down)."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelSet, help: str = ""):
        super().__init__(name, labels, help)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def flat_items(self) -> Iterator[Tuple[str, float]]:
        yield self.key, self.value


class Histogram(Metric):
    """Cumulative-bucket histogram (Prometheus-style ``le`` buckets)."""

    kind = "histogram"

    def __init__(self, name: str, labels: LabelSet, help: str = "",
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        super().__init__(name, labels, help)
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # +inf last
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
        self.bucket_counts[-1] += 1

    def flat_items(self) -> Iterator[Tuple[str, float]]:
        yield _render_key(self.name + "_count", self.labels), float(self.count)
        yield _render_key(self.name + "_sum", self.labels), self.sum
        for bound, n in zip(self.buckets, self.bucket_counts):
            labels = self.labels + (("le", f"{bound:g}"),)
            yield _render_key(self.name + "_bucket", labels), float(n)
        labels = self.labels + (("le", "+Inf"),)
        yield _render_key(self.name + "_bucket", labels), float(self.bucket_counts[-1])


class MetricsRegistry:
    """Get-or-create store of typed metrics, keyed by (name, labels)."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelSet], Metric] = {}

    # -- get-or-create -------------------------------------------------
    def _get(self, cls: type, name: str, help: str,
             labels: Dict[str, object], **extra: object) -> Metric:
        key = (name, _labelset(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], help=help, **extra)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested as {cls.__name__.lower()}")
        return metric

    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        metric = self._get(Counter, name, help, labels)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        metric = self._get(Gauge, name, help, labels)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, help: str = "",
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels: object) -> Histogram:
        metric = self._get(Histogram, name, help, labels, buckets=buckets)
        assert isinstance(metric, Histogram)
        return metric

    # -- reads ---------------------------------------------------------
    def get(self, name: str, **labels: object) -> Optional[Metric]:
        return self._metrics.get((name, _labelset(labels)))

    def value(self, name: str, **labels: object) -> float:
        """Scalar value of a counter/gauge; 0.0 if never published."""
        metric = self.get(name, **labels)
        if metric is None:
            return 0.0
        if isinstance(metric, (Counter, Gauge)):
            return metric.value
        raise TypeError(f"metric {name!r} is a {metric.kind}, not scalar")

    def metrics(self) -> List[Metric]:
        return [self._metrics[k] for k in sorted(self._metrics)]

    def as_dict(self) -> Dict[str, float]:
        """Flat ``{rendered_key: value}`` dump, deterministically ordered."""
        out: Dict[str, float] = {}
        for metric in self.metrics():
            for key, value in metric.flat_items():
                out[key] = value
        return out


# ----------------------------------------------------------------------
# Publication: copy the legacy counters into a registry.
#
# Every value below is read straight off the authoritative object — no
# recomputation — so registry == legacy holds exactly (and is pinned by
# tests/test_obs_metrics.py).
# ----------------------------------------------------------------------
def publish_run(reg: MetricsRegistry, result: object,
                recorder: object) -> None:
    """Mirror one finished run (its RunResult + RunRecorder) into *reg*."""
    from repro.arch.noc import MessageClass

    cycles = getattr(result, "cycles", 0.0)
    reg.gauge("run_cycles", "modeled run time (cycles)").set(cycles)
    reg.gauge("run_energy_pj", "modeled energy").set(
        getattr(result, "energy_pj", 0.0))
    reg.gauge("l3_miss_pct").set(getattr(result, "l3_miss_pct", 0.0))
    reg.gauge("noc_utilization").set(getattr(result, "noc_utilization", 0.0))

    counters: Dict[str, float] = dict(getattr(result, "counters", {}))
    for key in sorted(counters):
        reg.counter(key, "mirror of RunResult.counters").set_total(counters[key])

    hops: Dict[str, float] = dict(getattr(result, "flit_hops_by_class", {}))
    for cls in sorted(hops):
        reg.counter("flit_hops", cls=cls).set_total(hops[cls])

    traffic = getattr(recorder, "traffic", None)
    if traffic is not None:
        for mcls in MessageClass:
            reg.counter("noc_messages", cls=mcls.value).set_total(
                traffic.message_count(mcls))
            reg.counter("noc_flits", cls=mcls.value).set_total(
                traffic.total_flits(mcls))
        reg.gauge("noc_max_link_load").set(traffic.max_link_load())
        reg.gauge("noc_mean_link_load").set(traffic.mean_link_load())

    for attr, name in (("bank_line_accesses", "bank_line_accesses"),
                       ("bank_atomics", "bank_atomics"),
                       ("bank_remote_reqs", "bank_remote_reqs"),
                       ("bank_near_ops", "bank_near_ops")):
        arr = getattr(recorder, attr, None)
        if arr is None:
            continue
        for i in range(len(arr)):
            if arr[i] != 0.0:
                reg.counter(name, bank=i).set_total(float(arr[i]))
    for attr, name in (("core_ops", "core_ops_per_core"),
                       ("core_serial_cycles", "core_serial_cycles")):
        arr = getattr(recorder, attr, None)
        if arr is None:
            continue
        for i in range(len(arr)):
            if arr[i] != 0.0:
                reg.counter(name, core=i).set_total(float(arr[i]))
    reg.counter("private_line_accesses").set_total(
        getattr(recorder, "private_line_accesses", 0.0))

    hist = reg.histogram("phase_cycles", "per-phase modeled cycles")
    for _label, c in getattr(result, "phase_cycles", []):
        hist.observe(c)
    reg.gauge("phases").set(float(len(getattr(result, "phase_cycles", []))))


def publish_alloc_stats(reg: MetricsRegistry, stats: object) -> None:
    """Mirror every AllocStats field as ``alloc_<field>``."""
    for f in dataclasses.fields(stats):  # type: ignore[arg-type]
        reg.counter(f"alloc_{f.name}", "mirror of AllocStats").set_total(
            float(getattr(stats, f.name)))


def publish_fault_state(reg: MetricsRegistry, faults: object) -> None:
    """Mirror a FaultState's degradation counters."""
    healthy = getattr(faults, "healthy", None)
    if healthy is not None:
        reg.gauge("fault_failed_banks").set(
            float(sum(1 for h in healthy if not h)))
    reg.counter("fault_retries").set_total(
        float(getattr(faults, "retries", 0)))
    reg.counter("fault_host_fallbacks").set_total(
        float(getattr(faults, "host_fallbacks", 0)))
    reg.counter("fault_armed_alloc_ordinals").set_total(
        float(len(getattr(faults, "alloc_fail_ordinals", ()))))


def publish_relayout_state(reg: MetricsRegistry, state: object) -> None:
    """Mirror a RelayoutState's migration record."""
    groups: Dict[Tuple[str, bool], Tuple[float, float]] = {}
    for mig in getattr(state, "records", []):
        key = (mig.kind.value, bool(mig.applied))
        n, moved = groups.get(key, (0.0, 0.0))
        groups[key] = (n + 1.0, moved + float(mig.moved_bytes))
    for (kind, applied) in sorted(groups):
        n, moved = groups[(kind, applied)]
        reg.counter("relayout_migrations", kind=kind,
                    applied=str(applied).lower()).set_total(n)
        if applied:
            reg.counter("relayout_moved_bytes", kind=kind).set_total(moved)
    reg.gauge("relayout_epochs").set(
        float(getattr(state, "epoch_index", 0)))
    reg.counter("relayout_applied_total").set_total(
        float(getattr(state, "total_applied", 0)))
