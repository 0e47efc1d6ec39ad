"""Cross-plan (multi-tenant) interference analysis (``INT0xx``).

The single-plan linter answers "is this layout plan sound in isolation?".
Production allocation is concurrent: many tenants submit plans against
*one* machine's pools, IOT, and banks, and the failure modes that matter
— CHoNDA-style concurrent-host contention, CODA-style co-location
conflicts — only exist across plan *sets*.  This pass takes a set of
:class:`Tenant` plans, resolves every array with the runtime's own
solver (:func:`~repro.core.affine.solve_affine_layout`, via
:func:`~repro.analysis.constraints.lint_plan`), simulates the irregular
demand through the runtime's own Eq. 4 bank-select policy with one
*shared* load tracker, and diagnoses:

* INT001 — the tenants' distinct interleave claims exceed the IOT's
  bank-range entries, so at least two claims would alias or evict on
  the same bank range (on this architecture compatible claims share an
  entry, so capacity is the only cross-tenant conflict),
* INT002 — aggregate demand across all tenants overflows an interleave
  pool's virtual reservation (or the paged segment), or one tenant's
  demand overflows its declared quota,
* INT003 — predicted hot-bank contention: the aggregate per-bank access
  weight concentrates beyond :data:`HOT_BANK_FACTOR` times the mean on
  a bank that at least two tenants contend for,
* INT004 — affinity dilution: a tenant whose predicted weight
  concentrates on a small *home* bank set (it has real affinity to
  lose) finds those same banks dominated by co-tenant weight, so its
  streams queue behind another tenant's traffic — it is pushed
  off-bank in effect even when no bank is globally hot (INT003's
  absolute criterion can stay silent while one tenant still smothers
  another's home banks),
* INT005 — (validation mode) the predicted contention matrix diverges
  from measured traffic counters beyond the tolerance contract.
* INT006 — (host-injection mode) what an interference run *actually*
  charged diverges from the pure replay of its
  :class:`~repro.interfere.plan.HostTrafficPlan`
  (:func:`~repro.interfere.plan.predict_host_injection`), or re-homing
  failed to conserve the injected access mass
  (:func:`verify_host_injection`).

**Batched Eq. 4 scoring.**  The hop term of Eq. 4 is computed for *all*
tenants at once as one matrix product — every tenant's affine bank
distribution against the all-pairs hop table
(:func:`batched_affinity_hops`) — which is exactly the
score-all-candidates x all-pending-arrays vectorized shape the
ROADMAP's Amdahl-wall item needs.  The sequential part (each placement
shifts the load the next one sees) then reuses the runtime's own
:meth:`~repro.core.policy.HybridPolicy.select_batch`, each unit a
one-ref group naming its tenant's hop row, so the simulation *is* the
allocator, not a reimplementation.

**Tolerance contract (COV-style).**  Predictions are validated against
runs of the shipped workloads: the predicted per-bank access shares
must match (a) the executor's measured per-bank line-access counters
within :data:`ACCESS_SHARE_TOLERANCE` total-variation distance, and
(b) the :class:`~repro.arch.noc.TrafficAccountant`'s measured per-bank
DATA ejection flits within :data:`FLIT_SHARE_TOLERANCE` (looser: the
ejection ports also carry core-bound responses, which block-distributed
cores spread uniformly).  :func:`validate_contention` emits INT005 when
either bound is exceeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.interfere.engine import InterferenceState

import numpy as np

from repro.analysis.constraints import lint_plan, plan_pool_demand
from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Severity,
    Site,
)
from repro.analysis.plan import LayoutPlan
from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core.affine import AffineLayout, LayoutKind
from repro.core.load import LoadTracker
from repro.core.policy import HybridPolicy
from repro.machine import Machine
from repro.vm.layout import VirtualLayout

__all__ = [
    "Tenant",
    "ContentionMatrix",
    "InterferenceResult",
    "ValidationRow",
    "batched_affinity_hops",
    "predicted_bank_weights",
    "analyze_interference",
    "tenants_from_workloads",
    "validate_contention",
    "verify_host_injection",
    "HOST_INJECTION_RTOL",
    "HOT_BANK_FACTOR",
    "HOT_SHARE_FLOOR",
    "HOME_MASS_FRACTION",
    "HOME_SET_MAX_FRACTION",
    "DILUTION_DOMINANCE",
    "ACCESS_SHARE_TOLERANCE",
    "FLIT_SHARE_TOLERANCE",
    "MAX_IRREGULAR_UNITS",
]

#: INT003 fires when a bank's aggregate predicted weight exceeds this
#: multiple of the mean bank weight.
HOT_BANK_FACTOR = 3.0

#: ... and at least two tenants each contribute this fraction of the hot
#: bank's weight (a single-tenant hotspot is a COV/AFF finding, not
#: interference).
HOT_SHARE_FLOOR = 0.05

#: INT004's notion of a tenant's *home* banks: the smallest bank set
#: carrying this fraction of the tenant's predicted weight.
HOME_MASS_FRACTION = 0.5

#: A tenant only has affinity to dilute when its home set is small —
#: at most this fraction of the banks.  A tenant spread uniformly has
#: no home banks to be pushed off of.
HOME_SET_MAX_FRACTION = 0.25

#: INT004 fires when co-tenant weight on the victim's home banks
#: exceeds this multiple of the victim's own weight there.
DILUTION_DOMINANCE = 2.0

#: INT005 tolerance: total-variation distance between predicted and
#: measured per-bank shares of executor line accesses.  Predictions are
#: element-granular while the executor counts deduplicated *lines*, so
#: quantization contributes up to ~num_banks / (2 * lines) TVD on small
#: runs; 0.05 covers every shipped workload down to scale 0.05 (measured
#: 0.005-0.027) with real plan drift still well above it.
ACCESS_SHARE_TOLERANCE = 0.05

#: INT005 tolerance against per-bank DATA ejection flits from the
#: TrafficAccountant (looser: ports also carry core-bound responses).
FLIT_SHARE_TOLERANCE = 0.10

#: INT006 tolerance: relative divergence allowed between the engine's
#: injected-traffic ledger and the pure plan replay.  The two walk the
#: identical stream/epoch order with identical arithmetic, so this only
#: absorbs float noise — any modeling drift lands far above it.
HOST_INJECTION_RTOL = 1e-9

#: Per-tenant cap on simulated irregular placement units; demand beyond
#: the cap is coarsened into equal-weight units (Eq. 4 sees the same
#: load *shape*, just fewer decisions).
MAX_IRREGULAR_UNITS = 2048

@dataclass(frozen=True)
class Tenant:
    """One tenant's statically declared allocation intent.

    Attributes:
        name: tenant id (workload name, service name, ...).
        plan: the tenant's :class:`~repro.analysis.plan.LayoutPlan`.
        quota_bytes: optional per-tenant demand quota; exceeding it is an
            INT002 error (the allocation-service admission contract).
    """

    name: str
    plan: LayoutPlan
    quota_bytes: Optional[int] = None


@dataclass
class ContentionMatrix:
    """Predicted per-(tenant, bank) access weights.

    ``matrix[t, b]`` is tenant ``t``'s predicted element-access weight
    on bank ``b`` — affine arrays resolved analytically from their
    layouts, irregular demand placed by the shared Eq. 4 simulation.
    """

    tenants: List[str]
    matrix: np.ndarray  # (num_tenants, num_banks), float64

    @property
    def num_banks(self) -> int:
        return int(self.matrix.shape[1])

    def aggregate(self) -> np.ndarray:
        """Total predicted weight per bank across every tenant."""
        return self.matrix.sum(axis=0)

    def shares(self) -> np.ndarray:
        """Per-tenant bank shares (rows sum to 1; zero rows stay zero)."""
        totals = self.matrix.sum(axis=1, keepdims=True)
        safe = np.where(totals > 0, totals, 1.0)
        return self.matrix / safe

    def hot_banks(self, factor: float = HOT_BANK_FACTOR) -> np.ndarray:
        """Bank ids whose aggregate weight exceeds ``factor`` x mean."""
        agg = self.aggregate()
        mean = agg.mean()
        if mean <= 0:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(agg > factor * mean).astype(np.int64)

    def render(self) -> str:
        from repro.harness.report import ascii_table
        agg = self.aggregate()
        mean = float(agg.mean())
        rows = []
        for i, name in enumerate(self.tenants):
            w = self.matrix[i]
            total = float(w.sum())
            top = np.argsort(w)[::-1][:3]
            top_s = " ".join(f"b{int(b)}:{w[b] / total:.2f}" for b in top
                             if total > 0 and w[b] > 0)
            rows.append([name, f"{total:,.0f}", top_s or "-"])
        hottest = int(np.argmax(agg)) if agg.size else 0
        ratio = float(agg[hottest] / mean) if mean > 0 else 0.0
        rows.append(["AGGREGATE", f"{float(agg.sum()):,.0f}",
                     f"b{hottest}:{ratio:.2f}x mean"])
        header = "predicted contention matrix (per-tenant bank weights)"
        return header + "\n" + ascii_table(
            ["tenant", "weight", "top banks (share)"], rows)


@dataclass
class InterferenceResult:
    """Everything one :func:`analyze_interference` pass produced."""

    report: DiagnosticReport
    matrix: ContentionMatrix
    #: per-tenant resolved layouts, keyed by tenant name then array name.
    layouts: Dict[str, Dict[str, AffineLayout]]
    #: per-pool aggregate predicted demand in bytes (page-frame demand of
    #: PAGED arrays included under the page-size pool).
    pool_demand: Dict[int, int] = field(default_factory=dict)
    #: mean placement hops per tenant: (solo, contended).
    dilution: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    def render(self) -> str:
        return self.matrix.render() + "\n\n" + self.report.render()


@dataclass(frozen=True)
class ValidationRow:
    """Predicted-vs-measured comparison for one tenant workload."""

    tenant: str
    access_tvd: float   # TVD vs executor per-bank line accesses
    flit_tvd: float     # TVD vs TrafficAccountant per-bank DATA ejection


# ----------------------------------------------------------------------
# Prediction
# ----------------------------------------------------------------------
def _bank_counts(num_elem: int, start_bank: int, stride: int,
                 intrlv: int, nb: int) -> np.ndarray:
    """Exact per-bank element count of ``num_elem`` elements at
    ``stride`` bytes in an ``intrlv``-byte pool from ``start_bank``
    (Eq. 1: element ``i`` is on bank ``(start_bank + i * stride //
    intrlv) % nb``).

    Element ``i + period`` lands on element ``i``'s bank, with ``period
    = nb * intrlv / gcd(stride, nb * intrlv)``, so one period (or the
    whole array, if shorter) is enumerated once: its histogram times the
    full periods, plus the histogram of the remainder's prefix."""
    span = nb * intrlv
    period = span // math.gcd(stride, span)
    idx = np.arange(min(num_elem, period), dtype=np.int64)
    banks = (start_bank + (idx * stride) // intrlv) % nb
    full, rem = divmod(num_elem, period)
    counts = np.bincount(banks[:rem], minlength=nb)
    if full:
        counts += full * np.bincount(banks, minlength=nb)
    return counts


def predicted_bank_weights(plan: LayoutPlan,
                           layouts: Dict[str, AffineLayout],
                           machine: Machine) -> np.ndarray:
    """Predicted per-bank element-access weight of one plan's *affine*
    arrays (irregular demand is placed by the shared Eq. 4 simulation in
    :func:`analyze_interference`, since its banks depend on co-tenants).

    Pool/paged layouts count every element's bank exactly (Eq. 1, in
    closed form per period: :func:`_bank_counts`); fallback arrays live
    on the baseline line-interleaved heap and spread uniformly.
    """
    nb = machine.num_banks
    weights = np.zeros(nb, dtype=np.float64)
    seen: set = set()
    for pa in plan.arrays:
        if pa.name in seen:
            continue
        seen.add(pa.name)
        layout = layouts.get(pa.name)
        if layout is None:
            continue
        if layout.kind is LayoutKind.FALLBACK:
            weights += pa.num_elem / nb
            continue
        weights += _bank_counts(pa.num_elem, layout.start_bank,
                                max(layout.stride, pa.elem_size),
                                layout.intrlv, nb)
    return weights


def batched_affinity_hops(weights: np.ndarray, machine: Machine) -> np.ndarray:
    """Mean hop distance from every candidate bank to every tenant's
    affine mass, for all tenants in one vectorized pass.

    Args:
        weights: ``(num_tenants, num_banks)`` affine weight matrix.

    Returns:
        ``(num_tenants, num_banks)`` matrix ``H`` where ``H[t, b]`` is
        the expected Manhattan distance from bank ``b`` to an affinity
        address of tenant ``t`` — the Eq. 4 hop term for every pending
        allocation of every tenant, computed as one matrix product
        against the all-pairs hop table (the batched-scoring shape the
        sequential per-allocation loop is Amdahl-limited by).
    """
    nb = machine.num_banks
    hop_table = machine.mesh.hops_to_all(np.arange(nb, dtype=np.int64))
    hop_table = np.asarray(hop_table, dtype=np.float64).reshape(nb, nb)
    totals = weights.sum(axis=1, keepdims=True)
    shares = np.divide(weights, np.where(totals > 0, totals, 1.0))
    return shares @ hop_table


def _irregular_units(plan: LayoutPlan) -> Tuple[int, float]:
    """(simulated units, weight per unit) for a plan's irregular demand."""
    count = sum(d.count for d in plan.irregular)
    if count <= 0:
        return 0, 0.0
    units = min(count, MAX_IRREGULAR_UNITS)
    return units, count / units


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def analyze_interference(tenants: Sequence[Tenant],
                         machine: Optional[Machine] = None,
                         policy_h: float = 5.0) -> InterferenceResult:
    """Resolve a set of tenant plans against one machine and diagnose
    INT001-INT004 (INT005 belongs to :func:`validate_contention`)."""
    machine = machine if machine is not None else Machine()
    nb = machine.num_banks
    report = DiagnosticReport()
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        for name in dupes:
            report.add(Diagnostic(
                "INT002", Severity.ERROR, Site("tenant", name),
                "duplicate tenant name in the plan set",
                fix_hint="give each tenant a unique name"))
        # Analysis continues; duplicate rows stay distinguishable by index.

    layouts: Dict[str, Dict[str, AffineLayout]] = {}
    affine = np.zeros((len(tenants), nb), dtype=np.float64)
    per_tenant_demand: List[Tuple[Dict[int, int], int]] = []
    for i, tenant in enumerate(tenants):
        plan_report, plan_layouts = lint_plan(tenant.plan, machine)
        layouts[tenant.name] = plan_layouts
        affine[i] = predicted_bank_weights(tenant.plan, plan_layouts, machine)
        per_tenant_demand.append(plan_pool_demand(
            tenant.plan, plan_layouts, machine.pools,
            machine.config.page_size))

    # INT001 — interleave claims vs IOT bank-range entries.  Compatible
    # claims (same interleave) share one entry; distinct interleaves each
    # need their own, and the page pool backs every PAGED chunk.
    claims = sorted({g for demand, _ in per_tenant_demand for g in demand})
    capacity = machine.iot.capacity
    if len(claims) > capacity:
        claimants = sorted({t.name for t, (d, _) in zip(tenants,
                                                        per_tenant_demand)
                            if d})
        report.add(Diagnostic(
            "INT001", Severity.ERROR,
            Site("pool", "iot", detail=f"{len(tenants)} tenants"),
            f"plans claim {len(claims)} distinct interleaves "
            f"({', '.join(f'{g}B' for g in claims)}) but the IOT holds "
            f"{capacity} bank-range entries; at least two claims would "
            f"alias on the same range (tenants: {', '.join(claimants)})",
            fix_hint="consolidate tenants onto shared interleavings or "
                     "provision more IOT entries"))

    # INT002 — aggregate pool/paged overflow and per-tenant quotas.
    pool_total: Dict[int, int] = {}
    paged_total = 0
    for (demand, paged) in per_tenant_demand:
        for g, b in demand.items():
            pool_total[g] = pool_total.get(g, 0) + b
        paged_total += paged
    for g, total in sorted(pool_total.items()):
        if total > VirtualLayout.POOL_STRIDE:
            contributors = sorted(
                (t.name for t, (d, _) in zip(tenants, per_tenant_demand)
                 if d.get(g, 0) > 0))
            report.add(Diagnostic(
                "INT002", Severity.ERROR,
                Site("pool", f"{g}B", detail=f"{len(contributors)} tenants"),
                f"aggregate demand {total / 2**40:.2f} TiB exceeds the "
                f"{VirtualLayout.POOL_STRIDE / 2**40:.0f} TiB reservation "
                f"(tenants: {', '.join(contributors)})",
                fix_hint="admission control must reject or queue part of "
                         "this plan set"))
    if paged_total > VirtualLayout.PAGED_SIZE:
        report.add(Diagnostic(
            "INT002", Severity.ERROR, Site("pool", "paged-segment"),
            f"aggregate paged demand {paged_total / 2**40:.2f} TiB "
            f"exceeds the {VirtualLayout.PAGED_SIZE / 2**40:.0f} TiB "
            "segment",
            fix_hint="shrink or stagger the partitioned tenants"))
    for tenant, (demand, paged) in zip(tenants, per_tenant_demand):
        if tenant.quota_bytes is None:
            continue
        used = sum(demand.values()) + paged
        if used > tenant.quota_bytes:
            report.add(Diagnostic(
                "INT002", Severity.ERROR, Site("tenant", tenant.name),
                f"predicted demand {used:,} B exceeds the tenant's "
                f"{tenant.quota_bytes:,} B quota",
                fix_hint="raise the quota or shrink the plan"))

    # Irregular placement — batched Eq. 4 hop rows for all tenants at
    # once, then the runtime's own sequential select_batch over the
    # round-robin-admitted unit stream with one shared load tracker.
    hop_rows = batched_affinity_hops(affine, machine)
    units = [_irregular_units(t.plan) for t in tenants]
    # Fair-share admission: tenant i's unit k arrives at fractional time
    # (k + 0.5) / n_i, so concurrent allocation streams interleave in
    # proportion to their rates (a big tenant genuinely crowds the
    # timeline a small one allocates against).  Ties break by tenant
    # order — fully deterministic.
    arrivals = sorted(
        ((k + 0.5) / n, i)
        for i, (n, _) in enumerate(units) if n > 0
        for k in range(n))
    order = [i for _, i in arrivals]
    irregular = np.zeros_like(affine)
    contended_hops = {t.name: 0.0 for t in tenants}
    if order:
        # One unit is a one-ref group naming its tenant's hop row.
        banks = HybridPolicy(policy_h).select_batch(
            np.ones(len(order), dtype=np.int64), np.asarray(order),
            hop_rows, LoadTracker(nb))
        placed_hops: Dict[int, List[float]] = {}
        for tidx, bank in zip(order, banks):
            w = units[tidx][1]
            irregular[tidx, bank] += w
            placed_hops.setdefault(tidx, []).append(
                float(hop_rows[tidx, bank]))
        for tidx, hops in placed_hops.items():
            contended_hops[tenants[tidx].name] = float(np.mean(hops))

    # Solo re-placement per tenant (informational: mean hops its units
    # would see on an empty machine vs the shared timeline above).
    dilution: Dict[str, Tuple[float, float]] = {}
    for i, tenant in enumerate(tenants):
        n_units = units[i][0]
        if n_units == 0:
            continue
        solo_banks = HybridPolicy(policy_h).select_batch(
            np.ones(n_units, dtype=np.int64),
            np.full(n_units, i, dtype=np.int64), hop_rows, LoadTracker(nb))
        solo = float(hop_rows[i, solo_banks].mean())
        dilution[tenant.name] = (solo, contended_hops[tenant.name])

    matrix = ContentionMatrix([t.name for t in tenants], affine + irregular)

    # INT004 — affinity dilution by home-bank domination.  Eq. 4 scores
    # load *ratios*, which self-normalize across tenant counts, so the
    # honest static signal is occupancy: find each concentrated tenant's
    # home banks and check whether co-tenants out-weigh it there.
    home_cap = max(1, int(nb * HOME_SET_MAX_FRACTION))
    for i, tenant in enumerate(tenants):
        own = matrix.matrix[i]
        total = float(own.sum())
        if total <= 0:
            continue
        ranked = np.argsort(own)[::-1]
        cum = np.cumsum(own[ranked])
        home_size = int(np.searchsorted(cum,
                                        HOME_MASS_FRACTION * total) + 1)
        if home_size > home_cap:
            continue  # spread tenant: no home banks to be pushed off of
        home = ranked[:home_size]
        own_mass = float(own[home].sum())
        others = matrix.matrix[:, home].sum(axis=1)
        others[i] = 0.0
        others_mass = float(others.sum())
        if others_mass <= DILUTION_DOMINANCE * own_mass:
            continue
        dominant = tenants[int(np.argmax(others))].name
        banks_s = ", ".join(f"b{int(b)}" for b in sorted(home.tolist()))
        report.add(Diagnostic(
            "INT004", Severity.WARNING, Site("tenant", tenant.name),
            f"{HOME_MASS_FRACTION:.0%} of this tenant's predicted weight "
            f"sits on {home_size} bank(s) ({banks_s}) where co-tenants "
            f"out-weigh it {others_mass / own_mass:.1f}x "
            f"(dominant: {dominant}); its streams are effectively "
            "pushed off-bank",
            fix_hint="stagger the tenants' start banks or move the "
                     "dominant tenant to a different interleaving"))

    # INT003 — hot banks that at least two tenants actually contend for.
    agg = matrix.aggregate()
    mean = float(agg.mean())
    if mean > 0:
        for bank in matrix.hot_banks():
            contrib = matrix.matrix[:, bank]
            top = np.argsort(contrib)[::-1]
            sharers = [matrix.tenants[j] for j in top
                       if agg[bank] > 0
                       and contrib[j] >= HOT_SHARE_FLOOR * agg[bank]]
            if len(sharers) < 2:
                continue  # single-tenant hotspot: a COV/AFF concern
            report.add(Diagnostic(
                "INT003", Severity.WARNING,
                Site("bank", str(int(bank))),
                f"predicted weight {agg[bank]:,.0f} is "
                f"{agg[bank] / mean:.1f}x the mean bank weight; "
                f"contended by {', '.join(sharers[:4])}",
                fix_hint="stagger start banks or partition the hot "
                         "arrays across more banks"))

    return InterferenceResult(report, matrix, layouts,
                              pool_demand=pool_total, dilution=dilution)


# ----------------------------------------------------------------------
# Validation against measured counters (INT005)
# ----------------------------------------------------------------------
def tenants_from_workloads(names: Sequence[str],
                           scale: float = 0.12) -> List[Tenant]:
    """Build tenants from shipped workloads that declare layout plans."""
    from repro.workloads import WORKLOADS

    tenants = []
    for name in names:
        wl = WORKLOADS[name]
        plan = wl.layout_plan(scale)
        if plan is None:
            raise ValueError(f"workload {name!r} declares no layout plan; "
                             "it cannot join a --plans tenant set")
        tenants.append(Tenant(name, plan))
    return tenants


def _tvd(pred: np.ndarray, meas: np.ndarray) -> float:
    """Total-variation distance between two weight vectors' shares."""
    p = pred.sum()
    m = meas.sum()
    if p <= 0 or m <= 0:
        return 0.0 if p == m else 1.0
    return 0.5 * float(np.abs(pred / p - meas / m).sum())


def validate_contention(tenants: Sequence[Tenant],
                        config: SystemConfig = DEFAULT_CONFIG,
                        scale: float = 0.12, seed: int = 0,
                        ) -> Tuple[DiagnosticReport, List[ValidationRow]]:
    """Run each tenant's workload and hold predictions to the tolerance
    contract (module docstring), emitting INT005 where it is broken.

    Each tenant name must be a shipped workload (the prediction is pure;
    the measurement runs the real executor in ``AFF_ALLOC`` mode at the
    same scale/seed, on its own machine — placement is slot-position
    independent, so solo measurements validate the shared prediction).
    """
    from repro.arch.noc import MessageClass
    from repro.nsc.engine import EngineMode
    from repro.workloads import run_workload

    report = DiagnosticReport()
    rows: List[ValidationRow] = []
    machine = Machine(config)
    nb = machine.num_banks
    for tenant in tenants:
        _plan_report, plan_layouts = lint_plan(tenant.plan, machine)
        predicted = predicted_bank_weights(tenant.plan, plan_layouts,
                                           machine)
        result = run_workload(tenant.name, EngineMode.AFF_ALLOC,
                              config=config, scale=scale, seed=seed)
        measured_access = np.zeros(nb, dtype=np.float64)
        measured_eject = np.zeros(nb, dtype=np.float64)
        for phase in result.phases:
            measured_access += phase.bank_line_accesses
            measured_eject += phase.arrivals[MessageClass.DATA]
        access_tvd = _tvd(predicted, measured_access)
        # A fully bank-local workload moves zero DATA flits — there are
        # no traffic shares to compare, which is success, not divergence.
        flit_tvd = (_tvd(predicted, measured_eject)
                    if measured_eject.sum() > 0 else 0.0)
        rows.append(ValidationRow(tenant.name, access_tvd, flit_tvd))
        if access_tvd > ACCESS_SHARE_TOLERANCE:
            report.add(Diagnostic(
                "INT005", Severity.WARNING, Site("tenant", tenant.name),
                f"predicted bank shares diverge from measured line "
                f"accesses by TVD {access_tvd:.3f} "
                f"(tolerance {ACCESS_SHARE_TOLERANCE})",
                fix_hint="the plan no longer describes what the "
                         "workload allocates; update layout_plan()"))
        if flit_tvd > FLIT_SHARE_TOLERANCE:
            report.add(Diagnostic(
                "INT005", Severity.WARNING, Site("tenant", tenant.name),
                f"predicted bank shares diverge from measured DATA "
                f"ejection flits by TVD {flit_tvd:.3f} "
                f"(tolerance {FLIT_SHARE_TOLERANCE})",
                fix_hint="the plan no longer describes what the "
                         "workload allocates; update layout_plan()"))
    return report, rows


# ----------------------------------------------------------------------
# Host-injection contract (INT006)
# ----------------------------------------------------------------------
def verify_host_injection(state: "InterferenceState",
                          ) -> Tuple[DiagnosticReport, Dict[str, float]]:
    """Hold an interference run's ledger to the pure plan replay.

    The contract has two halves:

    * **exactness** — the plan-space (pre-IOT-remap) bank accesses,
      atomics, and total message count the engine charged must equal
      :func:`~repro.interfere.plan.predict_host_injection` replayed for
      the same plan over the same number of host epochs, within
      :data:`HOST_INJECTION_RTOL`;
    * **conservation** — re-homing moves injected mass between banks but
      never creates or destroys it, so the post-remap totals must equal
      the plan-space totals.

    Emits INT006 (error severity: a broken injection model invalidates
    every slowdown it produced) per violated half.  Returns the report
    plus the residuals for CLI/report surfacing.
    """
    from repro.interfere.plan import predict_host_injection

    report = DiagnosticReport()
    nb = int(state.injected_raw_accesses.size)
    pred = predict_host_injection(state.plan, state.epoch_index, nb)

    def _residual(actual: np.ndarray, expected: np.ndarray) -> float:
        scale = max(float(np.abs(expected).max(initial=0.0)), 1.0)
        return float(np.abs(actual - expected).max(initial=0.0)) / scale

    acc_res = _residual(state.injected_raw_accesses,
                        np.asarray(pred["bank_accesses"]))
    atom_res = _residual(state.injected_raw_atomics,
                         np.asarray(pred["bank_atomics"]))
    msg_expected = float(pred["messages"])
    msg_res = (abs(state.injected_messages - msg_expected)
               / max(abs(msg_expected), 1.0))
    for label, res in (("bank accesses", acc_res), ("bank atomics", atom_res),
                       ("messages", msg_res)):
        if res > HOST_INJECTION_RTOL:
            report.add(Diagnostic(
                "INT006", Severity.ERROR,
                Site("interference", state.task or "run"),
                f"injected host {label} diverge from the pure plan replay "
                f"by relative residual {res:.3e} "
                f"(tolerance {HOST_INJECTION_RTOL:.0e}) over "
                f"{state.epoch_index} host epoch(s)",
                fix_hint="the engine and predict_host_injection disagree "
                         "about the stream algebra; fix whichever changed"))
    acc_cons = (abs(float(state.injected_bank_accesses.sum())
                    - float(state.injected_raw_accesses.sum()))
                / max(float(state.injected_raw_accesses.sum()), 1.0))
    atom_cons = (abs(float(state.injected_bank_atomics.sum())
                     - float(state.injected_raw_atomics.sum()))
                 / max(float(state.injected_raw_atomics.sum()), 1.0))
    for label, res in (("accesses", acc_cons), ("atomics", atom_cons)):
        if res > HOST_INJECTION_RTOL:
            report.add(Diagnostic(
                "INT006", Severity.ERROR,
                Site("interference", state.task or "run"),
                f"bank re-homing failed to conserve injected {label} "
                f"(relative residual {res:.3e})",
                fix_hint="remap_banks must permute targets, never drop "
                         "or duplicate them"))
    residuals = {"accesses": acc_res, "atomics": atom_res,
                 "messages": msg_res, "conservation_accesses": acc_cons,
                 "conservation_atomics": atom_cons}
    return report, residuals
