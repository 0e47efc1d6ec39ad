"""Static affinity-coverage estimation (``COV0xx``).

Predicts, from layout alone, the fraction of a kernel's offloaded
accesses that stay bank-local and the mean NoC hops of the remainder —
the paper's Fig. 2 diagnosis without running the experiment.  The
estimator mirrors the compiler's grouping exactly (loads forwarded to
their consuming store's bank, indirect requests from base to target
bank, chases migrating between consecutive nodes), so on affine kernels
its prediction matches the executor's measured
``stream_elem_accesses`` / ``stream_remote_accesses`` counters.

Bank lookup is analytic for pool/paged layouts (Eq. 1: the slot index
advances by ``stride // intrlv`` per element from ``start_bank``) and
falls back to the hardware mapping path for plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Severity,
    Site,
)
from repro.core.affine import AffineLayout, LayoutKind
from repro.machine import Machine

__all__ = ["StreamCoverage", "KernelCoverage", "static_banks",
           "estimate_kernel_coverage", "estimate_plan_coverage",
           "LOCAL_FRACTION_THRESHOLD", "MAX_SAMPLES"]

#: COV001 fires below this predicted bank-local fraction.
LOCAL_FRACTION_THRESHOLD = 0.5

#: Iteration-sampling cap.  Longer trips are sampled at this many
#: ``linspace`` points, which can alias against a layout's bank period,
#: so the estimate is not exact: the same sampling in INT005 reads
#: hotspot's access TVD as 0.069 where every element gives 0.
#: ROADMAP.md item 7 replaces it with a closed-form Eq. 1 bank
#: histogram over one joint period.
MAX_SAMPLES = 4096


def static_banks(handle, idx: np.ndarray, machine: Machine) -> np.ndarray:
    """Owning bank per element index, derived from the layout.

    Pool/paged layouts resolve analytically (start bank plus slot
    advance); plain and fallback arrays use the hardware mapping path.
    """
    idx = np.asarray(idx, dtype=np.int64)
    layout = getattr(handle, "layout", None)
    if (isinstance(layout, AffineLayout)
            and layout.kind in (LayoutKind.POOL, LayoutKind.PAGED)):
        advance = (idx * handle.stride) // layout.intrlv
        return (layout.start_bank + advance) % machine.num_banks
    return handle.banks(idx)


def _sample_iterations(trip_count: int) -> np.ndarray:
    if trip_count <= MAX_SAMPLES:
        return np.arange(trip_count, dtype=np.int64)
    return np.unique(np.linspace(0, trip_count - 1, MAX_SAMPLES,
                                 dtype=np.int64))


@dataclass
class StreamCoverage:
    """Predicted locality of one stream (or stream pair)."""

    stream: str
    role: str          # "forwarded", "store", "read", "indirect", "chase"
    local_fraction: float
    mean_hops: float
    weight: float      # element accesses this row stands for


@dataclass
class KernelCoverage:
    """Per-kernel coverage report."""

    kernel: str
    rows: List[StreamCoverage] = field(default_factory=list)

    @property
    def total_accesses(self) -> float:
        return sum(r.weight for r in self.rows)

    @property
    def local_fraction(self) -> float:
        total = self.total_accesses
        if total <= 0:
            return 1.0
        return sum(r.local_fraction * r.weight for r in self.rows) / total

    @property
    def mean_hops(self) -> float:
        total = self.total_accesses
        if total <= 0:
            return 0.0
        return sum(r.mean_hops * r.weight for r in self.rows) / total

    def render(self) -> str:
        from repro.harness.report import ascii_table
        rows = [[r.stream, r.role, f"{r.local_fraction:.3f}",
                 f"{r.mean_hops:.2f}", f"{r.weight:,.0f}"]
                for r in self.rows]
        rows.append(["TOTAL", "", f"{self.local_fraction:.3f}",
                     f"{self.mean_hops:.2f}", f"{self.total_accesses:,.0f}"])
        header = f"kernel {self.kernel}: predicted affinity coverage"
        return header + "\n" + ascii_table(
            ["stream", "role", "local", "hops", "accesses"], rows)

    def diagnostics(self, machine: Machine) -> DiagnosticReport:
        report = DiagnosticReport()
        site = Site("kernel", self.kernel)
        hops_threshold = (machine.config.noc.width
                          + machine.config.noc.height) / 3.0
        if self.local_fraction < LOCAL_FRACTION_THRESHOLD:
            worst = min(self.rows, key=lambda r: r.local_fraction,
                        default=None)
            report.add(Diagnostic(
                "COV001", Severity.WARNING, site,
                f"predicted bank-local fraction {self.local_fraction:.2f} "
                f"is below {LOCAL_FRACTION_THRESHOLD}"
                + (f" (worst stream: {worst.stream})" if worst else ""),
                fix_hint="align the kernel's arrays to each other "
                         "(malloc_aff with align_to) so operands "
                         "colocate"))
        if self.mean_hops > hops_threshold:
            report.add(Diagnostic(
                "COV002", Severity.WARNING, site,
                f"predicted mean NoC distance {self.mean_hops:.2f} hops "
                f"exceeds {hops_threshold:.1f}",
                fix_hint="co-locate producers and consumers; remote "
                         "operands traverse the mesh every iteration"))
        return report


def estimate_kernel_coverage(kernel, machine: Machine) -> KernelCoverage:
    """Estimate coverage for a kernel from its layout alone.

    ``kernel`` is a :class:`~repro.nsc.compiler.KernelBuilder` or a
    :class:`~repro.nsc.compiler.CompiledKernel` carrying its builder.
    """
    from repro.nsc.compiler import AccessKind, KernelBuilder, _affine_idx

    builder = kernel if isinstance(kernel, KernelBuilder) else kernel.builder
    if builder is None:
        raise ValueError("kernel has no builder attached; compile with "
                         "compile_kernel() or pass the KernelBuilder")
    mesh = machine.mesh
    iters = _sample_iterations(builder.trip_count)
    trip = float(builder.trip_count)
    cov = KernelCoverage(builder.name)
    consumed: set = set()

    for acc in builder.accesses():
        if acc.kind is not AccessKind.AFFINE_STORE:
            continue
        out_banks = static_banks(acc.handle, _affine_idx(acc, iters), machine)
        for src in acc.inputs:
            sacc = builder.access(src)
            if sacc.kind is not AccessKind.AFFINE_LOAD:
                continue
            consumed.add(src)
            in_banks = static_banks(sacc.handle, _affine_idx(sacc, iters),
                                    machine)
            local = float((in_banks == out_banks).mean())
            hops = float(mesh.hops(in_banks, out_banks).mean())
            cov.rows.append(StreamCoverage(sacc.name, "forwarded",
                                           local, hops, trip))
        cov.rows.append(StreamCoverage(acc.name, "store", 1.0, 0.0, trip))

    for acc in builder.accesses():
        if acc.kind is AccessKind.AFFINE_LOAD and acc.name not in consumed:
            cov.rows.append(StreamCoverage(acc.name, "read", 1.0, 0.0, trip))
        elif acc.kind in (AccessKind.INDIRECT_LOAD,
                          AccessKind.INDIRECT_ATOMIC):
            base = builder.access(acc.address_from)
            b_banks = static_banks(base.handle, _affine_idx(base, iters),
                                   machine)
            tidx = np.asarray(acc.target_indices(iters), dtype=np.int64)
            t_banks = static_banks(acc.handle, tidx, machine)
            local = float((b_banks == t_banks).mean())
            hops = float(mesh.hops(b_banks, t_banks).mean())
            cov.rows.append(StreamCoverage(acc.name, "indirect",
                                           local, hops, trip))

    for spec in builder._chases:
        vaddrs = np.asarray(spec.node_vaddrs, dtype=np.int64)
        if vaddrs.size == 0:
            continue
        banks = machine.banks_of(vaddrs)
        chain_ids = np.asarray(spec.chain_ids, dtype=np.int64)
        same = chain_ids[1:] == chain_ids[:-1]
        moved = (banks[1:] != banks[:-1]) & same
        local = 1.0 - float(moved.sum()) / vaddrs.size
        step_hops = mesh.hops(banks[:-1], banks[1:])
        hops = float((step_hops * same).sum()) / vaddrs.size
        cov.rows.append(StreamCoverage(spec.name, "chase", local, hops,
                                       float(vaddrs.size)))
    return cov


def estimate_plan_coverage(plan, layouts: Dict[str, AffineLayout],
                           machine: Machine) -> Tuple[DiagnosticReport,
                                                      Dict[str, float]]:
    """Predict pairwise alignment quality straight from a layout plan.

    For every planned array with an alignment target, computes the
    fraction of elements that land on their Eq. 2 partner's bank, using
    only the predicted layouts.  Informational (NOTE severity): the
    kernel-level estimator owns the warnings.
    """
    report = DiagnosticReport()
    fractions: Dict[str, float] = {}
    specs = {pa.name: pa for pa in plan.arrays}
    nb = machine.num_banks

    def banks_of(name: str, idx: np.ndarray) -> Optional[np.ndarray]:
        layout = layouts.get(name)
        pa = specs[name]
        if (layout is None
                or layout.kind not in (LayoutKind.POOL, LayoutKind.PAGED)):
            return None
        stride = max(layout.stride, pa.elem_size)
        return (layout.start_bank + (idx * stride) // layout.intrlv) % nb

    for pa in plan.arrays:
        if pa.align_to is None or pa.align_to not in specs:
            continue
        target = specs[pa.align_to]
        i = _sample_iterations(pa.num_elem)
        j = np.clip((pa.align_p * i) // pa.align_q + pa.align_x,
                    0, target.num_elem - 1)
        mine = banks_of(pa.name, i)
        theirs = banks_of(pa.align_to, j)
        if mine is None or theirs is None:
            continue
        frac = float((mine == theirs).mean())
        fractions[pa.name] = frac
        report.add(Diagnostic(
            "COV001", Severity.NOTE,
            Site("array", pa.name, detail=f"plan {plan.name}"),
            f"{frac:.0%} of elements land on their {pa.align_to!r} "
            "partner's bank",
            fix_hint="" if frac >= LOCAL_FRACTION_THRESHOLD else
            "check align_x lands on a slot boundary"))
    return report, fractions
