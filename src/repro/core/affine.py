"""Affine layout solving and pool-slot placement (paper §4.2).

``solve_affine_layout`` is a pure function from an :class:`AffineArray`
spec (plus the machine's pool/topology facts) to a concrete layout
decision:

* which interleaving (Eq. 3 for inter-array affinity, a Manhattan-distance
  search for intra-array affinity, an even spread for ``partition``),
* which bank the array must start on (from ``align_x``),
* whether elements need padding to reach a legal interleaving, and
* whether the runtime must fall back to the baseline allocator (paper:
  "in these cases, the runtime can simply fall back to the baseline
  allocator without hurting the performance").

``PoolSpace`` then places arrays inside an interleave pool: it hands out
*contiguous slot ranges* whose starting slot lands on the requested bank,
maintaining a coalescing free list so freed arrays are reused.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.diagnostics import DoubleFreeError
from repro.arch.address import align_up
from repro.arch.mesh import Mesh
from repro.core.api import AffineArray
from repro.vm.pools import PoolManager

__all__ = ["LayoutKind", "AffineLayout", "solve_affine_layout", "PoolSpace"]


class LayoutKind(enum.Enum):
    POOL = "pool"          # contiguous slots in an interleave pool
    PAGED = "paged"        # beyond-page interleave via page-granular mapping
    FALLBACK = "fallback"  # baseline heap allocation


@dataclass(frozen=True)
class AffineLayout:
    """Resolved layout decision for one affine allocation.

    Attributes:
        kind: placement mechanism.
        intrlv: effective interleaving in bytes.  For ``POOL`` this is the
            pool's interleave; for ``PAGED`` it is the per-bank chunk size
            (a page multiple); meaningless for ``FALLBACK``.
        start_bank: bank that element 0 must land on.
        stride: element stride in bytes (> elem_size when padded).
        reason: human-readable note (why fallback / why padded).
        code: machine-readable decision tag for the static analyzer
            (``afflint``), so diagnostics never parse ``reason`` strings.
            Fallback codes: ``align-offset``, ``bad-ratio``,
            ``unsupported-interleave``, ``no-line-pool``, ``no-target``.
    """

    kind: LayoutKind
    intrlv: int
    start_bank: int
    stride: int
    reason: str = ""
    code: str = ""


def _bank_delta_distance(mesh: Mesh, slot_delta: int) -> float:
    """Mean Manhattan distance between bank ``b`` and ``(b + k) mod B``."""
    nb = mesh.num_tiles
    k = slot_delta % nb
    if k == 0:
        return 0.0
    banks = np.arange(nb)
    return float(mesh.hops(banks, (banks + k) % nb).mean())


def _expected_row_distance(mesh: Mesh, intrlv: int, row_bytes: int) -> float:
    """Expected Manhattan distance between addresses ``a`` and ``a + row_bytes``
    under interleaving ``intrlv`` (averaged over the phase of ``a``)."""
    k1, rem = divmod(row_bytes, intrlv)
    frac_next = rem / intrlv
    d = (1.0 - frac_next) * _bank_delta_distance(mesh, k1)
    if frac_next > 0:
        d += frac_next * _bank_delta_distance(mesh, k1 + 1)
    return d


def solve_affine_layout(spec: AffineArray, pools: PoolManager, mesh: Mesh,
                        line_bytes: int = 64, page_size: int = 4096) -> AffineLayout:
    """Lower an affine spec to a layout decision (pure; no allocation)."""
    if spec.partition:
        return _solve_partition(spec, pools, page_size)
    if spec.align_to is not None:
        return _solve_inter_array(spec, pools, page_size)
    if spec.align_x:
        return _solve_intra_array(spec, pools, mesh)
    # Default: cache-line interleaving (paper Fig 8(b), first array), or
    # the finest granularity the OS offers if lines are unavailable.
    default = pools.round_to_valid_interleave(line_bytes)
    if default is None:
        return AffineLayout(LayoutKind.FALLBACK, 0, 0, spec.elem_size,
                            "no interleave pool can hold a cache line",
                            code="no-line-pool")
    return AffineLayout(LayoutKind.POOL, default, 0, spec.elem_size,
                        "default cache-line interleave"
                        if default == line_bytes
                        else f"coarsest-available default {default}B",
                        code="default")


def _solve_partition(spec: AffineArray, pools: PoolManager, page_size: int) -> AffineLayout:
    nb = pools.num_banks
    chunk = -(-spec.total_bytes // nb)  # ceil
    pool_intrlv = pools.round_to_valid_interleave(chunk)
    if pool_intrlv is not None:
        return AffineLayout(LayoutKind.POOL, pool_intrlv, 0, spec.elem_size,
                            f"partition: {chunk}B/bank rounded to {pool_intrlv}B pool",
                            code="partition-pool")
    paged_chunk = align_up(chunk, page_size)
    return AffineLayout(LayoutKind.PAGED, paged_chunk, 0, spec.elem_size,
                        f"partition: {paged_chunk}B/bank via page mapping",
                        code="partition-paged")


def _solve_intra_array(spec: AffineArray, pools: PoolManager, mesh: Mesh) -> AffineLayout:
    row_bytes = spec.align_x * spec.elem_size
    best: Optional[Tuple[float, int]] = None
    for g in pools.interleaves:
        d = _expected_row_distance(mesh, g, row_bytes)
        # Tie-break toward larger interleavings: fewer slot crossings, so
        # fewer stream migrations for the same distance.
        if best is None or d < best[0] - 1e-12 or (abs(d - best[0]) <= 1e-12 and g > best[1]):
            best = (d, g)
    assert best is not None
    return AffineLayout(LayoutKind.POOL, best[1], 0, spec.elem_size,
                        f"intra-array: E[dist]={best[0]:.3f} at {best[1]}B",
                        code="intra")


def _solve_inter_array(spec: AffineArray, pools: PoolManager, page_size: int) -> AffineLayout:
    target = spec.align_to
    layout = getattr(target, "layout", None)
    if layout is None or layout.kind is LayoutKind.FALLBACK:
        return AffineLayout(LayoutKind.FALLBACK, 0, 0, spec.elem_size,
                            "align target has no affinity layout",
                            code="no-target")
    g_a = layout.intrlv
    stride_a = target.stride

    # Start-bank from align_x: B[0] aligns to A[align_x] (Eq. 2); perfect
    # alignment needs A[x] to sit on a slot boundary (paper §4.2).
    off_bytes = spec.align_x * stride_a
    if off_bytes % g_a:
        return AffineLayout(LayoutKind.FALLBACK, 0, 0, spec.elem_size,
                            f"align_x offset {off_bytes}B not a multiple of {g_a}B",
                            code="align-offset")
    start_bank = (layout.start_bank + off_bytes // g_a) % pools.num_banks

    # Eq. 3: intrlv_B = (elem_B / elem_A) * (q / p) * intrlv_A, with the
    # aligned-to array's *stride* standing in for its element size when it
    # was padded.
    g_b = Fraction(spec.elem_size * spec.align_q * g_a, spec.align_p * stride_a)

    if g_b.denominator == 1 and g_b >= 64:
        g = int(g_b)
        if pools.has_pool(g):
            return AffineLayout(LayoutKind.POOL, g, start_bank, spec.elem_size,
                                f"Eq.3 interleave {g}B", code="eq3")
        if g % page_size == 0:
            return AffineLayout(LayoutKind.PAGED, g, start_bank, spec.elem_size,
                                f"Eq.3 interleave {g}B via page mapping",
                                code="eq3")
        return AffineLayout(LayoutKind.FALLBACK, 0, 0, spec.elem_size,
                            f"Eq.3 interleave {g}B unsupported",
                            code="unsupported-interleave")

    # Sub-line interleave: pad elements so a 64 B interleave keeps the
    # same slot-advance rate (paper: "mitigated by padding the array").
    # stride_B / 64 = (p/q) * stride_A / g_A.
    stride_b = Fraction(64 * spec.align_p * stride_a, spec.align_q * g_a)
    if stride_b.denominator == 1 and int(stride_b) >= spec.elem_size:
        return AffineLayout(LayoutKind.POOL, 64, start_bank, int(stride_b),
                            f"padded stride {int(stride_b)}B at 64B interleave",
                            code="padded")
    return AffineLayout(LayoutKind.FALLBACK, 0, 0, spec.elem_size,
                        f"no legal interleave for ratio {g_b}",
                        code="bad-ratio")


class PoolSpace:
    """Contiguous-slot allocator for affine arrays within one pool.

    Keeps a sorted, coalescing free list of slot ranges.  Allocation finds
    the first free range that can host ``nslots`` starting on a slot whose
    index is congruent to the requested bank; when nothing fits, the pool
    is expanded (leading alignment pad slots stay on the free list and are
    reused by later allocations with different bank targets).
    """

    def __init__(self, pools: PoolManager, intrlv: int):
        self.pools = pools
        self.intrlv = intrlv
        self.pool = pools.pool(intrlv)
        self.num_banks = pools.num_banks
        self._free: List[Tuple[int, int]] = []  # (start_slot, nslots), sorted

    # ------------------------------------------------------------------
    def _first_aligned(self, start_slot: int, bank: int) -> int:
        """First slot >= start_slot with slot % num_banks == bank."""
        rem = (bank - start_slot) % self.num_banks
        return start_slot + rem

    def alloc(self, nslots: int, start_bank: int) -> int:
        """Allocate ``nslots`` contiguous slots starting on ``start_bank``.

        Returns the starting slot index.
        """
        if nslots <= 0:
            raise ValueError("nslots must be positive")
        if not (0 <= start_bank < self.num_banks):
            raise ValueError(f"start_bank {start_bank} out of range")
        placed = self._try_place(nslots, start_bank)
        if placed is None:
            # Expand enough for the allocation plus worst-case alignment pad.
            need = (nslots + self.num_banks) * self.intrlv
            rng = self.pools.expand(self.intrlv, need)
            first = self.pool.slot_of(np.asarray([rng.start]))[0]
            count = rng.size // self.intrlv
            self._insert_free(int(first), int(count))
            placed = self._try_place(nslots, start_bank)
            assert placed is not None, "expansion must satisfy the request"
        return placed

    def _try_place(self, nslots: int, start_bank: int) -> Optional[int]:
        for i, (s, n) in enumerate(self._free):
            t = self._first_aligned(s, start_bank)
            if t + nslots <= s + n:
                del self._free[i]
                if t > s:
                    self._insert_free(s, t - s)
                tail = (s + n) - (t + nslots)
                if tail > 0:
                    self._insert_free(t + nslots, tail)
                return t
        return None

    def free(self, start_slot: int, nslots: int) -> None:
        self._insert_free(start_slot, nslots)

    def _insert_free(self, start: int, count: int) -> None:
        if count <= 0:
            return
        self._free.append((start, count))
        self._free.sort()
        merged: List[Tuple[int, int]] = []
        for s, n in self._free:
            if merged and merged[-1][0] + merged[-1][1] >= s:
                ps, pn = merged[-1]
                if ps + pn > s:
                    raise DoubleFreeError("double free detected in PoolSpace")
                merged[-1] = (ps, pn + n)
            else:
                merged.append((s, n))
        self._free = merged

    def slot_vaddr(self, slot: int) -> int:
        return self.pool.slot_vaddr(slot)
