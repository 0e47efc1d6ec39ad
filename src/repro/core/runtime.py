"""The affinity-alloc runtime facade (paper §3.3, §4.2, §5.1).

:class:`AffinityAllocator` is what an application links against.  It
exposes the two ``malloc_aff`` overloads of the paper:

* ``malloc_affine(AffineArray(...))`` — affine arrays with alignment
  constraints (Fig 8), returning an :class:`~repro.core.api.ArrayHandle`;
* ``malloc_irregular(size, aff_addrs)`` — irregular objects placed near a
  list of affinity addresses (Fig 10), returning a virtual address;

and a single ``free_aff`` that distinguishes affine arrays (recorded
metadata) from irregular objects (no metadata — interleaving inferred
from the owning pool, exactly as §5.1 describes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.diagnostics import (
    AffinityCountError,
    AllocationSizeError,
    Diagnostic,
    DoubleFreeError,
    LayoutError,
    OversizeError,
    PoolExhaustedError,
    Severity,
    Site,
    UnknownAddressError,
)
from repro.faults.plan import FaultKind
from repro.analysis.lifetime import AllocEvent
from repro.core.affine import AffineLayout, LayoutKind, PoolSpace, solve_affine_layout
from repro.core.api import AffineArray, ArrayHandle, alloc_plain_array
from repro.core.irregular import SlotPool
from repro.core.load import LoadTracker
from repro.core.policy import BankSelectPolicy, HybridPolicy
from repro.machine import Machine

__all__ = ["AffinityAllocator", "AllocStats"]


def _affinity_groups(alloc_ids: np.ndarray, banks: np.ndarray,
                     n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Group affinity banks by allocation in CSR form: ``(offsets,
    banks)`` with allocation ``i``'s banks at
    ``banks[offsets[i]:offsets[i + 1]]``.

    Linked CSR emits its entries in allocation order already, so the
    stable sort runs only for callers that do not; it keeps each group's
    banks in input order (their sum is exact in any order anyway).
    """
    if alloc_ids.size != banks.size:
        raise ValueError("alloc_ids and aff_addrs must have the same size")
    if alloc_ids.size and (int(alloc_ids.min()) < 0
                           or int(alloc_ids.max()) >= n):
        raise ValueError(f"alloc_ids must lie in [0, {n})")
    if bool((alloc_ids[1:] < alloc_ids[:-1]).any()):
        banks = banks[np.argsort(alloc_ids, kind="stable")]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(alloc_ids, minlength=n), out=offsets[1:])
    return offsets, banks


@dataclass
class AllocStats:
    """Observability counters for the runtime.

    Every allocation counts in exactly one of ``affine_allocs`` (placed
    in an interleave pool, paged included), ``irregular_allocs`` (placed
    in a slot pool) or ``fallbacks`` (placed on the baseline heap);
    ``paged_allocs``, ``degraded_allocs`` and ``injected_alloc_faults``
    are sub-counts of those.
    """

    affine_allocs: int = 0
    irregular_allocs: int = 0
    paged_allocs: int = 0
    fallbacks: int = 0
    degraded_allocs: int = 0       # served from a non-preferred pool
    injected_alloc_faults: int = 0  # ALLOC_FAIL events that fired
    padded: int = 0
    frees: int = 0
    heap_frees: int = 0
    reallocs: int = 0
    double_frees: int = 0
    unknown_frees: int = 0


@dataclass
class _AffineRecord:
    handle: ArrayHandle
    layout: AffineLayout
    start_slot: int = -1
    nslots: int = 0
    frames: List[int] = field(default_factory=list)  # pool slot vaddrs (paged)


class AffinityAllocator:
    """Affinity-aware allocation runtime for one machine/process."""

    def __init__(self, machine: Machine, policy: Optional[BankSelectPolicy] = None,
                 strict: bool = False, record_events: bool = False):
        """Args:
            machine: the simulated chip/process facade.
            policy: bank-selection policy for irregular allocations.
            strict: raise :class:`DoubleFreeError` /
                :class:`UnknownAddressError` on bad ``free_aff`` calls
                instead of only diagnosing them (warn is the default).
            record_events: keep an :class:`AllocEvent` trace in
                ``self.events`` for the afflint lifetime checker.
        """
        self.machine = machine
        self.pools = machine.pools
        self.mesh = machine.mesh
        self.policy = policy if policy is not None else HybridPolicy(5.0)
        self.load = LoadTracker(machine.num_banks)
        self.stats = AllocStats()
        self.strict = strict
        self.diagnostics: List[Diagnostic] = []
        self.events: Optional[List[AllocEvent]] = [] if record_events else None
        self._affine_spaces: Dict[int, PoolSpace] = {}
        self._slot_pools: Dict[int, SlotPool] = {}
        self._records: Dict[int, _AffineRecord] = {}
        self._freed_affine: set = set()

    # ------------------------------------------------------------------
    # Lifetime bookkeeping
    # ------------------------------------------------------------------
    def _note_event(self, op: str, vaddr: int, size: int = 0,
                    label: str = "") -> None:
        if self.events is not None:
            self.events.append(AllocEvent(op, vaddr, size, label))

    def record_use(self, vaddr: int, label: str = "") -> None:
        """Mark an address as referenced (for use-after-free checking)."""
        self._note_event("use", vaddr, label=label)

    def _trace_alloc(self, event: str, **args) -> None:
        """Emit one allocation instant to an attached tracer (no-op —
        one attribute load — on the untraced path)."""
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.instant(event, "alloc", args)

    def _bad_free(self, code: str, vaddr: int, message: str, hint: str) -> None:
        severity = Severity.ERROR if self.strict else Severity.WARNING
        self.diagnostics.append(Diagnostic(
            code, severity, Site("alloc", f"{vaddr:#x}"), message,
            fix_hint=hint))
        if code == "LIF001":
            self.stats.double_frees += 1
            if self.strict:
                raise DoubleFreeError(message)
        else:
            self.stats.unknown_frees += 1
            if self.strict:
                raise UnknownAddressError(message)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _space(self, intrlv: int) -> PoolSpace:
        if intrlv not in self._affine_spaces:
            self._affine_spaces[intrlv] = PoolSpace(self.pools, intrlv)
        return self._affine_spaces[intrlv]

    def _slot_pool(self, intrlv: int) -> SlotPool:
        if intrlv not in self._slot_pools:
            self._slot_pools[intrlv] = SlotPool(self.pools, intrlv)
        return self._slot_pools[intrlv]

    # ------------------------------------------------------------------
    # Affine path
    # ------------------------------------------------------------------
    def malloc_affine(self, spec: AffineArray, name: str = "") -> ArrayHandle:
        """Allocate an affine array per its alignment constraints (Fig 8)."""
        st = self.machine.faults
        if st is not None:
            ordinal = st.take_alloc_fault()
            if ordinal is not None:
                return self._affine_alloc_fault(spec, name, ordinal)
        layout = solve_affine_layout(spec, self.pools, self.mesh,
                                     self.machine.config.cache.line_bytes,
                                     self.machine.config.page_size)
        if layout.stride != spec.elem_size:
            self.stats.padded += 1
        try:
            if layout.kind is LayoutKind.FALLBACK:
                handle = self._heap_array(spec, layout, name)
            elif layout.kind is LayoutKind.POOL:
                handle = self._alloc_pool(spec, layout, name)
            else:
                handle = self._alloc_paged(spec, layout, name)
        except PoolExhaustedError:
            handle = self._affine_degraded(spec, layout, name)
        self._freed_affine.discard(handle.vaddr)
        self._note_event("alloc", handle.vaddr, handle.size_bytes, name)
        self._trace_alloc("malloc_affine", name=name,
                          kind=handle.layout.kind.value if handle.layout else "",
                          bytes=int(handle.size_bytes))
        return handle

    def _affine_alloc_fault(self, spec: AffineArray, name: str,
                            ordinal: int) -> ArrayHandle:
        """An armed ALLOC_FAIL ordinal fired: degrade to the baseline
        heap, exactly what a failed ``malloc_aff`` falls back to."""
        layout = AffineLayout(LayoutKind.FALLBACK, 0, 0, spec.elem_size,
                              reason="injected allocation failure",
                              code="alloc-fault")
        self.stats.injected_alloc_faults += 1
        handle = self._heap_array(spec, layout, name)
        st = self.machine.faults
        if st is not None:  # only armed sessions reach here, but guard
            st.note(
                FaultKind.ALLOC_FAIL, ordinal, "alloc-degraded",
                f"affine array {name or hex(handle.vaddr)} fell back to "
                f"the baseline heap")
        self._freed_affine.discard(handle.vaddr)
        self._note_event("alloc", handle.vaddr, handle.size_bytes, name)
        self._trace_alloc("malloc_affine", name=name, kind="fallback",
                          bytes=int(handle.size_bytes), injected_fault=True)
        return handle

    def _affine_degraded(self, spec: AffineArray, layout: AffineLayout,
                         name: str) -> ArrayHandle:
        """The chosen pool is exhausted: retry the array at every smaller
        interleave (largest first — closest to the solver's choice), then
        fall back to the baseline heap.  Smaller interleavings keep the
        array's alignment sets intact (any divisor of the solved
        interleave still satisfies Eq. 2's congruences), they just spread
        each alignment class over more banks."""
        st = self.machine.faults
        for intrlv in sorted((g for g in self.pools.interleaves
                              if g < layout.intrlv), reverse=True):
            degraded = AffineLayout(
                LayoutKind.POOL, intrlv, layout.start_bank, layout.stride,
                reason=f"degraded from {layout.intrlv}B after pool "
                       f"exhaustion", code="pool-degraded")
            try:
                handle = self._alloc_pool(spec, degraded, name)
            except PoolExhaustedError:
                continue
            self.stats.degraded_allocs += 1
            if st is not None:
                st.note(FaultKind.POOL_EXHAUST, layout.intrlv,
                        "pool-fallback",
                        f"affine array {name or '?'} re-laid at "
                        f"{intrlv}B interleave")
            return handle
        handle = self._heap_array(
            spec, AffineLayout(LayoutKind.FALLBACK, 0, 0, spec.elem_size,
                               reason="every interleave pool exhausted",
                               code="pool-degraded"), name)
        if st is not None:
            st.note(FaultKind.POOL_EXHAUST, layout.intrlv, "heap-fallback",
                    f"affine array {name or '?'} fell back to the "
                    f"baseline heap")
        return handle

    def _heap_array(self, spec: AffineArray, layout: AffineLayout,
                    name: str) -> ArrayHandle:
        """Back ``spec`` with the baseline heap under the FALLBACK
        ``layout`` (the solver's, or a degradation's)."""
        handle = alloc_plain_array(self.machine, spec.elem_size,
                                   spec.num_elem, name=name)
        handle.layout = layout
        self._records[handle.vaddr] = _AffineRecord(handle, layout)
        self.stats.fallbacks += 1
        return handle

    def _alloc_pool(self, spec: AffineArray, layout: AffineLayout,
                    name: str) -> ArrayHandle:
        size = (spec.num_elem - 1) * layout.stride + spec.elem_size
        nslots = -(-size // layout.intrlv)
        space = self._space(layout.intrlv)
        start_slot = space.alloc(nslots, layout.start_bank)
        vaddr = space.slot_vaddr(start_slot)
        handle = ArrayHandle(self.machine, vaddr, spec.elem_size,
                             spec.num_elem, stride=layout.stride,
                             name=name, layout=layout)
        paddr = self.machine.space.translate_one(vaddr)
        self.machine.llc.register_range(paddr, size)
        self._records[vaddr] = _AffineRecord(handle, layout, start_slot, nslots)
        self.stats.affine_allocs += 1
        return handle

    def _alloc_paged(self, spec: AffineArray, layout: AffineLayout,
                     name: str) -> ArrayHandle:
        """Beyond-page interleavings: virtual pages mapped to 4 KiB-pool
        frames on the desired bank (paper §4.1 footnote 4)."""
        page = self.machine.config.page_size
        chunk = layout.intrlv
        assert chunk % page == 0
        size = (spec.num_elem - 1) * layout.stride + spec.elem_size
        nchunks = -(-size // chunk)
        vaddr = self.machine.paged_reserve(nchunks * chunk)
        frame_pool = self._slot_pool(page)
        frames: List[int] = []
        pages_per_chunk = chunk // page
        try:
            for j in range(nchunks):
                bank = (layout.start_bank + j) % self.machine.num_banks
                for k in range(pages_per_chunk):
                    frame_va = frame_pool.alloc_on_bank(bank)
                    frame_pa = self.machine.space.translate_one(frame_va)
                    self.machine.paged_map(
                        vaddr + (j * pages_per_chunk + k) * page, frame_pa)
                    self.machine.llc.register_range(frame_pa, page)
                    frames.append(frame_va)
        except PoolExhaustedError:
            # The 4 KiB pool ran dry part way: hand back what was taken
            # before the caller's degrade ladder places the array anew.
            self._release_paged(vaddr, frames)
            raise
        handle = ArrayHandle(self.machine, vaddr, spec.elem_size,
                             spec.num_elem, stride=layout.stride,
                             name=name, layout=layout)
        self._records[vaddr] = _AffineRecord(handle, layout, frames=frames)
        self.stats.affine_allocs += 1
        self.stats.paged_allocs += 1
        return handle

    def malloc_offset(self, ref: ArrayHandle, delta: int,
                      name: str = "") -> ArrayHandle:
        """Allocate an array shaped like ``ref`` whose element-0 bank is
        ``ref``'s start bank plus ``delta`` banks.

        The Fig 4 "Δ Bank" control, promoted to a first-class primitive:
        the relayout scenarios use it to construct *deliberately* drifted
        placements that the online engine must detect and repair.  The
        clone shares ``ref``'s pool interleave and stride, so a ``delta``
        of zero is exactly an ``align_to=ref`` allocation.
        """
        assert ref.layout is not None
        nb = self.machine.num_banks
        layout = ref.layout
        if layout.kind is not LayoutKind.POOL:
            raise LayoutError("malloc_offset needs a pool-backed reference")
        new_layout = AffineLayout(LayoutKind.POOL, layout.intrlv,
                                  (layout.start_bank + delta) % nb,
                                  ref.stride, f"delta-bank {delta}")
        handle = self._alloc_pool(AffineArray(ref.elem_size, ref.num_elem),
                                  new_layout, name)
        self._freed_affine.discard(handle.vaddr)
        self._note_event("alloc", handle.vaddr, handle.size_bytes, name)
        self._trace_alloc("malloc_offset", name=name, delta=int(delta),
                          bytes=int(handle.size_bytes))
        return handle

    # ------------------------------------------------------------------
    # Irregular path
    # ------------------------------------------------------------------
    MAX_AFF_ADDRS = 32  # paper §5.1

    def malloc_irregular(self, size: int,
                         aff_addrs: Sequence[int] = ()) -> int:
        """Allocate ``size`` bytes near the given affinity addresses (Fig 10).

        Returns the object's virtual address.  The size is rounded up to a
        valid interleaving; the bank is chosen by the configured policy.
        """
        refs = self._banks_of(np.asarray(list(aff_addrs), dtype=np.int64))
        return int(self._place(size, np.array([refs.size]), refs,
                               "malloc_irregular", scalar=True)[0])

    def malloc_irregular_batch(self, size: int, aff_addrs: np.ndarray,
                               alloc_ids: np.ndarray, n: int) -> np.ndarray:
        """Batched :meth:`malloc_irregular` for data-structure builders.

        Semantically identical to ``n`` back-to-back calls (the policy
        sees each allocation's affinity and the evolving load), but
        vectorized so building a 300k-node Linked CSR stays fast, with
        two exceptions: the batch consumes no ALLOC_FAIL ordinal, and a
        slot degraded to the baseline heap returns its load charge only
        after the whole batch is selected.

        Args:
            size: allocation size (same for the whole batch).
            aff_addrs: flat array of affinity addresses for all
                allocations.
            alloc_ids: which allocation (``0..n-1``) each entry of
                ``aff_addrs`` belongs to.
            n: number of allocations.

        Returns the ``n`` virtual addresses in allocation order.
        """
        if n <= 0:
            raise AllocationSizeError("n must be positive")
        banks = self._banks_of(np.asarray(aff_addrs, dtype=np.int64))
        offsets, banks = _affinity_groups(
            np.asarray(alloc_ids, dtype=np.int64), banks, n)
        return self._place(size, np.diff(offsets), banks,
                           "malloc_irregular_batch")

    def malloc_irregular_chained(self, size: int, prev_ids: np.ndarray,
                                 head_addrs: Optional[np.ndarray] = None) -> np.ndarray:
        """Batched irregular allocation where each object's affinity is a
        *previously allocated object of the same batch* (linked-list
        appends, tree inserts: ``malloc_aff(sizeof(Node), 1, &prev)``).

        Args:
            size: allocation size (uniform).
            prev_ids: for allocation ``i``, the batch index of its affinity
                predecessor (< i), or -1 for a chain head.
            head_addrs: optional per-allocation affinity address used when
                ``prev_ids[i] == -1`` (e.g. a hash-bucket head); entries
                for non-heads are ignored; pass -1 for "no affinity".

        Returns the virtual addresses in allocation order.
        """
        prev_ids = np.asarray(prev_ids, dtype=np.int64)
        n = prev_ids.size
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if np.any(prev_ids >= np.arange(n)):
            raise ValueError("prev_ids must reference earlier allocations")
        # One-ref groups: -(p + 1) for predecessor p, the head's bank
        # for a head with an affinity address; other heads have none.
        refs = -(prev_ids + 1)
        sizes = (prev_ids >= 0).astype(np.int64)
        if head_addrs is not None:
            head_addrs = np.asarray(head_addrs, dtype=np.int64)
            valid = (prev_ids == -1) & (head_addrs >= 0)
            refs[valid] = self._banks_of(head_addrs[valid])
            sizes[valid] = 1
        return self._place(size, sizes, refs[sizes == 1],
                           "malloc_irregular_chained")

    def _banks_of(self, vaddrs: np.ndarray) -> np.ndarray:
        if vaddrs.size:
            return self.machine.banks_of(vaddrs)
        return np.empty(0, dtype=np.int64)

    def _fault_mask(self) -> Optional[np.ndarray]:
        st = self.machine.faults
        return st.policy_mask() if st is not None else None

    def _hop_rows(self) -> np.ndarray:
        """The policy's hop rows: the transposed hop table, so that row
        ``b`` holds every bank's distance to affinity bank ``b``."""
        return np.ascontiguousarray(self.mesh.hops_table().T,
                                    dtype=np.float64)

    def _place(self, size: int, sizes: np.ndarray, refs: np.ndarray,
               event: str, scalar: bool = False) -> np.ndarray:
        """The one placement step behind every irregular entry point.

        Allocation ``i`` has the affinity group ``sizes[i]`` of ``refs``
        (banks, or ``-(p + 1)`` for this batch's allocation ``p``; the
        form :meth:`BankSelectPolicy.select_batch` takes).  The step
        checks the input, picks one bank per allocation (Eq. 4), pops one
        slot per allocation from those banks' free lists in the size's
        interleave pool, degrades what an exhausted pool cannot serve,
        then counts, records and traces.  Only the scalar call consumes
        an ALLOC_FAIL ordinal (DESIGN §8).

        Returns the virtual addresses in allocation order.
        """
        if size <= 0:
            raise AllocationSizeError("size must be positive")
        if int(sizes.max()) > self.MAX_AFF_ADDRS:
            raise AffinityCountError(
                f"at most {self.MAX_AFF_ADDRS} affinity addresses; "
                "sample a subset (paper §5.1)")
        intrlv = self.pools.round_to_valid_interleave(size)
        if intrlv is None:
            raise OversizeError(
                f"irregular allocation of {size}B exceeds the largest "
                f"interleaving ({self.pools.interleaves[-1]}B); "
                "use an affine allocation instead")
        st = self.machine.faults
        if scalar and st is not None:
            ordinal = st.take_alloc_fault()
            if ordinal is not None:
                vaddr = self.machine.malloc(intrlv)
                self.stats.fallbacks += 1
                self.stats.injected_alloc_faults += 1
                st.note(FaultKind.ALLOC_FAIL, ordinal, "alloc-degraded",
                        "irregular allocation degraded to the baseline "
                        "heap")
                self._note_event("alloc", vaddr, intrlv, "irregular")
                return np.array([vaddr], dtype=np.int64)
        chosen = self.policy.select_batch(sizes, refs, self._hop_rows(),
                                          self.load, mask=self._fault_mask())
        try:
            vaddrs = self._slot_pool(intrlv).alloc_many_on_banks(chosen)
        except PoolExhaustedError:
            vaddrs, on_heap = self._slots_degraded(intrlv, chosen)
        else:
            self.machine.llc.register_by_banks(chosen, float(intrlv))
            on_heap = 0
        self.stats.irregular_allocs += chosen.size - on_heap
        if self.events is not None:
            for va in vaddrs.tolist():
                self._note_event("alloc", va, intrlv, "irregular")
        if scalar:
            self._trace_alloc(event, bytes=int(intrlv), bank=int(chosen[0]))
        else:
            self._trace_alloc(event, n=int(chosen.size), bytes=int(intrlv))
        return vaddrs

    def _slots_degraded(self, intrlv: int,
                        chosen: np.ndarray) -> Tuple[np.ndarray, int]:
        """The exact pool is exhausted: irregular objects fit in any slot
        >= their size, so serve each slot from its chosen bank in the
        exact pool, then every larger pool (wasting slack, never breaking
        Eq. 1), then the baseline heap, which returns the bank's load
        charge.  Returns the vaddrs and how many went to the heap."""
        st = self.machine.faults
        pools_to_try = [g for g in self.pools.interleaves if g >= intrlv]
        out = np.empty(chosen.size, dtype=np.int64)
        pool_fb = heap_fb = 0
        for i, bank in enumerate(np.asarray(chosen, dtype=np.int64).tolist()):
            vaddr = None
            for g in pools_to_try:
                try:
                    vaddr = self._slot_pool(g).alloc_on_bank(bank)
                except PoolExhaustedError:
                    continue
                self.machine.llc.register_by_banks(
                    np.asarray([bank], dtype=np.int64), float(g))
                if g != intrlv:
                    pool_fb += 1
                break
            if vaddr is None:
                vaddr = self.machine.malloc(intrlv)
                self.load.remove(bank)  # select_batch charged this bank
                heap_fb += 1
            out[i] = vaddr
        if pool_fb:
            self.stats.degraded_allocs += pool_fb
            if st is not None:
                st.note(FaultKind.POOL_EXHAUST, intrlv, "pool-fallback",
                        f"{pool_fb} irregular slot(s) served from larger "
                        f"pools")
        if heap_fb:
            self.stats.fallbacks += heap_fb
            if st is not None:
                st.note(FaultKind.POOL_EXHAUST, intrlv, "heap-fallback",
                        f"{heap_fb} irregular slot(s) degraded to the "
                        f"baseline heap")
        return out, heap_fb

    # ------------------------------------------------------------------
    # Unified malloc_aff / free_aff (paper signatures)
    # ------------------------------------------------------------------
    def malloc_aff(self, spec_or_size: Union[AffineArray, int],
                   aff_addrs: Sequence[int] = (), name: str = ""):
        """The paper's overloaded entry point.

        * ``malloc_aff(AffineArray(...))`` -> :class:`ArrayHandle`
        * ``malloc_aff(size, aff_addrs)``  -> virtual address (int)
        """
        if isinstance(spec_or_size, AffineArray):
            if aff_addrs:
                raise LayoutError("affinity addresses apply to irregular "
                                  "allocations only")
            return self.malloc_affine(spec_or_size, name=name)
        return self.malloc_irregular(int(spec_or_size), aff_addrs)

    def free_aff(self, obj: Union[int, ArrayHandle]) -> None:
        """Free either an affine array (by handle or base address) or an
        irregular object (by address).

        The runtime distinguishes them by checking the recorded affine
        arrays first (paper §5.1 "Free Data"); irregular objects carry no
        metadata — their interleaving is inferred from the owning pool.

        A double free or a free of a never-allocated address is diagnosed
        (``LIF001`` / ``LIF004``), counted in :class:`AllocStats`, and —
        under ``strict=True`` — raised as :class:`DoubleFreeError` /
        :class:`UnknownAddressError`; it is *never* silently treated as a
        baseline-heap free.
        """
        vaddr = obj.vaddr if isinstance(obj, ArrayHandle) else int(obj)
        self._trace_alloc("free_aff", vaddr=vaddr)
        rec = self._records.pop(vaddr, None)
        if rec is not None:
            self.stats.frees += 1
            self._freed_affine.add(vaddr)
            self._free_affine(rec)
            self._note_event("free", vaddr, label=rec.handle.name)
            return
        if vaddr in self._freed_affine:
            self._note_event("free", vaddr)
            self._bad_free("LIF001", vaddr,
                           f"double free of affine array at {vaddr:#x}",
                           "drop the second free_aff")
            return
        pool = self.pools.pool_containing(vaddr)
        if pool is not None:
            sp = self._slot_pool(pool.intrlv)
            state = sp.slot_state(vaddr)
            if state == "live":
                bank = sp.bank_of(vaddr)
                sp.free_slot(vaddr)
                self.load.remove(bank)
                paddr = self.machine.space.translate_one(vaddr)
                self.machine.llc.unregister_range(paddr, pool.intrlv)
                self.stats.frees += 1
                self._note_event("free", vaddr, label="irregular")
                return
            self._note_event("free", vaddr, label="irregular")
            if state == "freed":
                self._bad_free("LIF001", vaddr,
                               f"double free of irregular object at {vaddr:#x}",
                               "drop the second free_aff")
            else:
                self._bad_free("LIF004", vaddr,
                               f"free_aff of {vaddr:#x}, which the "
                               f"{pool.intrlv}B pool never handed out",
                               "free only addresses returned by malloc_aff")
            return
        if self.machine.heap_contains(vaddr):
            # Baseline-heap object (plain malloc freed through free_aff):
            # the bump heap does not reclaim, and it tracks no lifetimes,
            # so no lifetime event is recorded either.
            self.stats.frees += 1
            self.stats.heap_frees += 1
            return
        self._note_event("free", vaddr)
        self._bad_free("LIF004", vaddr,
                       f"free_aff of {vaddr:#x}, which was never allocated",
                       "free only addresses returned by malloc_aff/malloc")

    def _free_affine(self, rec: _AffineRecord) -> None:
        layout, handle = rec.layout, rec.handle
        if layout.kind is LayoutKind.POOL:
            self._space(layout.intrlv).free(rec.start_slot, rec.nslots)
            paddr = self.machine.space.translate_one(handle.vaddr)
            self.machine.llc.unregister_range(paddr, handle.size_bytes)
        elif layout.kind is LayoutKind.PAGED:
            self._release_paged(handle.vaddr, rec.frames)
        # FALLBACK: bump heap, nothing to reclaim.

    def _release_paged(self, vaddr: int, frames: Sequence[int]) -> None:
        """Unmap a paged array's pages from ``vaddr`` on (page ``i`` is
        backed by ``frames[i]``), return the frames to the 4 KiB pool and
        drop their LLC footprint."""
        self.machine.paged_unmap(vaddr, len(frames))
        page = self.machine.config.page_size
        frame_pool = self._slot_pool(page)
        for frame_va in frames:
            frame_pa = self.machine.space.translate_one(frame_va)
            self.machine.llc.unregister_range(frame_pa, page)
            frame_pool.free_slot(frame_va)

    def realloc_aff(self, vaddr: int, aff_addrs: Sequence[int] = ()) -> int:
        """Re-place an irregular object whose affinity changed (paper §8,
        "Dynamic Data Structures": if the runtime is aware of the data
        structure modification, the layout could be dynamically adjusted).

        Frees the object and allocates the same size class near the new
        affinity addresses; returns the new virtual address.  The caller
        owns updating its pointers (as with C ``realloc``).
        """
        pool = self.pools.pool_containing(vaddr)
        if pool is None:
            raise UnknownAddressError(f"{vaddr:#x} is not an irregular allocation")
        size = pool.intrlv
        self.free_aff(vaddr)
        new = self.malloc_irregular(size, aff_addrs)
        self.stats.reallocs += 1
        self._trace_alloc("realloc_aff", old=vaddr, new=int(new),
                          bytes=int(size))
        return new
