"""Machine facade: one simulated process on one simulated chip.

A :class:`Machine` owns the pieces every layer of the paper's stack talks
to — the mesh, the IOT, the LLC mapping, the virtual address space with
its heap and interleave pools, and the DRAM model — and exposes the two
questions everything else asks:

* ``malloc`` / heap growth (the *baseline* allocator the paper compares
  against), and
* "which L3 bank owns this virtual address?" (vectorized).

The affinity allocator (:mod:`repro.core`) layers on top of the pool
manager; workloads and the stream executor only ever see the facade.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.arch.dram import DramModel
from repro.arch.energy import EnergyModel
from repro.arch.iot import InterleaveOverrideTable
from repro.arch.llc import LlcModel
from repro.arch.mesh import Mesh
from repro.arch.noc import TrafficAccountant
from repro.arch.address import align_up, alignment_shift, is_power_of_two
from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.perf import kernels
from repro.vm.layout import AddressSpace, LinearRegion, PagedRegion, VirtualLayout
from repro.vm.pools import PoolManager

__all__ = ["Machine"]

_RANDOM_HEAP_PBASE = 0x6000_0000_0000
_RANDOM_HEAP_FRAMES = 1 << 26  # 256 GiB of frames to draw from

#: ``(banks, lines, raw banks)`` of :meth:`Machine.resolve`.
Resolved = Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]

# Input kinds of the compiled resolver (``_ckernels.c``).
_ADDRS, _STRIDED, _GATHER = 0, 1, 2


class Machine:
    """Simulated chip + process address space.

    Args:
        config: hardware description (defaults to the paper's Table 2).
        heap_mode: how the conventional heap is backed —
            ``"linear"`` (contiguous physical, so the default 1 KiB NUCA
            interleave applies directly) or ``"random"`` (each virtual page
            mapped to a random physical page; the "Random" layout of
            Fig 4).
        seed: RNG seed for random page mapping.
    """

    def __init__(self, config: SystemConfig = DEFAULT_CONFIG,
                 heap_mode: str = "linear", seed: int = 0):
        self.config = config
        self.mesh = Mesh(config.noc.width, config.noc.height)
        self.iot = InterleaveOverrideTable(
            self.num_banks, config.cache.iot_entries,
            base_shift=min(alignment_shift(config.cache.line_bytes),
                           alignment_shift(config.page_size),
                           alignment_shift(config.cache.default_interleave)))
        self.llc = LlcModel(self.num_banks, config.cache, self.iot)
        self.dram = DramModel(self.mesh, config.dram)
        self.energy_model = EnergyModel(config.perf)
        self.space = AddressSpace()
        self.rng = np.random.default_rng(seed)

        if heap_mode not in ("linear", "random"):
            raise ValueError(f"unknown heap_mode {heap_mode!r}")
        self.heap_mode = heap_mode
        if heap_mode == "linear":
            self._heap = LinearRegion("heap", VirtualLayout.HEAP_VBASE,
                                      VirtualLayout.HEAP_PBASE,
                                      VirtualLayout.HEAP_SIZE)
        else:
            self._heap = PagedRegion("heap", VirtualLayout.HEAP_VBASE,
                                     VirtualLayout.HEAP_SIZE, config.page_size)
            self._used_frames = set()
        self.space.add(self._heap)
        self._heap_brk = 0  # bytes used from heap base
        self._heap_mapped_pages = 0

        # Page-granularity segment for beyond-page interleavings
        # (paper §4.1 footnote 4); pages are mapped on demand by the
        # affinity runtime's partitioned allocations.
        self.paged = PagedRegion("paged", VirtualLayout.PAGED_VBASE,
                                 VirtualLayout.PAGED_SIZE, config.page_size)
        self.space.add(self.paged)
        self._paged_brk = 0

        self.pools = PoolManager(self.space, self.iot, self.num_banks,
                                 config.page_size,
                                 interleaves=config.pool_interleaves)

        # Scenario layer states — chaos faults, online re-layout,
        # tracing, concurrent-host interference — populated by the
        # session protocol (repro.session, repro.scenario).  Each stays
        # None unless an active session of its kind attaches (an empty
        # host plan attaches nothing), and every hook is gated on that
        # None so clean runs execute the exact original instruction
        # stream.
        self.faults = None
        self.relayout = None
        self.tracer = None
        self.interference = None

    # ------------------------------------------------------------------
    @property
    def num_banks(self) -> int:
        return self.config.num_banks

    @property
    def num_cores(self) -> int:
        return self.config.num_cores

    def new_traffic(self) -> TrafficAccountant:
        return TrafficAccountant(self.mesh, self.config.noc)

    # ------------------------------------------------------------------
    # Baseline heap
    # ------------------------------------------------------------------
    def malloc(self, size: int, align: int = 64) -> int:
        """Baseline bump allocator (stands in for plain ``malloc``).

        Registers the range with the LLC footprint model; under
        ``heap_mode="random"`` newly touched pages get random frames.
        """
        if size <= 0:
            raise ValueError("malloc size must be positive")
        start = align_up(self._heap_brk, align)
        self._heap_brk = start + size
        if self._heap_brk > VirtualLayout.HEAP_SIZE:
            raise MemoryError("simulated heap exhausted")
        vaddr = VirtualLayout.HEAP_VBASE + start
        if self.heap_mode == "random":
            self._map_random_pages()
        self._register_heap_footprint(vaddr, size)
        return vaddr

    def _map_random_pages(self) -> None:
        page = self.config.page_size
        needed = -(-self._heap_brk // page)
        while self._heap_mapped_pages < needed:
            while True:
                frame_idx = int(self.rng.integers(0, _RANDOM_HEAP_FRAMES))
                if frame_idx not in self._used_frames:
                    self._used_frames.add(frame_idx)
                    break
            self._heap.map_page(self._heap_mapped_pages,
                                _RANDOM_HEAP_PBASE + frame_idx * page)
            self._heap_mapped_pages += 1

    def heap_contains(self, vaddr: int) -> bool:
        """True if ``vaddr`` falls inside the heap's *allocated* extent."""
        return (VirtualLayout.HEAP_VBASE <= vaddr
                < VirtualLayout.HEAP_VBASE + self._heap_brk)

    def _register_heap_footprint(self, vaddr: int, size: int) -> None:
        """Register an allocation with the LLC footprint model.

        Split page-wise (under ``heap_mode="random"`` every page has its
        own frame), but translated and folded into the footprint as one
        batch — the old per-page translate/register loop dominated large
        mallocs.
        """
        if size <= 0:
            return
        page = self.config.page_size
        end = vaddr + size
        inner = np.arange(align_up(vaddr + 1, page), end, page, dtype=np.int64)
        starts = np.concatenate(([vaddr], inner))
        ends = np.concatenate((inner, [end]))
        self.llc.register_spans(self.space.translate(starts), ends - starts)

    # ------------------------------------------------------------------
    # Paged segment (for partitioned / beyond-page interleavings)
    # ------------------------------------------------------------------
    def paged_reserve(self, size: int) -> int:
        """Reserve a virtual range in the paged segment; pages unmapped."""
        size = align_up(size, self.config.page_size)
        start = self._paged_brk
        self._paged_brk = start + size
        if self._paged_brk > VirtualLayout.PAGED_SIZE:
            raise MemoryError("paged segment exhausted")
        return VirtualLayout.PAGED_VBASE + start

    def paged_map(self, vaddr: int, frame_paddr: int) -> None:
        page = self.config.page_size
        if vaddr % page:
            raise ValueError("paged_map needs a page-aligned vaddr")
        self.paged.map_page((vaddr - VirtualLayout.PAGED_VBASE) // page, frame_paddr)

    def paged_unmap(self, vaddr: int, npages: int) -> None:
        """Unmap ``npages`` pages from the page-aligned ``vaddr`` on; the
        virtual reservation itself stays (the segment is a bump)."""
        page = self.config.page_size
        self.paged.unmap_pages((vaddr - VirtualLayout.PAGED_VBASE) // page,
                               npages)

    # ------------------------------------------------------------------
    # Address queries
    # ------------------------------------------------------------------
    def translate(self, vaddrs) -> np.ndarray:
        return self.space.translate(vaddrs)

    def resolve(self, where, idx=None, *, lines: bool = False,
                raw: bool = False) -> Resolved:
        """Owning L3 bank of each element: the full hardware path of
        page translation, then the IOT's Eq. 1 hash, migration entries
        and fault remap.  Also the physical cache line (``lines``) and
        the pre-remap bank (``raw``, what the fault guard checks) when
        asked.

        ``where`` is an array of virtual addresses when ``idx`` is None;
        otherwise a handle whose elements ``idx`` selects: an
        :class:`~repro.core.api.ArrayHandle` (``vaddr + stride * i``,
        bounds-checked) or an :class:`~repro.core.api.AddressView`
        (entries of its address array).

        The active kernel backend runs this as one compiled loop when it
        has one (``resolve`` in :mod:`repro.perf.kernels.cbackend`);
        otherwise, and whenever the loop rejects an element, the numpy
        chain :meth:`_resolve_chain` runs, so a bad index or an unmapped
        address raises the chain's own ``IndexError``/``RuntimeError``.

        Returns ``(banks, lines, raw)``, None for what was not asked,
        each shaped like ``np.atleast_1d`` of the addresses.
        """
        loop = getattr(kernels.get_backend(), "resolve", None)
        if loop is not None:
            out = self._resolve_compiled(loop, where, idx, lines, raw)
            if out is not None:
                return out
        return self._resolve_chain(where, idx, lines=lines, raw=raw)

    def _resolve_compiled(self, loop, where, idx, lines: bool,
                          raw: bool) -> Optional[Resolved]:
        """:meth:`resolve` through the backend's loop; None where the
        numpy chain has to answer."""
        from repro.core.api import ArrayHandle  # local: api imports us
        iot = self.iot.resolver_table()
        if iot is None:
            return None
        kind, base, stride, count, table = _ADDRS, 0, 0, 0, None
        src = where if idx is None else idx
        if isinstance(where, ArrayHandle):
            kind, base = _STRIDED, int(where.vaddr)
            stride, count = int(where.stride), int(where.num_elem)
        elif idx is not None:  # an AddressView
            kind, count = _GATHER, where.num_elem
            table = np.ascontiguousarray(where.addrs)
        src = np.atleast_1d(np.asarray(src, dtype=np.int64))
        out = loop(self.space.resolver_table(), iot, self.llc.default_shift,
                   self.config.cache.line_bytes, kind, src.ravel(), base,
                   stride, count, table, lines, raw)
        if out is None or src.ndim == 1:
            return out
        return tuple(None if a is None else a.reshape(src.shape)
                     for a in out)

    def _resolve_chain(self, where, idx=None, *, lines: bool = False,
                       raw: bool = False) -> Resolved:
        """:meth:`resolve` as the numpy chain: the python
        implementation, and the oracle the compiled loop must match."""
        addrs = where if idx is None else where.addr_of(idx)
        paddrs = self.space.translate(addrs)
        raw_banks = self.llc.banks_of(paddrs, raw=True) if raw else None
        banks = self.llc.banks_of(paddrs)
        line_ids = None
        if lines:
            line = self.config.cache.line_bytes
            line_ids = (paddrs >> (line.bit_length() - 1)
                        if is_power_of_two(line) else paddrs // line)
        return banks, line_ids, raw_banks

    def banks_of(self, vaddrs) -> np.ndarray:
        """Virtual address(es) -> owning L3 bank id (the full HW path:
        page translation, then IOT-aware bank hash)."""
        return self.resolve(vaddrs)[0]

    def bank_of(self, vaddr: int) -> int:
        return int(self.banks_of(np.asarray([vaddr]))[0])
