"""Virtual address space map and translation.

The simulator uses real integer addresses (they index nothing — data lives
in numpy arrays owned by the data structures) so that bank mapping, IOT
lookup, and allocator arithmetic behave exactly as in the paper.

Three region kinds cover every mapping the paper needs:

* ``LinearRegion`` — virtual range mapped to one contiguous physical
  range.  Used for the heap (baseline malloc) and for every interleave
  pool (paper §4.1 "backed by contiguous physical addresses similar to a
  segment").
* ``PagedRegion`` — per-4-KiB-page mapping.  Used for the "Random" layout
  of Fig 4 (each virtual page -> random physical page) and for
  beyond-page-size interleavings (paper footnote 4: virtual pages mapped
  to 4 KiB-interleaved physical pages at the desired bank).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.arch.address import AddressRange

__all__ = ["LinearRegion", "PagedRegion", "AddressSpace", "VirtualLayout"]


class LinearRegion:
    """Contiguous virtual->physical mapping (segment-style)."""

    def __init__(self, name: str, vbase: int, pbase: int, size: int):
        self.name = name
        self.vrange = AddressRange(vbase, vbase + size)
        self.pbase = pbase

    def translate(self, vaddrs: np.ndarray) -> np.ndarray:
        return vaddrs - self.vrange.start + self.pbase

    def __repr__(self) -> str:
        return f"LinearRegion({self.name}, v={self.vrange.start:#x}+{self.vrange.size:#x})"


class PagedRegion:
    """Per-page virtual->physical mapping.

    The page table is a growable numpy array of frame base addresses; a
    frame of -1 means unmapped (touching it raises, like a segfault).
    """

    def __init__(self, name: str, vbase: int, size: int, page_size: int = 4096):
        if size % page_size:
            raise ValueError("PagedRegion size must be page aligned")
        self.name = name
        self.vrange = AddressRange(vbase, vbase + size)
        self.page_size = page_size
        # Power-of-two pages (the only kind configs use) translate with a
        # shift and a mask; both equal `//`/`%` bit for bit on int64.
        if page_size & (page_size - 1) == 0:
            self._page_shift = page_size.bit_length() - 1
        else:
            self._page_shift = None
        self.max_pages = size // page_size
        # Growable frame table: only as large as the highest mapped page
        # (the reservation is 1 TiB; preallocating it would be absurd).
        self._frames = np.empty(0, dtype=np.int64)

    def _grow_to(self, npages: int) -> None:
        if npages <= self._frames.size:
            return
        cap = max(npages, self._frames.size * 2, 64)
        grown = np.full(min(cap, self.max_pages), -1, dtype=np.int64)
        grown[:self._frames.size] = self._frames
        self._frames = grown

    def map_page(self, vpage_index: int, frame_paddr: int) -> None:
        if frame_paddr % self.page_size:
            raise ValueError("frame must be page aligned")
        if not (0 <= vpage_index < self.max_pages):
            raise ValueError("page index outside the region")
        self._grow_to(vpage_index + 1)
        self._frames[vpage_index] = frame_paddr

    def unmap_pages(self, first: int, count: int) -> None:
        """Mark ``count`` pages from index ``first`` unmapped.  Edits the
        frame table in place, so the compiled resolver's table stays
        valid."""
        self._frames[first:first + count] = -1

    def translate(self, vaddrs: np.ndarray) -> np.ndarray:
        offs = vaddrs - self.vrange.start
        if self._page_shift is not None:
            pages = offs >> self._page_shift
            in_page = offs & (self.page_size - 1)
        else:
            pages = offs // self.page_size
            in_page = offs % self.page_size
        # take() bounds-checks the gather itself, so the only extra
        # validity pass left is the unmapped-frame min(); full boolean
        # masks are only materialized on the error paths.
        try:
            frames = self._frames.take(pages)
        except IndexError:
            bad = vaddrs[pages >= self._frames.size][0]
            raise RuntimeError(f"access to unmapped page in {self.name}: "
                               f"{int(bad):#x}") from None
        if frames.size and int(frames.min()) < 0:
            bad = vaddrs[frames < 0][0]
            raise RuntimeError(f"access to unmapped page in {self.name}: {int(bad):#x}")
        return frames + in_page

    def __repr__(self) -> str:
        return f"PagedRegion({self.name}, v={self.vrange.start:#x}+{self.vrange.size:#x})"


class AddressSpace:
    """Sorted collection of non-overlapping regions with vectorized translate."""

    def __init__(self):
        self._regions: List = []
        self._starts = np.empty(0, dtype=np.int64)
        self._ends = np.empty(0, dtype=np.int64)
        # Per-region linear deltas (pbase - vbase) let translate() handle
        # every LinearRegion — the heap and all interleave pools — as one
        # fancy-indexed add; only PagedRegions need a per-region call.
        self._deltas = np.empty(0, dtype=np.int64)
        self._paged_ids: List[int] = []
        # (table, its address, the page tables it points at) for the
        # compiled resolver; see resolver_table().
        self._table: Optional[Tuple[np.ndarray, int, list]] = None

    def add(self, region) -> None:
        for r in self._regions:
            if r.vrange.overlaps(region.vrange):
                raise ValueError(f"{region} overlaps {r}")
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.vrange.start)
        self._starts = np.array([r.vrange.start for r in self._regions], dtype=np.int64)
        self._ends = np.array([r.vrange.end for r in self._regions], dtype=np.int64)
        self._deltas = np.array(
            [r.pbase - r.vrange.start if isinstance(r, LinearRegion) else 0
             for r in self._regions], dtype=np.int64)
        self._paged_ids = [i for i, r in enumerate(self._regions)
                           if not isinstance(r, LinearRegion)]
        self._table = None

    def __getstate__(self):
        # The resolver table holds addresses of this process' arrays.
        return {**self.__dict__, "_table": None}

    def resolver_table(self) -> int:
        """Address of the region table the compiled resolver reads: the
        region count, then per region (in start order) its start, end,
        ``pbase - vbase``, and for a paged region the address and length
        of its page table, its page shift (-1 when the page size is no
        power of two) and page size (four zeros for a linear region).

        Cached.  Adding a region or growing a page table (which
        reallocates it) rebuilds the table; a page mapped in place needs
        nothing, since the table points at the live frames."""
        t = self._table
        if t is not None:
            for region, frames in t[2]:
                if region._frames is not frames:
                    break
            else:
                return t[1]
        rows = [len(self._regions)]
        seen = []
        for r, delta in zip(self._regions, self._deltas.tolist()):
            rows += [r.vrange.start, r.vrange.end, delta]
            if isinstance(r, LinearRegion):
                rows += [0, 0, 0, 0]
            else:
                shift = -1 if r._page_shift is None else r._page_shift
                rows += [r._frames.ctypes.data, r._frames.size, shift,
                         r.page_size]
                seen.append((r, r._frames))
        table = np.array(rows, dtype=np.int64)
        self._table = (table, table.ctypes.data, seen)
        return self._table[1]

    def translate(self, vaddrs) -> np.ndarray:
        """Virtual -> physical for scalar or array addresses.

        One ``searchsorted`` locates every address's region; linear
        regions (the common case: heap + every interleave pool) then
        translate in a single fancy-indexed add, and only paged regions
        fall back to a per-region page-table gather.
        """
        vaddrs = np.atleast_1d(np.asarray(vaddrs, dtype=np.int64))
        if vaddrs.size:
            # Fast path: a batch whose [min, max] fits one region (almost
            # every executor call — a trace walks one array) needs two
            # O(n) reductions and one scalar bisect instead of the
            # per-address searchsorted and gathers below.  Regions never
            # overlap, so min/max inside region i puts every address in i.
            lo = int(vaddrs.min())
            i = int(np.searchsorted(self._starts, lo, side="right")) - 1
            if i >= 0 and lo >= self._starts[i] \
                    and int(vaddrs.max()) < self._ends[i]:
                region = self._regions[i]
                if isinstance(region, LinearRegion):
                    return vaddrs + self._deltas[i]
                return region.translate(vaddrs)
        idx = np.searchsorted(self._starts, vaddrs, side="right") - 1
        if (idx < 0).any():
            bad = vaddrs[idx < 0][0]
            raise RuntimeError(f"unmapped virtual address {int(bad):#x}")
        oob = vaddrs >= self._ends[idx]
        if oob.any():
            # Report what the old per-region loop reported: lowest region
            # id first, then first offender in array order within it.
            rid = int(idx[oob].min())
            bad = vaddrs[oob & (idx == rid)][0]
            raise RuntimeError(f"unmapped virtual address {int(bad):#x}")
        out = vaddrs + self._deltas[idx]
        for rid in self._paged_ids:
            mask = idx == rid
            if mask.any():
                out[mask] = self._regions[rid].translate(vaddrs[mask])
        return out

    def translate_one(self, vaddr: int) -> int:
        return int(self.translate(np.asarray([vaddr]))[0])


class VirtualLayout:
    """Fixed virtual-layout constants for a simulated process.

    Mirrors the paper: 7 interleave pools of 1 TiB each (~2.7% of the
    48-bit space), plus a conventional heap and a paged segment for
    page-granularity mappings.
    """

    TIB = 1 << 40

    HEAP_VBASE = 0x0100_0000_0000
    HEAP_SIZE = TIB
    PAGED_VBASE = 0x0300_0000_0000
    PAGED_SIZE = TIB
    POOL_VBASE = 0x1000_0000_0000
    POOL_STRIDE = TIB  # 1 TiB reserved per pool

    # Physical windows (a 48-bit paper machine; purely arithmetic here).
    HEAP_PBASE = 0x0000_1000_0000
    POOL_PBASE = 0x2000_0000_0000
    POOL_PSTRIDE = TIB
    PAGED_PBASE = 0x5000_0000_0000

    @classmethod
    def pool_vbase(cls, pool_index: int) -> int:
        return cls.POOL_VBASE + pool_index * cls.POOL_STRIDE

    @classmethod
    def pool_pbase(cls, pool_index: int) -> int:
        return cls.POOL_PBASE + pool_index * cls.POOL_PSTRIDE
