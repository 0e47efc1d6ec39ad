"""Shared L3 (NUCA LLC) model: bank mapping, footprints, and misses.

Mapping is the composition the paper describes: the IOT overrides the
default static-NUCA hash (1 KiB physical interleave) for physical ranges
that belong to interleave pools.  This module consumes *physical*
addresses; the VM layer translates virtual to physical first.

Capacity modelling is deliberately coarse (see DESIGN.md §5): each bank
tracks the resident footprint of distinct lines mapped to it; a workload's
miss ratio on a bank follows from footprint vs. capacity and the
workload's reuse pattern.  This reproduces the two capacity effects the
paper reports: the input-size scaling cliffs (Figs 15/16) and the Min-Hop
single-bank pathology on bin_tree (Fig 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.arch.iot import InterleaveOverrideTable
from repro.config import CacheConfig

__all__ = ["LlcModel", "RangeMove"]


@dataclass(frozen=True)
class RangeMove:
    """Result of :meth:`LlcModel.rehome_range`: which lines moved where."""

    old_banks: np.ndarray
    new_banks: np.ndarray
    moved_lines: int
    moved_bytes: float


class LlcModel:
    """Bank mapping plus per-bank footprint/miss accounting."""

    def __init__(self, num_banks: int, cache: CacheConfig,
                 iot: Optional[InterleaveOverrideTable] = None):
        self.num_banks = num_banks
        self.cache = cache
        self.iot = iot if iot is not None else InterleaveOverrideTable(num_banks, cache.iot_entries)
        self.default_shift = int(cache.default_interleave).bit_length() - 1
        if (1 << self.default_shift) != cache.default_interleave:
            raise ValueError("default_interleave must be a power of two")
        # Distinct resident lines per bank, tracked as sets of line ids in
        # chunked form: we only need footprint *bytes*, so a per-bank count
        # of distinct lines observed is enough.  Distinctness is
        # approximated by the caller registering data ranges once.
        self._footprint_bytes = np.zeros(num_banks, dtype=np.float64)

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def bank_of(self, paddr: int) -> int:
        return int(self.banks_of(np.asarray([paddr]))[0])

    def banks_of(self, paddrs: np.ndarray, raw: bool = False) -> np.ndarray:
        """Physical address(es) -> owning L3 bank id (vectorized).

        ``raw=True`` bypasses any fault-injection bank remap and returns
        the pre-fault mapping (used by the executor's fault guard to
        detect touches of failed banks).
        """
        return self.iot.banks(np.asarray(paddrs, dtype=np.int64),
                              self.default_shift, apply_remap=not raw)

    def rehome_bank(self, bank: int, replacement: int) -> float:
        """Retire ``bank`` onto ``replacement`` (chaos bank failure).

        Installs the IOT remap and migrates the failed bank's resident
        footprint onto the replacement, so capacity pressure (and hence
        miss fractions) degrade measurably.  Returns the bytes moved.
        """
        self.iot.retire_bank(bank, replacement)
        moved = float(self._footprint_bytes[bank])
        self._footprint_bytes[replacement] += moved
        self._footprint_bytes[bank] = 0.0
        return moved

    def rehome_range(self, paddr: int, size: int, shift: int,
                     offset: int) -> "RangeMove":
        """Re-home one physical range via an IOT migration override.

        The online re-layout primitive: unregister the range's footprint
        under the *current* mapping, install (or replace) a migration
        entry rotating its bank assignment, and re-register under the new
        mapping.  Returns the per-line old/new banks so the caller can
        charge migration traffic for exactly the lines that moved.
        """
        from repro.arch.iot import MigrationEntry
        line = self.cache.line_bytes
        start = paddr - (paddr % line)
        end = paddr + size
        nlines = (end - start + line - 1) // line
        line_addrs = start + np.arange(nlines, dtype=np.int64) * line
        old_banks = self.banks_of(line_addrs)
        self.unregister_range(paddr, size)
        self.iot.install_migration(
            MigrationEntry(start=paddr, end=paddr + size,
                           shift=shift, offset=offset))
        new_banks = self.banks_of(line_addrs)
        self.register_range(paddr, size)
        moved = old_banks != new_banks
        return RangeMove(old_banks=old_banks, new_banks=new_banks,
                         moved_lines=int(moved.sum()),
                         moved_bytes=float(moved.sum()) * float(line))

    def swap_banks(self, a: int, b: int) -> float:
        """Swap two banks' future mappings and their resident footprints.

        Returns the bytes moved (both directions) — the migration cost the
        relayout engine charges.
        """
        self.iot.swap_banks(a, b)
        fa = float(self._footprint_bytes[a])
        fb = float(self._footprint_bytes[b])
        self._footprint_bytes[a] = fb
        self._footprint_bytes[b] = fa
        return fa + fb

    # ------------------------------------------------------------------
    # Footprint / capacity
    # ------------------------------------------------------------------
    def register_range(self, paddr: int, size: int) -> None:
        """Account a physical range as resident data.

        Called once per allocated object/array; splits the range across
        banks according to the current mapping.  (Re-registering the same
        range would double-count — allocator owns that discipline.)
        """
        if size <= 0:
            return
        line = self.cache.line_bytes
        start = paddr - (paddr % line)
        end = paddr + size
        nlines = (end - start + line - 1) // line
        line_addrs = start + np.arange(nlines, dtype=np.int64) * line
        banks = self.banks_of(line_addrs)
        self._footprint_bytes += np.bincount(banks, minlength=self.num_banks) * float(line)

    def register_spans(self, paddrs: np.ndarray, sizes: np.ndarray) -> None:
        """Batched :meth:`register_range` for many physical spans at once.

        Expands every span to its line addresses, maps all of them in one
        IOT lookup, and folds the whole batch into the footprint with a
        single ``bincount``.  Line counts are exact integers, so the one
        combined float add equals the per-span adds bit for bit.
        """
        paddrs = np.asarray(paddrs, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        keep = sizes > 0
        if not keep.all():
            paddrs, sizes = paddrs[keep], sizes[keep]
        if paddrs.size == 0:
            return
        line = self.cache.line_bytes
        if line & (line - 1) == 0:
            # Power-of-two lines: mask and shift equal mod and floor
            # division bit for bit on int64.
            starts = paddrs - (paddrs & (line - 1))
            nlines = (paddrs + sizes - starts + line - 1) >> (line.bit_length() - 1)
        else:
            starts = paddrs - (paddrs % line)
            nlines = (paddrs + sizes - starts + line - 1) // line
        # Per-span aranges, flattened: offset within span i is
        # (global position) - (start position of span i).
        span_base = np.cumsum(nlines) - nlines
        within = np.arange(int(nlines.sum()), dtype=np.int64) \
            - np.repeat(span_base, nlines)
        line_addrs = np.repeat(starts, nlines) + within * line
        banks = self.banks_of(line_addrs)
        self._footprint_bytes += np.bincount(banks, minlength=self.num_banks) * float(line)

    def register_by_banks(self, banks: np.ndarray, bytes_each: float,
                          counts=1.0) -> None:
        """Batch footprint registration for objects wholly within one bank
        each (e.g. pool slots): ``counts[i]`` objects of ``bytes_each`` on
        ``banks[i]``."""
        banks = np.asarray(banks, dtype=np.int64)
        counts = np.broadcast_to(np.asarray(counts, dtype=np.float64), banks.shape)
        self._footprint_bytes += (
            np.bincount(banks, weights=counts, minlength=self.num_banks) * bytes_each)

    def unregister_range(self, paddr: int, size: int) -> None:
        if size <= 0:
            return
        line = self.cache.line_bytes
        start = paddr - (paddr % line)
        end = paddr + size
        nlines = (end - start + line - 1) // line
        line_addrs = start + np.arange(nlines, dtype=np.int64) * line
        banks = self.banks_of(line_addrs)
        self._footprint_bytes -= np.bincount(banks, minlength=self.num_banks) * float(line)
        np.clip(self._footprint_bytes, 0.0, None, out=self._footprint_bytes)

    @property
    def footprint_bytes(self) -> np.ndarray:
        return self._footprint_bytes.copy()

    def bank_miss_fraction(self) -> np.ndarray:
        """Fraction of accesses to each bank that miss due to capacity.

        A bank whose resident footprint fits in capacity has ~0 capacity
        misses; beyond that, accesses distributed over the footprint hit
        with probability capacity/footprint (random-replacement streaming
        approximation), so miss fraction = max(0, 1 - cap/footprint).
        """
        cap = float(self.cache.bank_capacity_bytes)
        fp = np.maximum(self._footprint_bytes, 1e-9)
        return np.clip(1.0 - cap / fp, 0.0, 1.0)

    def miss_fraction_for_banks(self, bank_access_counts: np.ndarray,
                                reuse_fraction: float = 1.0) -> float:
        """Aggregate L3 miss ratio for a run.

        Args:
            bank_access_counts: accesses issued to each bank.
            reuse_fraction: fraction of accesses that are re-references and
                thus *can* miss on capacity (cold first-touches always miss
                in reality, but the paper's miss% plots are about capacity
                behaviour, so cold misses are folded into the model
                constant by the perf layer).
        """
        counts = np.asarray(bank_access_counts, dtype=np.float64)
        total = counts.sum()
        if total <= 0:
            return 0.0
        per_bank = self.bank_miss_fraction()
        return float(np.dot(counts, per_bank) / total) * reuse_fraction
