"""Interleave Override Table (paper Table 1, Eq. 1).

Each L2/L3 cache controller holds a small table whose entries override the
default physical-address-to-bank hash for one physical range::

    bank(addr) = floor((addr - start) / intrlv)  mod  num_banks      (Eq. 1)

One entry covers one interleave pool, because the OS backs every pool with
contiguous physical pages (paper 4.1), so 7 pools need only 7 of the 16
entries.  Lookups are vectorized: the executor maps millions of addresses
per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.arch.address import alignment_shift, is_power_of_two

__all__ = ["IotEntry", "MigrationEntry", "InterleaveOverrideTable"]


@dataclass(frozen=True)
class IotEntry:
    """One override region: physical ``[start, end)`` with ``intrlv`` bytes.

    Mirrors Table 1 of the paper: 48-bit start/end, 16-bit interleave.
    """

    start: int
    end: int
    intrlv: int

    def __post_init__(self):
        if not (0 <= self.start < self.end < (1 << 48)):
            raise ValueError(f"IOT range must be within 48-bit space: [{self.start:#x}, {self.end:#x})")
        if not (0 < self.intrlv < (1 << 16) + 1):
            raise ValueError(f"IOT interleave must fit 16 bits, got {self.intrlv}")
        if not is_power_of_two(self.intrlv):
            # The hardware divides with a right shift (paper 4.1);
            # non-power-of-two interleavings are explicitly future work.
            raise ValueError(f"IOT interleave must be a power of two, got {self.intrlv}")

    def covers(self, addr: int) -> bool:
        return self.start <= addr < self.end


@dataclass(frozen=True)
class MigrationEntry:
    """One migration override: rotate banks of physical ``[start, end)``.

    ``bank(addr) = ((addr - start) >> shift) + offset  mod  num_banks``
    — the same Eq. 1 hash as a pool entry, plus a constant bank offset.
    Installing one over a pool-backed array *rotates* the array's round-
    robin bank assignment by ``offset - original_offset`` banks, which is
    exactly the re-homing primitive online re-layout needs: no data
    format change, just a different owner per slot.
    """

    start: int
    end: int
    shift: int
    offset: int

    def __post_init__(self):
        if not (0 <= self.start < self.end < (1 << 48)):
            raise ValueError(
                f"migration range must be within 48-bit space: "
                f"[{self.start:#x}, {self.end:#x})")
        if self.shift < 0:
            raise ValueError("migration shift must be non-negative")
        if self.offset < 0:
            raise ValueError("migration offset must be non-negative")


class InterleaveOverrideTable:
    """Fixed-capacity override table queried on every L2 miss / L3 access."""

    def __init__(self, num_banks: int, capacity: int = 16,
                 base_shift: int = 47):
        if num_banks <= 0:
            raise ValueError("num_banks must be positive")
        if base_shift < 0:
            raise ValueError("base_shift must be non-negative")
        self.num_banks = num_banks
        # log2 of the largest aligned block the caller's other mappings
        # keep whole — the cache line, the page and the static-NUCA
        # default interleave the caller passes to :meth:`banks`; caps
        # :meth:`granule_shift`.
        self.base_shift = base_shift
        self._granule: Optional[int] = None
        # Power-of-two bank counts (every paper config) take the mod as a
        # bit mask; `&` equals `%` bit for bit on int64 for a positive
        # power-of-two modulus, and skips the integer-division microcode.
        self._bank_mask = num_banks - 1 if is_power_of_two(num_banks) else None
        self.capacity = capacity
        self._entries: List[IotEntry] = []
        # Parallel numpy views for vectorized lookup, rebuilt on mutation.
        # Sorted by start address (entries never overlap, so start order is
        # total): one searchsorted per lookup batch replaces the old
        # per-entry mask sweep.
        self._starts = np.empty(0, dtype=np.int64)
        self._ends = np.empty(0, dtype=np.int64)
        self._shifts = np.empty(0, dtype=np.int64)
        self._sorted_entries: List[IotEntry] = []
        # Migration-override entries (online re-layout): each rotates the
        # bank assignment of one physical range by a fixed offset without
        # touching the pool entries above.  Kept as a separate small table
        # (the hardware analogue: a handful of shadow IOT entries staged
        # by the migration engine) and applied after the pool hash but
        # before any fault remap, so re-layout composes with re-homing.
        self._mig: List["MigrationEntry"] = []
        self.migration_capacity = 8
        # Bank-remap vector (chaos fault injection): when a bank fails,
        # the runtime "re-homes" its traffic by retiring the bank here —
        # every lookup's final bank id passes through the vector.  None
        # on the (overwhelmingly common) healthy path, which therefore
        # executes the exact original instruction sequence.
        self._remap: Optional[np.ndarray] = None
        # (table, its address) for the compiled resolver, or (None,
        # None) when a value does not fit int64; see resolver_table().
        self._table: Optional[tuple] = None

    # ------------------------------------------------------------------
    @property
    def entries(self) -> List[IotEntry]:
        return list(self._entries)

    def install(self, entry: IotEntry) -> None:
        """Install an entry; ranges must not overlap existing ones."""
        if len(self._entries) >= self.capacity:
            raise RuntimeError(f"IOT full ({self.capacity} entries)")
        for existing in self._entries:
            if entry.start < existing.end and existing.start < entry.end:
                raise ValueError(
                    f"IOT entry [{entry.start:#x},{entry.end:#x}) overlaps "
                    f"[{existing.start:#x},{existing.end:#x})"
                )
        self._entries.append(entry)
        self._rebuild()

    def update_end(self, start: int, new_end: int) -> None:
        """Grow the region beginning at ``start`` (pool expansion)."""
        for i, e in enumerate(self._entries):
            if e.start == start:
                if new_end < e.end:
                    raise ValueError("IOT regions only grow")
                self._entries[i] = IotEntry(e.start, new_end, e.intrlv)
                self._rebuild()
                return
        raise KeyError(f"no IOT entry starting at {start:#x}")

    def _changed(self) -> None:
        """Drop what is derived from the entry tables and the remap."""
        self._granule = None
        self._table = None

    def __getstate__(self):
        # The resolver table holds addresses of this process' arrays.
        return {**self.__dict__, "_table": None}

    def _rebuild(self) -> None:
        self._changed()
        self._sorted_entries = sorted(self._entries, key=lambda e: e.start)
        self._starts = np.array([e.start for e in self._sorted_entries], dtype=np.int64)
        self._ends = np.array([e.end for e in self._sorted_entries], dtype=np.int64)
        self._shifts = np.array(
            [int(e.intrlv).bit_length() - 1 for e in self._sorted_entries],
            dtype=np.int64
        )

    # ------------------------------------------------------------------
    def lookup(self, addr: int) -> Optional[IotEntry]:
        """Return the entry covering ``addr``, if any."""
        i = int(np.searchsorted(self._starts, addr, side="right")) - 1
        if i >= 0 and addr < self._ends[i]:
            return self._sorted_entries[i]
        return None

    def retire_bank(self, bank: int, replacement: int) -> None:
        """Re-home ``bank`` onto ``replacement`` for every future lookup.

        Installs (or updates) the bank-remap vector.  Existing chains are
        rewritten — if ``replacement`` itself later fails, banks that were
        re-homed onto it follow it to its new home — so the vector never
        maps onto a retired bank.
        """
        if not (0 <= bank < self.num_banks and 0 <= replacement < self.num_banks):
            raise ValueError("bank ids out of range")
        if bank == replacement:
            raise ValueError("cannot re-home a bank onto itself")
        if self._remap is None:
            self._remap = np.arange(self.num_banks, dtype=np.int64)
            self._changed()
        self._remap[self._remap == bank] = replacement

    def remap_banks(self, banks: np.ndarray) -> np.ndarray:
        """Apply the active bank remap to explicit bank ids.

        Identity when healthy.  The host-interference engine routes its
        plan's bank targets through this so injected host traffic follows
        chaos re-homes exactly like NDC traffic does (addresses take the
        same remap inside :meth:`banks`).
        """
        banks = np.asarray(banks, dtype=np.int64)
        if banks.size and (banks.min() < 0 or banks.max() >= self.num_banks):
            raise ValueError("bank ids out of range")
        if self._remap is None:
            return banks
        return self._remap[banks]

    # ------------------------------------------------------------------
    # Migration overrides (online re-layout)
    # ------------------------------------------------------------------
    def install_migration(self, entry: MigrationEntry) -> None:
        """Install (or replace) a migration override.

        An entry with the same ``start`` replaces the previous one — the
        engine re-rotating an already-migrated array updates in place, so
        repeated migrations of one array never exhaust the table.  New
        ranges must not overlap other migration entries.
        """
        for i, existing in enumerate(self._mig):
            if existing.start == entry.start:
                self._mig[i] = entry
                self._changed()
                return
            if entry.start < existing.end and existing.start < entry.end:
                raise ValueError(
                    f"migration entry [{entry.start:#x},{entry.end:#x}) "
                    f"overlaps [{existing.start:#x},{existing.end:#x})")
        if len(self._mig) >= self.migration_capacity:
            raise RuntimeError(
                f"migration table full ({self.migration_capacity} entries)")
        self._mig.append(entry)
        self._changed()

    def granule_shift(self) -> int:
        """log2 of the bank-mapping granule: the largest power of two
        ``G`` such that every ``G``-aligned physical block maps to one
        bank (before and after any fault remap) and lies inside one
        cache line and one page.

        The smallest of ``base_shift``, every entry's interleave shift,
        and the trailing-zero count of every entry's start and end — so
        sub-line migration shifts and misaligned migration ranges shrink
        the granule instead of splitting it.  Cached; every mutation of
        the entry tables invalidates it.
        """
        if self._granule is None:
            g = self.base_shift
            for e in self._entries:
                g = min(g, int(e.intrlv).bit_length() - 1,
                        alignment_shift(e.start), alignment_shift(e.end))
            for m in self._mig:
                g = min(g, m.shift, alignment_shift(m.start),
                        alignment_shift(m.end))
            self._granule = g
        return self._granule

    def swap_banks(self, a: int, b: int) -> None:
        """Swap every future lookup of banks ``a`` and ``b``.

        Composes a transposition onto the remap vector's *outputs*: data
        currently homed on the hot bank moves to the cold one and vice
        versa.  Unlike :meth:`retire_bank` this is load-neutral in count —
        it trades two banks' positions, it does not merge them.
        """
        if not (0 <= a < self.num_banks and 0 <= b < self.num_banks):
            raise ValueError("bank ids out of range")
        if a == b:
            raise ValueError("cannot swap a bank with itself")
        if self._remap is None:
            self._remap = np.arange(self.num_banks, dtype=np.int64)
        t = np.arange(self.num_banks, dtype=np.int64)
        t[a], t[b] = b, a
        self._remap = t[self._remap]
        self._changed()

    def resolver_table(self) -> Optional[int]:
        """Address of the table the compiled resolver reads: bank
        count, bank mask (-1 when the count is no power of two), entry
        and migration counts, the remap vector's address (0 when
        healthy), then ``(start, end, shift)`` per entry in start order
        and ``(start, end, shift, offset)`` per migration in install
        order.  None when a migration value does not fit int64 (the
        numpy chain then raises on it).

        Cached; every mutation of the entry tables or the remap drops
        it, where it drops the granule."""
        if self._table is None:
            rows = [self.num_banks,
                    -1 if self._bank_mask is None else self._bank_mask,
                    len(self._sorted_entries), len(self._mig),
                    0 if self._remap is None else self._remap.ctypes.data]
            for e in self._sorted_entries:
                rows += [e.start, e.end, int(e.intrlv).bit_length() - 1]
            for m in self._mig:
                rows += [m.start, m.end, m.shift, m.offset]
            try:
                table = np.array(rows, dtype=np.int64)
            except OverflowError:
                self._table = (None, None)
            else:
                self._table = (table, table.ctypes.data)
        return self._table[1]

    def _apply_migrations(self, addrs: np.ndarray,
                          banks: np.ndarray) -> np.ndarray:
        mask = self._bank_mask
        for e in self._mig:
            m = (addrs >= e.start) & (addrs < e.end)
            if m.any():
                override = ((addrs[m] - e.start) >> e.shift) + e.offset
                banks[m] = (override & mask if mask is not None
                            else override % self.num_banks)
        return banks

    def banks(self, addrs: np.ndarray, default_shift: int,
              apply_remap: bool = True) -> np.ndarray:
        """Map physical addresses to bank ids (Eq. 1), vectorized.

        Addresses outside every override region use the default static-NUCA
        interleave ``1 << default_shift`` starting at physical 0 — the
        baseline Table 2 mapping.

        One ``searchsorted`` over the sorted range table finds every
        address's candidate entry; ranges never overlap, so "start is the
        nearest at-or-below AND addr < end" is exact membership.

        ``apply_remap=False`` returns the *raw* (pre-fault) mapping; the
        executor's fault guard uses it to detect touches of failed banks.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        banks = self._banks_raw(addrs, default_shift)
        if self._mig:
            banks = self._apply_migrations(addrs, banks)
        if apply_remap and self._remap is not None:
            return self._remap[banks]
        return banks

    def _banks_raw(self, addrs: np.ndarray, default_shift: int) -> np.ndarray:
        addrs = np.asarray(addrs, dtype=np.int64)
        mask = self._bank_mask
        lo = hi = None
        if self._starts.size and addrs.size:
            # Fast path: a batch wholly inside one entry (the usual case —
            # a trace walks one pool-backed array) skips the default-hash
            # pass and the membership masking below.
            lo = int(addrs.min())
            hi = int(addrs.max())
            i = int(np.searchsorted(self._starts, lo, side="right")) - 1
            if i >= 0 and hi < self._ends[i]:
                override = (addrs - self._starts[i]) >> self._shifts[i]
                return (override & mask if mask is not None
                        else override % self.num_banks)
        if mask is not None:
            banks = (addrs >> default_shift) & mask
        else:
            banks = (addrs >> default_shift) % self.num_banks
        if 0 < self._starts.size <= 8:
            # Few entries (every paper config: 7 pools): E linear range
            # masks beat one binary search per address — measured ~1.4x
            # on mixed 500k batches.  Ranges are disjoint, so per-entry
            # scatter order can't matter.  The batch's [lo, hi] span
            # (already reduced above) skips entries it cannot touch
            # with two scalar compares instead of a full mask pass.
            for start, end, shift in zip(self._starts, self._ends,
                                         self._shifts):
                if lo is not None and (end <= lo or start > hi):
                    continue
                m = (addrs >= start) & (addrs < end)
                if m.any():
                    override = (addrs[m] - start) >> shift
                    banks[m] = (override & mask if mask is not None
                                else override % self.num_banks)
        elif self._starts.size:
            idx = np.searchsorted(self._starts, addrs, side="right") - 1
            cand = np.maximum(idx, 0)
            inside = (idx >= 0) & (addrs < self._ends[cand])
            if inside.any():
                a = addrs[inside]
                c = cand[inside]
                override = (a - self._starts[c]) >> self._shifts[c]
                banks[inside] = (override & mask if mask is not None
                                 else override % self.num_banks)
        return banks

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"InterleaveOverrideTable({len(self._entries)}/{self.capacity} entries)"
