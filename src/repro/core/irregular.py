"""Per-(interleaving, bank) slot free lists for irregular allocation.

Paper §5.1: "The runtime also maintains a free list for every valid
interleaving size and every bank. ... the runtime allocates from the free
list of that bank, and may require the OS to expand the specific pool if
running out of space."  Because a pool's slot ``i`` sits on bank
``i mod num_banks``, one contiguous pool expansion of
``num_banks * k`` slots refills every bank's free list with ``k`` slots.

Unlike conventional allocators, no per-object metadata is kept: an
object's interleaving (= size class) is inferred from the pool its address
falls in (paper §5.1 "Free Data").
"""

from __future__ import annotations

from typing import List, Set

import numpy as np

from repro.vm.pools import PoolManager

__all__ = ["SlotPool"]


class SlotPool:
    """Slot allocator for one interleaving size."""

    def __init__(self, pools: PoolManager, intrlv: int,
                 slots_per_bank_per_expand: int = 64):
        if slots_per_bank_per_expand <= 0:
            raise ValueError("slots_per_bank_per_expand must be positive")
        self.pools = pools
        self.intrlv = intrlv
        self.pool = pools.pool(intrlv)
        self.num_banks = pools.num_banks
        self.slots_per_bank_per_expand = slots_per_bank_per_expand
        self._free: List[List[int]] = [[] for _ in range(self.num_banks)]
        self.live = 0
        # Lifetime tracking for the afflint lifetime checker: which slot
        # vaddrs are currently handed out, and which were handed out once
        # and returned (distinguishes double-free from bogus-address free).
        self._live: Set[int] = set()
        self._released: Set[int] = set()

    # ------------------------------------------------------------------
    def alloc_on_bank(self, bank: int) -> int:
        """Pop one slot that maps to ``bank``; expands the pool if dry."""
        if not (0 <= bank < self.num_banks):
            raise ValueError(f"bank {bank} out of range")
        if not self._free[bank]:
            self._expand()
        self.live += 1
        vaddr = self._free[bank].pop()
        self._live.add(vaddr)
        self._released.discard(vaddr)
        return vaddr

    def alloc_many_on_banks(self, banks: np.ndarray) -> np.ndarray:
        """Pop one slot per entry of ``banks`` (batched ``alloc_on_bank``).

        Returns the slot vaddrs in the same order as ``banks``.
        """
        banks = np.asarray(banks, dtype=np.int64)
        out = np.empty(banks.size, dtype=np.int64)
        if banks.size == 0:
            return out
        order = np.argsort(banks, kind="stable")
        sorted_banks = banks[order]
        if sorted_banks[0] < 0 or sorted_banks[-1] >= self.num_banks:
            raise ValueError("bank out of range")
        # One [lo, hi) run of the sorted requests per bank asked for, so
        # one slot costs one bank's work, not a sweep over every bank.
        los = [0, *(np.flatnonzero(sorted_banks[1:] != sorted_banks[:-1])
                    + 1).tolist()]
        runs = list(zip(sorted_banks[los].tolist(), los,
                        los[1:] + [banks.size]))
        while any(hi - lo > len(self._free[b]) for b, lo, hi in runs):
            self._expand()
        # Hand out slots bank by bank, preserving request order.
        for b, lo, hi in runs:
            # Batched LIFO pop: slice the stack tail in pop() order
            # (last element first) instead of `count` .pop() calls.
            count = hi - lo
            free = self._free[b]
            slots = free[-count:][::-1]
            del free[-count:]
            out[order[lo:hi]] = slots
            self._live.update(slots)
            self._released.difference_update(slots)
        self.live += int(banks.size)
        return out

    def free_slot(self, vaddr: int) -> None:
        """Return a slot to its bank's free list."""
        if not self.pool.contains(vaddr):
            raise ValueError(f"{vaddr:#x} is not in the {self.intrlv}B pool")
        if (vaddr - self.pool.vbase) % self.intrlv:
            raise ValueError(f"{vaddr:#x} is not slot-aligned in the {self.intrlv}B pool")
        bank = int(self.pool.bank_of(vaddr))
        self._free[bank].append(vaddr)
        self._live.discard(vaddr)
        self._released.add(vaddr)
        self.live -= 1

    def slot_state(self, vaddr: int) -> str:
        """Lifetime state of a slot vaddr: ``live``, ``freed``, or ``invalid``.

        ``freed`` means the slot was allocated at some point and has been
        returned; ``invalid`` means this pool never handed it out.
        """
        if vaddr in self._live:
            return "live"
        if vaddr in self._released:
            return "freed"
        return "invalid"

    def bank_of(self, vaddr: int) -> int:
        return int(self.pool.bank_of(vaddr))

    def _expand(self) -> None:
        nbytes = self.num_banks * self.intrlv * self.slots_per_bank_per_expand
        rng = self.pools.expand(self.intrlv, nbytes)
        nslots = rng.size // self.intrlv
        vaddrs = rng.start + np.arange(nslots, dtype=np.int64) * self.intrlv
        banks = self.pool.bank_of(vaddrs)
        # Group by bank with one stable sort; within a bank the slots
        # keep ascending-vaddr order, exactly like the old per-slot
        # append loop.
        order = np.argsort(banks, kind="stable")
        bounds = np.searchsorted(banks[order], np.arange(self.num_banks + 1))
        grouped = vaddrs[order].tolist()
        for b in range(self.num_banks):
            lo, hi = int(bounds[b]), int(bounds[b + 1])
            if hi > lo:
                self._free[b].extend(grouped[lo:hi])
