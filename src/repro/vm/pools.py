"""Interleave pools (paper §4.1).

One pool per power-of-two interleaving from 64 B (a cache line) to 4 KiB
(a page).  A pool is a reserved virtual segment; addresses inside it map
to L3 banks by Eq. 1::

    bank(vaddr) = floor((vaddr - start) / intrlv)  mod  num_banks

The OS backs the pool with contiguous physical pages as it grows (the
``expand`` "syscall"), so the hardware needs exactly one IOT entry per
pool.  The affinity-alloc runtime carves the pool into *slots* of
``intrlv`` bytes each; slot ``i`` lives on bank ``i mod num_banks``, which
is the invariant everything above this layer relies on.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.analysis.diagnostics import PoolExhaustedError
from repro.arch.address import AddressRange, align_up, is_power_of_two
from repro.arch.iot import InterleaveOverrideTable, IotEntry
from repro.vm.layout import AddressSpace, LinearRegion, VirtualLayout

__all__ = ["InterleavePool", "PoolManager", "POOL_INTERLEAVES"]

POOL_INTERLEAVES = (64, 128, 256, 512, 1024, 2048, 4096)


class InterleavePool:
    """One reserved, contiguously-backed virtual segment with fixed interleave."""

    def __init__(self, intrlv: int, vbase: int, pbase: int, reserved: int,
                 num_banks: int, page_size: int = 4096):
        if not is_power_of_two(intrlv):
            raise ValueError(f"pool interleave must be power of two, got {intrlv}")
        self.intrlv = intrlv
        self.vrange = AddressRange(vbase, vbase + reserved)
        self.pbase = pbase
        self.num_banks = num_banks
        self.page_size = page_size
        self._backed = 0  # bytes of physical backing (watermark)
        self.expansions = 0  # number of expand "syscalls" issued
        # Fault injection: a pool-exhaustion fault caps the number of
        # expand syscalls the "OS" will grant this pool (None = only the
        # virtual reservation limits growth, the healthy behaviour).
        self.max_expansions: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def vbase(self) -> int:
        return self.vrange.start

    @property
    def backed_bytes(self) -> int:
        return self._backed

    def contains(self, vaddr: int) -> bool:
        return self.vrange.contains(vaddr)

    # ------------------------------------------------------------------
    # Slot arithmetic (Eq. 1)
    # ------------------------------------------------------------------
    def slot_of(self, vaddrs) -> np.ndarray:
        return (np.asarray(vaddrs, dtype=np.int64) - self.vbase) // self.intrlv

    def bank_of(self, vaddrs) -> np.ndarray:
        return self.slot_of(vaddrs) % self.num_banks

    def slot_vaddr(self, slot: int) -> int:
        return self.vbase + slot * self.intrlv

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def expand(self, nbytes: int) -> AddressRange:
        """Back ``nbytes`` more (page-rounded); returns the new virtual range.

        Models the mmap/brk-style syscall of paper §4.1: physical pages are
        appended contiguously at the watermark.
        """
        if nbytes <= 0:
            raise ValueError("expansion must be positive")
        if self.max_expansions is not None and self.expansions >= self.max_expansions:
            raise PoolExhaustedError(
                f"interleave pool {self.intrlv}B hit its injected expansion "
                f"cap ({self.max_expansions})")
        nbytes = align_up(nbytes, self.page_size)
        new_end = self._backed + nbytes
        if self.vbase + new_end > self.vrange.end:
            raise PoolExhaustedError(
                f"interleave pool {self.intrlv}B exhausted its reservation")
        rng = AddressRange(self.vbase + self._backed, self.vbase + new_end)
        self._backed = new_end
        self.expansions += 1
        return rng

    def __repr__(self) -> str:
        return (f"InterleavePool(intrlv={self.intrlv}, backed={self._backed:#x}, "
                f"vbase={self.vbase:#x})")


class PoolManager:
    """Creates the 7 per-process pools, wires regions and IOT entries."""

    def __init__(self, space: AddressSpace, iot: InterleaveOverrideTable,
                 num_banks: int, page_size: int = 4096,
                 interleaves=POOL_INTERLEAVES):
        self.space = space
        self.iot = iot
        self.num_banks = num_banks
        self.page_size = page_size
        self._pools: Dict[int, InterleavePool] = {}
        self._iot_installed: Dict[int, bool] = {}
        for i, intrlv in enumerate(interleaves):
            vbase = VirtualLayout.pool_vbase(i)
            pbase = VirtualLayout.pool_pbase(i)
            pool = InterleavePool(intrlv, vbase, pbase, VirtualLayout.POOL_STRIDE,
                                  num_banks, page_size)
            self._pools[intrlv] = pool
            self._iot_installed[intrlv] = False
            space.add(LinearRegion(f"pool-{intrlv}B", vbase, pbase,
                                   VirtualLayout.POOL_STRIDE))

    # ------------------------------------------------------------------
    @property
    def interleaves(self) -> List[int]:
        return sorted(self._pools)

    def pool(self, intrlv: int) -> InterleavePool:
        try:
            return self._pools[intrlv]
        except KeyError:
            raise KeyError(f"no interleave pool for {intrlv}B "
                           f"(supported: {self.interleaves})") from None

    def has_pool(self, intrlv: int) -> bool:
        return intrlv in self._pools

    def pool_containing(self, vaddr: int) -> Optional[InterleavePool]:
        for pool in self._pools.values():
            if pool.contains(vaddr):
                return pool
        return None

    def round_to_valid_interleave(self, size: int) -> Optional[int]:
        """Smallest supported interleaving >= size, or None if too large."""
        for intrlv in self.interleaves:
            if intrlv >= size:
                return intrlv
        return None

    # ------------------------------------------------------------------
    def expand(self, intrlv: int, nbytes: int) -> AddressRange:
        """Grow a pool and keep its IOT entry in sync.

        The IOT entry is installed on first expansion (a pool that was
        never touched costs no IOT entry) and its ``end`` grows afterwards.
        """
        pool = self.pool(intrlv)
        rng = pool.expand(nbytes)
        pstart = pool.pbase
        pend = pool.pbase + pool.backed_bytes
        if not self._iot_installed[intrlv]:
            self.iot.install(IotEntry(pstart, pend, intrlv))
            self._iot_installed[intrlv] = True
        else:
            self.iot.update_end(pstart, pend)
        return rng

    def bank_of(self, vaddr: int) -> Optional[int]:
        """Bank for a pool address, or None if outside every pool."""
        pool = self.pool_containing(vaddr)
        if pool is None:
            return None
        return int(pool.bank_of(vaddr))
