"""Spatially distributed relaxed priority queue (paper §4.2).

"Priority queues, e.g. MultiQueues [79], can also be implemented as one
queue per bank.  Heap rearrangement involves pointer-chasing, which is
supported by NSC.  This software optimization is not possible without
affinity alloc to control the data alignment."

:class:`MultiQueue` keeps one binary heap per L3 bank, with each heap's
storage affinity-allocated onto its bank:

* ``push(priority, value, near=addr)`` inserts into the heap whose bank
  owns ``near`` (zero NoC traffic when the producer is already there) or
  a random heap when no affinity is given — the MultiQueues scheme.
* ``pop()`` applies the classic relaxed rule: peek two random heaps, pop
  from the one with the smaller minimum.  The result is *relaxed*: not
  necessarily the global minimum, but within the usual MultiQueues
  quality bounds, which the tests check (rank error stays small).

The trace side reports, for each operation, the bank it executed on and
the heap-rearrangement chain length (log n sift path — the pointer-chase
NSC executes locally at the bank).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.api import AffineArray
from repro.core.runtime import AffinityAllocator
from repro.machine import Machine

__all__ = ["MultiQueue", "QueueOpTrace"]


@dataclass
class QueueOpTrace:
    """Placement record of executed queue operations."""

    op_banks: List[int] = field(default_factory=list)
    sift_lengths: List[int] = field(default_factory=list)
    remote_ops: int = 0

    def summary(self) -> dict:
        return {
            "ops": len(self.op_banks),
            "remote_ops": self.remote_ops,
            "mean_sift": float(np.mean(self.sift_lengths))
            if self.sift_lengths else 0.0,
        }


class MultiQueue:
    """One relaxed priority queue per bank, storage pinned to its bank."""

    def __init__(self, machine: Machine, allocator: AffinityAllocator,
                 capacity_per_queue: int = 4096, seed: int = 0):
        self.machine = machine
        self.allocator = allocator
        self.num_queues = machine.num_banks
        self.capacity = capacity_per_queue
        self.rng = np.random.default_rng(seed)
        # Per-queue storage: a partitioned array gives queue q a chunk on
        # bank q; the alignment is what makes local pushes free.
        total = self.num_queues * capacity_per_queue
        self.storage = allocator.malloc_affine(
            AffineArray(8, total, partition=True), name="multiqueue")
        self._heaps: List[List[Tuple[float, int]]] = [
            [] for _ in range(self.num_queues)]
        self.trace = QueueOpTrace()
        # verify the partitioned layout delivered queue->bank pinning
        starts = np.arange(self.num_queues) * capacity_per_queue
        self.queue_banks = self.storage.banks(starts)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(h) for h in self._heaps)

    def queue_of_bank(self, bank: int) -> int:
        """Queue pinned to (or nearest to) the given bank."""
        hits = np.flatnonzero(self.queue_banks == bank)
        if hits.size:
            return int(hits[0])
        d = self.machine.mesh.hops(self.queue_banks,
                                   np.full(self.num_queues, bank))
        return int(np.argmin(d))

    def push(self, priority: float, value: int,
             near: Optional[int] = None) -> int:
        """Insert; returns the queue index used.

        ``near`` is a virtual address whose bank the push should stay on
        (e.g. the vertex the producer just updated).
        """
        if near is not None:
            bank = self.machine.bank_of(int(near))
            q = self.queue_of_bank(bank)
            self.trace.remote_ops += int(self.queue_banks[q] != bank)
        else:
            q = int(self.rng.integers(0, self.num_queues))
        if len(self._heaps[q]) >= self.capacity:
            raise OverflowError(f"queue {q} full")
        heapq.heappush(self._heaps[q], (priority, value))
        self.trace.op_banks.append(int(self.queue_banks[q]))
        self.trace.sift_lengths.append(
            max(1, int(np.log2(max(len(self._heaps[q]), 1)) + 1)))
        return q

    def pop(self) -> Optional[Tuple[float, int]]:
        """Relaxed delete-min: best of two randomly chosen queues."""
        nonempty = [i for i, h in enumerate(self._heaps) if h]
        if not nonempty:
            return None
        picks = self.rng.choice(len(nonempty),
                                size=min(2, len(nonempty)), replace=False)
        candidates = [nonempty[int(p)] for p in picks]
        q = min(candidates, key=lambda i: self._heaps[i][0][0])
        item = heapq.heappop(self._heaps[q])
        self.trace.op_banks.append(int(self.queue_banks[q]))
        self.trace.sift_lengths.append(
            max(1, int(np.log2(max(len(self._heaps[q]), 1)) + 1)))
        return item

    def occupancy(self) -> np.ndarray:
        return np.array([len(h) for h in self._heaps])
