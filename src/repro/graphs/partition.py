"""Edge-chunk remapping — the paper's Fig 6 limit study.

"Fig 6 shows the speedup and traffic reduction if we can break the edge
list in the CSR format into chunks of various sizes and freely map them
to the L3 bank with minimal indirect traffic — subject to a max 2% load
imbalance between L3 banks, by moving chunks with the least traffic
reduction to the least occupied bank."

``chunked_edge_layout`` implements exactly that: it scores every
(chunk, bank) placement by total indirect hops to the chunk's destination
vertices, greedily places each chunk at its best bank, then rebalances by
moving minimum-regret chunks off overloaded banks.  The chunks are then
*actually allocated* as interleave-pool slots on the assigned banks, so
the resulting :class:`~repro.core.api.AddressView` goes through the real
mapping path.

``ideal_edge_layout`` is the "Ind-Ideal" bar: every edge is stored on the
bank of the vertex it points to (zero indirect traffic by construction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.api import AddressView
from repro.core.irregular import SlotPool
from repro.machine import Machine

__all__ = ["ChunkLayoutInfo", "chunked_edge_layout", "ideal_edge_layout"]

_EDGE_BYTES = 4


@dataclass
class ChunkLayoutInfo:
    """Diagnostics from a chunk remap."""

    num_chunks: int
    chunk_bytes: int
    assignment: np.ndarray        # bank per chunk
    mean_indirect_hops: float     # avg hops from edge to its dst vertex
    imbalance: float              # (max - avg) / avg chunk count
    moved_for_balance: int


def _chunk_costs(mesh, chunk_ids: np.ndarray, dst_banks: np.ndarray,
                 num_chunks: int, num_banks: int) -> np.ndarray:
    """cost[c, b] = total hops if chunk c is placed at bank b."""
    cnt = np.zeros((num_chunks, num_banks), dtype=np.float64)
    np.add.at(cnt, (chunk_ids, dst_banks), 1.0)
    dist = mesh.hops_to_all(np.arange(num_banks)).astype(np.float64)  # (b, b')
    return cnt @ dist.T  # cost[c, b] = sum_d cnt[c, d] * dist[b, d]


def chunked_edge_layout(machine: Machine, dst_banks: np.ndarray,
                        chunk_bytes: int, max_imbalance: float = 0.02,
                        ) -> Tuple[AddressView, ChunkLayoutInfo]:
    """Place edge-array chunks to minimize indirect traffic (Fig 6).

    Args:
        dst_banks: bank of the vertex each edge points to.
        chunk_bytes: chunk granularity (must be a valid pool interleave).
        max_imbalance: allowed (max - avg)/avg chunk-count imbalance.

    Returns an AddressView over per-edge addresses plus diagnostics.
    """
    dst_banks = np.asarray(dst_banks, dtype=np.int64)
    nb = machine.num_banks
    epc = chunk_bytes // _EDGE_BYTES
    if epc <= 0:
        raise ValueError("chunk_bytes too small for 4-byte edges")
    n_edges = dst_banks.size
    n_chunks = -(-n_edges // epc)
    chunk_of_edge = np.arange(n_edges, dtype=np.int64) // epc

    cost = _chunk_costs(machine.mesh, chunk_of_edge, dst_banks, n_chunks, nb)
    assignment = np.argmin(cost, axis=1).astype(np.int64)
    best_cost = cost[np.arange(n_chunks), assignment]

    # Rebalance: overloaded banks shed their least-affinity-benefit chunks
    # to the least occupied banks.
    loads = np.bincount(assignment, minlength=nb).astype(np.int64)
    avg = n_chunks / nb
    target = int(np.ceil(avg * (1.0 + max_imbalance)))
    moved = 0
    order_by_bank = {b: list(np.flatnonzero(assignment == b)) for b in range(nb)}
    # regret of moving a chunk anywhere = how much we'd lose vs. its best
    for b in range(nb):
        if loads[b] <= target:
            continue
        chunks_here = np.array(order_by_bank[b], dtype=np.int64)
        # cheapest-to-move first: smallest (second-best cost - best cost)
        alt_cost = cost[chunks_here].copy()
        alt_cost[:, b] = np.inf
        regret = alt_cost.min(axis=1) - best_cost[chunks_here]
        for ci in chunks_here[np.argsort(regret)]:
            if loads[b] <= target:
                break
            # move to the least occupied bank (tie: cheaper alternative)
            candidates = np.flatnonzero(loads == loads.min())
            dest = candidates[np.argmin(cost[ci, candidates])]
            assignment[ci] = dest
            loads[b] -= 1
            loads[dest] += 1
            moved += 1

    # Materialize: one pool slot per chunk on its assigned bank.
    pool = SlotPool(machine.pools, chunk_bytes)
    slot_vaddrs = pool.alloc_many_on_banks(assignment)
    machine.llc.register_by_banks(assignment, float(chunk_bytes))
    addrs = (slot_vaddrs[chunk_of_edge]
             + (np.arange(n_edges, dtype=np.int64) % epc) * _EDGE_BYTES)
    view = AddressView(machine, addrs, _EDGE_BYTES, f"chunks-{chunk_bytes}B")

    edge_banks = machine.banks_of(addrs)
    mean_hops = float(machine.mesh.hops(edge_banks, dst_banks).mean())
    info = ChunkLayoutInfo(
        num_chunks=n_chunks,
        chunk_bytes=chunk_bytes,
        assignment=assignment,
        mean_indirect_hops=mean_hops,
        imbalance=float((loads.max() - avg) / avg) if avg > 0 else 0.0,
        moved_for_balance=moved,
    )
    return view, info


def ideal_edge_layout(machine: Machine, dst_banks: np.ndarray,
                      line_bytes: int = 64) -> AddressView:
    """Ind-Ideal: every edge stored on its destination vertex's bank.

    Edges are packed, per destination bank, into cache-line slots on that
    bank; the view preserves original edge order.
    """
    dst_banks = np.asarray(dst_banks, dtype=np.int64)
    epc = line_bytes // _EDGE_BYTES
    pool = SlotPool(machine.pools, line_bytes)
    order = np.argsort(dst_banks, kind="stable")
    sorted_banks = dst_banks[order]
    # chunk boundaries within each bank's packed run
    rank_in_bank = np.arange(dst_banks.size, dtype=np.int64)
    uniq, starts, counts = np.unique(sorted_banks, return_index=True,
                                     return_counts=True)
    rank_in_bank -= np.repeat(starts, counts)
    chunk_in_bank = rank_in_bank // epc
    # allocate slots bank by bank
    chunk_banks = []
    for b, c in zip(uniq.tolist(), counts.tolist()):
        chunk_banks.extend([b] * (-(-c // epc)))
    chunk_banks = np.asarray(chunk_banks, dtype=np.int64)
    slots = pool.alloc_many_on_banks(chunk_banks)
    machine.llc.register_by_banks(chunk_banks, float(line_bytes))
    # chunk id per sorted edge: chunks are ordered bank-major
    chunk_offset_of_bank = np.zeros(machine.num_banks, dtype=np.int64)
    chunks_per_bank = np.zeros(machine.num_banks, dtype=np.int64)
    chunks_per_bank[uniq] = -(-counts // epc)
    chunk_offset_of_bank[1:] = np.cumsum(chunks_per_bank)[:-1]
    chunk_id = chunk_offset_of_bank[sorted_banks] + chunk_in_bank
    addrs_sorted = slots[chunk_id] + (rank_in_bank % epc) * _EDGE_BYTES
    addrs = np.empty_like(addrs_sorted)
    addrs[order] = addrs_sorted
    return AddressView(machine, addrs, _EDGE_BYTES, "ideal-edges")
