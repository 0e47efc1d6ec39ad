"""Dynamic (mutable) Linked CSR — the paper's §8 extension.

"Some prior works already leverage pointer-based data structures similar
to linked CSR to flexibly insert and delete from the graph, which can
naturally benefit from the improved spatial locality from affinity alloc
without extra preprocessing."

:class:`DynamicGraph` keeps one linked chain of fixed-capacity edge nodes
per vertex.  Inserting edges appends into the tail node (allocating a new
node — with affinity to the pointed-to vertices — when full); deleting
edges tombstones slots and frees nodes that empty out.  As mutations
accumulate, placement quality degrades; :meth:`rehome` re-places the
worst nodes with ``realloc_aff`` (paper §8 "the layout could also be
dynamically adjusted").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.api import AddressView, ArrayHandle
from repro.core.runtime import AffinityAllocator
from repro.graphs.csr import CSRGraph
from repro.machine import Machine

__all__ = ["DynamicGraph"]

_PTR_BYTES = 8
_EDGE_BYTES = 4


@dataclass
class _Node:
    vaddr: int
    dsts: List[int] = field(default_factory=list)  # live destinations


class DynamicGraph:
    """Mutable per-vertex edge chains over affinity-allocated nodes."""

    def __init__(self, machine: Machine, num_vertices: int,
                 allocator: Optional[AffinityAllocator] = None,
                 target: Optional[ArrayHandle] = None, node_bytes: int = 64):
        self.machine = machine
        self.num_vertices = num_vertices
        self.allocator = allocator
        self.target = target
        self.node_bytes = node_bytes
        self.capacity = (node_bytes - _PTR_BYTES) // _EDGE_BYTES
        self._chains: List[List[_Node]] = [[] for _ in range(num_vertices)]
        self._heap_brk_nodes = 0
        self.num_edges = 0

    # ------------------------------------------------------------------
    def _alloc_node(self, dsts: List[int]) -> int:
        if self.allocator is not None and self.target is not None:
            aff = self.target.addr_of(np.asarray(dsts[:32], dtype=np.int64))
            return int(self.allocator.malloc_irregular(self.node_bytes,
                                                       aff.tolist()))
        va = self.machine.malloc(self.node_bytes)
        return va

    def insert_edges(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Append edges; new nodes are placed near their destinations."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src/dst must align")
        if src.size and (src.min() < 0 or src.max() >= self.num_vertices
                         or dst.min() < 0 or dst.max() >= self.num_vertices):
            raise ValueError("vertex id out of range")
        order = np.argsort(src, kind="stable")
        for u, v in zip(src[order].tolist(), dst[order].tolist()):
            chain = self._chains[u]
            if not chain or len(chain[-1].dsts) >= self.capacity:
                chain.append(_Node(0, []))
                chain[-1].vaddr = self._alloc_node([v])
            chain[-1].dsts.append(v)
            self.num_edges += 1

    def remove_edges(self, src: np.ndarray, dst: np.ndarray) -> int:
        """Delete (first occurrence of) each edge; returns how many were
        found.  Nodes that empty out are freed back to the pool."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        removed = 0
        for u, v in zip(src.tolist(), dst.tolist()):
            chain = self._chains[u]
            for node in chain:
                if v in node.dsts:
                    node.dsts.remove(v)
                    removed += 1
                    self.num_edges -= 1
                    if not node.dsts:
                        chain.remove(node)
                        if self.allocator is not None:
                            self.allocator.free_aff(node.vaddr)
                    break
        return removed

    # ------------------------------------------------------------------
    def degree(self, v: int) -> int:
        return sum(len(n.dsts) for n in self._chains[v])

    def neighbors(self, v: int) -> np.ndarray:
        out: List[int] = []
        for node in self._chains[v]:
            out.extend(node.dsts)
        return np.asarray(out, dtype=np.int64)

    def node_count(self) -> int:
        return sum(len(c) for c in self._chains)

    def to_csr(self) -> CSRGraph:
        """Snapshot as an immutable CSR graph."""
        src: List[int] = []
        dst: List[int] = []
        for u, chain in enumerate(self._chains):
            for node in chain:
                src.extend([u] * len(node.dsts))
                dst.extend(node.dsts)
        return CSRGraph.from_edge_list(self.num_vertices,
                                       np.asarray(src, dtype=np.int64),
                                       np.asarray(dst, dtype=np.int64),
                                       remove_self_loops=False)

    # ------------------------------------------------------------------
    # Placement quality and rehoming (paper §8)
    # ------------------------------------------------------------------
    def _node_table(self) -> Tuple[np.ndarray, List[_Node]]:
        nodes = [n for c in self._chains for n in c]
        vaddrs = np.asarray([n.vaddr for n in nodes], dtype=np.int64)
        return vaddrs, nodes

    def mean_indirect_hops(self) -> float:
        """Average distance from each live edge to its destination entry."""
        if self.target is None or self.num_edges == 0:
            return 0.0
        vaddrs, nodes = self._node_table()
        if vaddrs.size == 0:
            return 0.0
        node_banks = self.machine.banks_of(vaddrs)
        total, count = 0.0, 0
        dst_all: List[int] = []
        rep: List[int] = []
        for i, n in enumerate(nodes):
            dst_all.extend(n.dsts)
            rep.extend([i] * len(n.dsts))
        dst_banks = self.target.banks(np.asarray(dst_all, dtype=np.int64))
        hops = self.machine.mesh.hops(node_banks[np.asarray(rep)], dst_banks)
        return float(hops.mean())

    def rehome(self, max_nodes: int = 0) -> int:
        """Re-place the worst-placed nodes near their *current* contents.

        Returns how many nodes moved.  ``max_nodes=0`` rehomes every node
        whose mean distance to its destinations exceeds the graph average.
        """
        if self.allocator is None or self.target is None:
            return 0
        vaddrs, nodes = self._node_table()
        if not nodes:
            return 0
        node_banks = self.machine.banks_of(vaddrs)
        scores = np.empty(len(nodes))
        for i, n in enumerate(nodes):
            if not n.dsts:
                scores[i] = 0.0
                continue
            db = self.target.banks(np.asarray(n.dsts, dtype=np.int64))
            scores[i] = float(self.machine.mesh.hops(
                np.full(db.size, node_banks[i]), db).mean())
        threshold = scores.mean()
        candidates = np.flatnonzero(scores > threshold)
        order = candidates[np.argsort(-scores[candidates])]
        if max_nodes:
            order = order[:max_nodes]
        moved = 0
        for i in order.tolist():
            n = nodes[i]
            aff = self.target.addr_of(np.asarray(n.dsts[:32], dtype=np.int64))
            n.vaddr = self.allocator.realloc_aff(n.vaddr, aff.tolist())
            moved += 1
        return moved

    def chase_trace(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Pointer-chase trace over the chains of ``vertices``."""
        node_vaddrs: List[int] = []
        chain_ids: List[int] = []
        cid = 0
        for v in np.asarray(vertices, dtype=np.int64).tolist():
            chain = self._chains[v]
            if not chain:
                continue
            node_vaddrs.extend(n.vaddr for n in chain)
            chain_ids.extend([cid] * len(chain))
            cid += 1
        return (np.asarray(node_vaddrs, dtype=np.int64),
                np.asarray(chain_ids, dtype=np.int64))

    def edge_view(self) -> AddressView:
        """Per-live-edge addresses (for indirect traces)."""
        addrs: List[int] = []
        for chain in self._chains:
            for node in chain:
                base = node.vaddr + _PTR_BYTES
                addrs.extend(base + k * _EDGE_BYTES
                             for k in range(len(node.dsts)))
        return AddressView(self.machine, np.asarray(addrs, dtype=np.int64),
                           _EDGE_BYTES, "dynamic-edges")
