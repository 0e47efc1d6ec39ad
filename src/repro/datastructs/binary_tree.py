"""Unbalanced binary search tree (the ``bin_tree`` workload substrate).

The paper inserts random keys without rebalancing (Table 3).  We
reproduce the exact insertion-order BST shape in O(n) using the classic
equivalence: the BST produced by inserting keys ``k_0, k_1, ...`` equals
the treap over (key, insertion time) with a min-heap on time — which is
the Cartesian tree of the insertion times over key-sorted order.

Under affinity alloc every node is allocated with its *parent* as the
affinity address (the tree-node example of paper Fig 7); parents are
always inserted earlier, so the chained allocation API applies directly.

Lookups descend from the root; the visited node sequence of each lookup
is a pointer-chase chain for the executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.runtime import AffinityAllocator
from repro.machine import Machine

__all__ = ["BinaryTree", "SHAPE_NAMES"]

_NODE_BYTES = 64


def _cartesian_tree(prio: np.ndarray):
    """Min-heap Cartesian tree over positions 0..n-1 (in-order = position).

    Returns (left, right, parent, root) in position space.
    """
    n = prio.size
    left = np.full(n, -1, dtype=np.int64)
    right = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    stack: list = []
    for i in range(n):
        last = -1
        while stack and prio[stack[-1]] > prio[i]:
            last = stack.pop()
        if last != -1:
            left[i] = last
            parent[last] = i
        if stack:
            right[stack[-1]] = i
            parent[i] = stack[-1]
        stack.append(i)
    root = int(np.argmin(prio))
    return left, right, parent, root


#: Arrays of a tree's shape (see :meth:`BinaryTree.shape`).
SHAPE_NAMES = ("prio", "left", "right", "parent", "root")


@dataclass
class BinaryTree:
    """BST over unique integer keys, positions in key-sorted space."""

    machine: Machine
    keys_sorted: np.ndarray   # key at each position
    left: np.ndarray
    right: np.ndarray
    parent: np.ndarray
    root: int
    node_vaddrs: np.ndarray   # vaddr at each position

    @staticmethod
    def shape(num_keys: int, seed: int = 0) -> Dict[str, np.ndarray]:
        """The tree shape of ``num_keys`` seeded random insertions.

        Depends on ``(num_keys, seed)`` only, never on placement: the
        arrays named in :data:`SHAPE_NAMES`, ``prio[k]`` being when key
        ``k`` was inserted and ``root`` a one-element array."""
        rng = np.random.default_rng(seed)
        # Insertion sequence: a random permutation of 0..n-1 as keys.
        insert_keys = rng.permutation(num_keys)
        # Position space = key-sorted order; key k sits at position k.
        prio = np.empty(num_keys, dtype=np.int64)
        prio[insert_keys] = np.arange(num_keys)
        left, right, parent, root = _cartesian_tree(prio)
        return {"prio": prio, "left": left, "right": right,
                "parent": parent, "root": np.array([root], dtype=np.int64)}

    @classmethod
    def build(cls, machine: Machine, num_keys: int,
              allocator: Optional[AffinityAllocator] = None,
              seed: int = 0) -> "BinaryTree":
        return cls.place(machine, cls.shape(num_keys, seed), allocator)

    @classmethod
    def place(cls, machine: Machine, shape: Dict[str, np.ndarray],
              allocator: Optional[AffinityAllocator] = None
              ) -> "BinaryTree":
        """Allocate the nodes of ``shape`` in insertion order."""
        prio, parent = shape["prio"], shape["parent"]
        num_keys = prio.size
        # Each node's affinity predecessor is its parent's insertion index.
        parent_time = np.where(parent >= 0, prio[np.maximum(parent, 0)], -1)
        prev_ids_by_time = np.full(num_keys, -1, dtype=np.int64)
        prev_ids_by_time[prio] = parent_time
        if allocator is None:
            base = machine.malloc(num_keys * _NODE_BYTES)
            vaddr_by_time = base + np.arange(num_keys, dtype=np.int64) * _NODE_BYTES
        else:
            vaddr_by_time = allocator.malloc_irregular_chained(
                _NODE_BYTES, prev_ids_by_time)
        node_vaddrs = vaddr_by_time[prio]
        return cls(machine, np.arange(num_keys), shape["left"],
                   shape["right"], parent, int(shape["root"][0]),
                   node_vaddrs)

    # ------------------------------------------------------------------
    @property
    def num_keys(self) -> int:
        return self.keys_sorted.size

    def contains(self, key: int) -> bool:
        return 0 <= key < self.num_keys

    @staticmethod
    def walk(shape: Dict[str, np.ndarray], queries: np.ndarray,
             batch: int = 1 << 16) -> Tuple[np.ndarray, np.ndarray]:
        """Node positions each lookup visits, in ``shape``.

        Keys are 0..n-1 at position = key, so a query key q descends by
        comparing against the position id.  Queries may be out of range
        (misses run to a leaf).

        Returns (positions concatenated per query, int32; depths).
        """
        left, right = shape["left"], shape["right"]
        root = int(shape["root"][0])
        queries = np.asarray(queries, dtype=np.int64)
        all_positions: list = []
        all_depths: list = []
        for lo in range(0, queries.size, batch):
            q = queries[lo:lo + batch]
            m = q.size
            cur = np.full(m, root, dtype=np.int64)
            alive = np.ones(m, dtype=bool)
            visited_cols: list = []
            depths = np.zeros(m, dtype=np.int64)
            while alive.any():
                col = np.where(alive, cur, -1)
                visited_cols.append(col)
                depths += alive
                go_left = q < cur
                hit = q == cur
                nxt = np.where(go_left, left[np.maximum(cur, 0)],
                               right[np.maximum(cur, 0)])
                alive = alive & ~hit & (nxt != -1)
                cur = np.where(alive, nxt, cur)
            mat = np.stack(visited_cols)           # (depth, m)
            all_positions.append(mat.T[mat.T >= 0].astype(np.int32))
            all_depths.append(depths)
        return np.concatenate(all_positions), np.concatenate(all_depths)

    def bank_histogram(self) -> np.ndarray:
        banks = self.machine.banks_of(self.node_vaddrs)
        return np.bincount(banks, minlength=self.machine.num_banks)
