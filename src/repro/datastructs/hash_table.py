"""Chained hash table (the ``hash_join`` workload substrate).

Build inserts ``num_keys`` unique keys; each bucket is a short linked
chain (Table 3: buckets <= 8).  Probes walk the chain until a key match
(hit) or the chain end (miss; Table 3 hit rate 1/8).

Under affinity alloc, a chain's first node is allocated near the bucket
head array entry and each subsequent node near its predecessor — the
``linked_list_append`` pattern of paper Fig 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.api import AffineArray, ArrayHandle, alloc_plain_array
from repro.core.runtime import AffinityAllocator
from repro.machine import Machine

__all__ = ["HashTable", "SKELETON_NAMES", "walk_chain_ids"]

_NODE_BYTES = 64


#: Arrays of a table's skeleton (see :meth:`HashTable.skeleton`).
SKELETON_NAMES = ("keys", "buckets", "chain_pos", "bucket_index",
                  "bucket_nodes")


@dataclass
class HashTable:
    machine: Machine
    num_buckets: int
    keys: np.ndarray            # stored keys, insertion order
    buckets: np.ndarray         # bucket of each key
    chain_pos: np.ndarray       # position of each key within its chain
    bucket_index: np.ndarray    # CSR over chains: bucket -> node ids
    bucket_nodes: np.ndarray    # node ids (insertion order) chain-by-chain
    node_vaddrs: np.ndarray     # vaddr per node (insertion order)
    heads: ArrayHandle          # bucket head-pointer array

    @staticmethod
    def skeleton(num_keys: int, num_buckets: int,
                 seed: int = 0) -> Dict[str, np.ndarray]:
        """Keys and chains of a table, the arrays of :data:`SKELETON_NAMES`.

        Depends on ``(num_keys, num_buckets, seed)`` only, never on
        placement."""
        rng = np.random.default_rng(seed)
        # unique random keys
        keys = rng.permutation(num_keys * 8)[:num_keys].astype(np.int64)
        buckets = keys % num_buckets
        # chain position = rank among same-bucket keys in insertion order
        order = np.argsort(buckets, kind="stable")
        sorted_b = buckets[order]
        uniq, starts, counts = np.unique(sorted_b, return_index=True,
                                         return_counts=True)
        rank_sorted = np.arange(num_keys, dtype=np.int64) - np.repeat(starts, counts)
        chain_pos = np.empty(num_keys, dtype=np.int64)
        chain_pos[order] = rank_sorted
        # CSR over chains (nodes listed bucket by bucket, chain order)
        bucket_index = np.zeros(num_buckets + 1, dtype=np.int64)
        np.add.at(bucket_index, buckets + 1, 1)
        np.cumsum(bucket_index, out=bucket_index)
        return {"keys": keys, "buckets": buckets, "chain_pos": chain_pos,
                "bucket_index": bucket_index,
                # sorted stable by bucket = chain order
                "bucket_nodes": order}

    @classmethod
    def build(cls, machine: Machine, num_keys: int, num_buckets: int,
              allocator: Optional[AffinityAllocator] = None,
              seed: int = 0) -> "HashTable":
        return cls.place(machine, cls.skeleton(num_keys, num_buckets, seed),
                         allocator)

    @classmethod
    def place(cls, machine: Machine, skeleton: Dict[str, np.ndarray],
              allocator: Optional[AffinityAllocator] = None
              ) -> "HashTable":
        """Allocate the bucket heads and the nodes of ``skeleton``."""
        keys, buckets = skeleton["keys"], skeleton["buckets"]
        chain_pos = skeleton["chain_pos"]
        bucket_index = skeleton["bucket_index"]
        bucket_nodes = skeleton["bucket_nodes"]
        num_keys, num_buckets = keys.size, bucket_index.size - 1
        if allocator is None:
            heads = alloc_plain_array(machine, 8, num_buckets, "ht-heads")
            base = machine.malloc(num_keys * _NODE_BYTES)
            vaddrs = base + np.arange(num_keys, dtype=np.int64) * _NODE_BYTES
        else:
            heads = allocator.malloc_affine(
                AffineArray(8, num_buckets, partition=True), name="ht-heads")
            # predecessor in the same bucket (previous insertion into it)
            prev_ids = np.full(num_keys, -1, dtype=np.int64)
            not_first = chain_pos > 0
            # node at chain_pos p of bucket b is bucket_nodes[index[b] + p]
            prev_slot = bucket_index[buckets] + chain_pos - 1
            prev_ids[not_first] = bucket_nodes[prev_slot[not_first]]
            head_addrs = heads.addr_of(buckets)
            vaddrs = allocator.malloc_irregular_chained(
                _NODE_BYTES, prev_ids, head_addrs=head_addrs)
        return cls(machine, num_buckets, keys, buckets, chain_pos,
                   bucket_index, bucket_nodes, vaddrs, heads)

    # ------------------------------------------------------------------
    @property
    def num_keys(self) -> int:
        return self.keys.size

    def lookup(self, key: int) -> bool:
        b = key % self.num_buckets
        ids = self.bucket_nodes[self.bucket_index[b]:self.bucket_index[b + 1]]
        return bool(np.any(self.keys[ids] == key))

    @staticmethod
    def probe_walk(skeleton: Dict[str, np.ndarray], probe_keys: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodes each probe walks in ``skeleton``, placement-free.

        Returns (node ids concatenated per probe, int32; walk lengths;
        hit mask).  A probe of an empty bucket walks no node.
        """
        keys, chain_pos = skeleton["keys"], skeleton["chain_pos"]
        bucket_index = skeleton["bucket_index"]
        probe_keys = np.asarray(probe_keys, dtype=np.int64)
        b = probe_keys % (bucket_index.size - 1)
        chain_len = bucket_index[b + 1] - bucket_index[b]
        # hit position: locate the probe key among stored keys
        sorted_keys = np.sort(keys)
        key_order = np.argsort(keys, kind="stable")
        pos = np.searchsorted(sorted_keys, probe_keys)
        pos_c = np.minimum(pos, keys.size - 1)
        hit = sorted_keys[pos_c] == probe_keys
        hit_node = key_order[pos_c]
        walk_len = np.where(hit, chain_pos[hit_node] + 1, chain_len)
        total = int(walk_len.sum())
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(walk_len) - walk_len, walk_len)
        node_ids = skeleton["bucket_nodes"][
            np.repeat(bucket_index[b], walk_len) + within]
        return node_ids.astype(np.int32), walk_len, hit


def walk_chain_ids(walk_len: np.ndarray) -> np.ndarray:
    """Chain id of every walked node: probes that walk no node get none."""
    return np.repeat(np.cumsum(walk_len > 0) - 1, walk_len)
