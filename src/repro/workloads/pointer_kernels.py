"""Pointer-chasing workloads: link_list, hash_join, bin_tree (Table 3).

* ``link_list`` — 1k lists of 512 nodes (8B keys), one search per list.
* ``hash_join`` — probe a 256k-key chained hash table with 512k keys,
  hit rate 1/8, buckets <= 8.
* ``bin_tree`` — 128k-node unbalanced BST, 512k uniform lookups.

All three build their structures in realistic insertion order; under
``AFF_ALLOC`` nodes carry affinity addresses (previous node / bucket head
/ parent) so the runtime colocates chains (paper Fig 10).

What hash_join and bin_tree compute before placement (table keys and
chains, tree shape, probe keys and queries, and the nodes each probe or
lookup visits) depends on their parameters and seed only, so it is built
once per parameter set through the artifact cache
(:func:`repro.cache.cached_arrays`) and every mode places and walks the
same skeleton.  Allocation, node vaddrs and executor calls stay per run.
Every run reads its skeleton from the cache file (a few ms); the cache
keeps no copy in memory between runs.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.cache import array_ok, cached_arrays
from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.datastructs.binary_tree import SHAPE_NAMES, BinaryTree
from repro.datastructs.hash_table import (SKELETON_NAMES, HashTable,
                                          walk_chain_ids)
from repro.datastructs.linked_list import LinkedListSet
from repro.nsc.engine import EngineMode
from repro.nsc.stream import AffineIndex
from repro.perf.model import RunResult
from repro.workloads.base import Workload, make_context, register

__all__ = ["LinkListSearch", "HashJoin", "BinTreeLookup"]


@register
class LinkListSearch(Workload):
    name = "link_list"
    layout_kind = "Ptr-Chasing"
    SCALED_PARAMS = ("num_lists",)

    def default_params(self) -> Dict:
        return {"num_lists": 1000, "nodes_per_list": 512, "queries_per_list": 1}

    def run(self, mode: EngineMode, config: SystemConfig = DEFAULT_CONFIG,
            policy=None, scale: float = 1.0, seed: int = 0,
            **overrides) -> RunResult:
        p = self.params(scale, **overrides)
        nl, npl = p["num_lists"], p["nodes_per_list"]
        ctx = make_context(mode, config, policy, seed)
        lists = LinkedListSet.build(ctx.machine, nl, npl,
                                    allocator=ctx.allocator, seed=seed)
        rng = np.random.default_rng(seed + 1)
        nq = nl * p["queries_per_list"]
        list_ids = np.tile(np.arange(nl, dtype=np.int64),
                           p["queries_per_list"])
        # each query searches for a key sitting at a uniform position
        stop_pos = rng.integers(0, npl, size=nq)
        node_vaddrs, chain_ids = lists.search_trace(list_ids, stop_pos)
        chain_cores = ctx.cores_of_positions(np.arange(nq), nq)
        ctx.executor.pointer_chase(node_vaddrs, chain_ids, chain_cores,
                                   ops_per_node=1.0)
        # functional: confirm the searched keys are found where expected
        hits = np.array([lists.search(int(l), int(lists.keys[l, s]))
                         for l, s in zip(list_ids[:16], stop_pos[:16])])
        found_frac = float(np.mean(hits >= 0))
        res = ctx.finish(f"link_list/{mode.value}", value=found_frac)
        res.counters["nodes_walked"] = float(node_vaddrs.size)
        return res


@register
class HashJoin(Workload):
    name = "hash_join"
    layout_kind = "Ptr-Chasing"
    SCALED_PARAMS = ("build_keys", "probe_keys", "buckets")

    def default_params(self) -> Dict:
        # 256k build keys joined against 512k probes, hit rate 1/8,
        # chains bounded (~4 avg with 64k buckets)
        return {"build_keys": 1 << 18, "probe_keys": 1 << 19,
                "buckets": 1 << 16, "hit_rate": 0.125}

    def run(self, mode: EngineMode, config: SystemConfig = DEFAULT_CONFIG,
            policy=None, scale: float = 1.0, seed: int = 0,
            **overrides) -> RunResult:
        p = self.params(scale, **overrides)
        nk, nq, nb = p["build_keys"], p["probe_keys"], p["buckets"]
        hit_rate = p["hit_rate"]

        def build() -> Dict[str, np.ndarray]:
            skel = HashTable.skeleton(nk, nb, seed=seed)
            rng = np.random.default_rng(seed + 1)
            n_hit = int(nq * hit_rate)
            hit_keys = skel["keys"][rng.integers(0, nk, n_hit)]
            # misses: keys guaranteed absent (beyond the build key space)
            miss_keys = np.int64(nk) * 8 + rng.integers(0, 1 << 40, nq - n_hit)
            probe_keys = np.concatenate([hit_keys, miss_keys])
            rng.shuffle(probe_keys)
            node_ids, walk_len, hit = HashTable.probe_walk(skel, probe_keys)
            return {**skel, "probe_keys": probe_keys, "node_ids": node_ids,
                    "walk_len": walk_len, "hit": hit}

        def valid(a: Dict[str, np.ndarray]) -> bool:
            return (array_ok(a["keys"], np.int64, (nk,), 0, 8 * nk)
                    and array_ok(a["buckets"], np.int64, (nk,), 0, nb)
                    and array_ok(a["chain_pos"], np.int64, (nk,), 0, nk)
                    and array_ok(a["bucket_index"], np.int64, (nb + 1,),
                                 0, nk + 1)
                    and array_ok(a["bucket_nodes"], np.int64, (nk,), 0, nk)
                    and array_ok(a["probe_keys"], np.int64, (nq,), 0)
                    and array_ok(a["walk_len"], np.int64, (nq,), 0, nk + 1)
                    and array_ok(a["hit"], np.bool_, (nq,))
                    and array_ok(a["node_ids"], np.int32,
                                 (int(a["walk_len"].sum()),), 0, nk))

        skel = cached_arrays(
            "hash_join_skeleton", build, check=valid,
            names=SKELETON_NAMES + ("probe_keys", "node_ids", "walk_len",
                                    "hit"),
            build_keys=nk, probe_keys=nq, buckets=nb, hit_rate=hit_rate,
            seed=seed)
        ctx = make_context(mode, config, policy, seed)
        table = HashTable.place(ctx.machine, skel, allocator=ctx.allocator)
        probe_keys, walk_len, hit = (skel["probe_keys"], skel["walk_len"],
                                     skel["hit"])
        # probe-key stream (affine read) + head-pointer lookup
        probes_h = ctx.alloc(8, nq, "probe-keys")
        idx = np.arange(nq, dtype=np.int64)
        cores = ctx.cores_for(nq)
        ctx.executor.affine_kernel(cores, [(probes_h, AffineIndex(0))],
                                   ops_per_elem=2.0)
        buckets = probe_keys % table.num_buckets
        ctx.executor.indirect_gather(cores, (probes_h, idx),
                                     (table.heads, buckets), ops_per_elem=1.0)
        node_vaddrs = table.node_vaddrs[skel["node_ids"]]
        chain_ids = walk_chain_ids(walk_len)
        nonempty_probes = int(np.count_nonzero(walk_len))
        chain_cores = ctx.cores_of_positions(np.arange(max(nonempty_probes, 1)),
                                             max(nonempty_probes, 1))
        ctx.executor.pointer_chase(node_vaddrs, chain_ids, chain_cores,
                                   ops_per_node=1.0)
        res = ctx.finish(f"hash_join/{mode.value}", value=float(hit.mean()))
        res.counters["hit_rate"] = float(hit.mean())
        res.counters["nodes_walked"] = float(node_vaddrs.size)
        return res


@register
class BinTreeLookup(Workload):
    name = "bin_tree"
    layout_kind = "Ptr-Chasing"
    SCALED_PARAMS = ("num_keys", "lookups")

    def default_params(self) -> Dict:
        return {"num_keys": 1 << 17, "lookups": 1 << 19}

    def run(self, mode: EngineMode, config: SystemConfig = DEFAULT_CONFIG,
            policy=None, scale: float = 1.0, seed: int = 0,
            **overrides) -> RunResult:
        p = self.params(scale, **overrides)
        num_keys, lookups = p["num_keys"], p["lookups"]

        def build() -> Dict[str, np.ndarray]:
            shape = BinaryTree.shape(num_keys, seed=seed)
            rng = np.random.default_rng(seed + 1)
            queries = rng.integers(0, num_keys, size=lookups)
            positions, depths = BinaryTree.walk(shape, queries)
            return {**shape, "positions": positions, "depths": depths}

        def valid(a: Dict[str, np.ndarray]) -> bool:
            n = num_keys
            return (array_ok(a["prio"], np.int64, (n,), 0, n)
                    and all(array_ok(a[k], np.int64, (n,), -1, n)
                            for k in ("left", "right", "parent"))
                    and array_ok(a["root"], np.int64, (1,), 0, n)
                    and array_ok(a["depths"], np.int64, (lookups,), 0, n + 1)
                    and array_ok(a["positions"], np.int32,
                                 (int(a["depths"].sum()),), 0, n))

        skel = cached_arrays("bin_tree_skeleton", build, check=valid,
                             names=SHAPE_NAMES + ("positions", "depths"),
                             num_keys=num_keys, lookups=lookups, seed=seed)
        ctx = make_context(mode, config, policy, seed)
        tree = BinaryTree.place(ctx.machine, skel, allocator=ctx.allocator)
        depths = skel["depths"]
        node_vaddrs = tree.node_vaddrs[skel.pop("positions")]
        chain_ids = np.repeat(np.arange(lookups, dtype=np.int64), depths)
        chain_cores = ctx.cores_of_positions(np.arange(lookups), lookups)
        ctx.executor.pointer_chase(node_vaddrs, chain_ids, chain_cores,
                                   ops_per_node=1.0)
        res = ctx.finish(f"bin_tree/{mode.value}", value=float(depths.mean()))
        res.counters["mean_depth"] = float(depths.mean())
        res.counters["nodes_walked"] = float(node_vaddrs.size)
        return res
