"""Linked lists, binary trees, hash tables (the pointer workload substrates)."""

import numpy as np
import pytest

from repro.core.policy import MinHopPolicy
from repro.core.runtime import AffinityAllocator
from repro.datastructs.binary_tree import BinaryTree, _cartesian_tree
from repro.datastructs.hash_table import HashTable
from repro.datastructs.linked_list import LinkedListSet
from repro.machine import Machine


@pytest.fixture
def machine():
    return Machine(heap_mode="random")


@pytest.fixture
def alloc_machine():
    m = Machine()
    return m, AffinityAllocator(m)


class TestLinkedList:
    def test_build_shapes(self, machine):
        ll = LinkedListSet.build(machine, 10, 32)
        assert ll.node_vaddrs.shape == (10, 32)
        assert ll.keys.shape == (10, 32)

    def test_interleaved_baseline_scatters(self, machine):
        ll = LinkedListSet.build(machine, 100, 64)
        banks = ll.all_banks()
        same = (banks[:, 1:] == banks[:, :-1]).mean()
        assert same < 0.2

    def test_affinity_build_colocates(self, alloc_machine):
        m, alloc = alloc_machine
        ll = LinkedListSet.build(m, 100, 64, allocator=alloc)
        banks = ll.all_banks()
        same = (banks[:, 1:] == banks[:, :-1]).mean()
        assert same > 0.8

    def test_search_functional(self, machine):
        ll = LinkedListSet.build(machine, 4, 16, seed=3)
        key = int(ll.keys[2, 7])
        assert ll.search(2, key) == 7
        assert ll.search(2, -1) == -1

    def test_search_trace_lengths(self, machine):
        ll = LinkedListSet.build(machine, 4, 16)
        nodes, chains = ll.search_trace(np.array([0, 3]), np.array([0, 15]))
        assert list(np.bincount(chains)) == [1, 16]
        assert nodes[0] == ll.node_vaddrs[0, 0]
        assert nodes[-1] == ll.node_vaddrs[3, 15]


class TestCartesianTree:
    def test_matches_naive_insertion_bst(self):
        """The Cartesian-tree construction must equal key-by-key insertion."""
        rng = np.random.default_rng(4)
        keys = rng.permutation(200)
        # naive BST insertion
        left = {}
        right = {}
        root = keys[0]
        for k in keys[1:]:
            cur = root
            while True:
                if k < cur:
                    if cur in left:
                        cur = left[cur]
                    else:
                        left[cur] = k
                        break
                else:
                    if cur in right:
                        cur = right[cur]
                    else:
                        right[cur] = k
                        break
        prio = np.empty(200, dtype=np.int64)
        prio[keys] = np.arange(200)
        l, r, _parent, croot = _cartesian_tree(prio)
        assert croot == root
        for k in range(200):
            assert l[k] == left.get(k, -1)
            assert r[k] == right.get(k, -1)


def _tree_walk(t, queries, batch=1 << 16):
    """``BinaryTree.walk`` over a built tree's own shape."""
    shape = {"left": t.left, "right": t.right, "root": np.array([t.root])}
    return BinaryTree.walk(shape, np.asarray(queries), batch)


class TestBinaryTree:
    def test_walk_ends_at_key(self, machine):
        t = BinaryTree.build(machine, 1000, seed=0)
        positions, depths = _tree_walk(t, [123])
        assert positions[-1] == 123
        # scalar descent from the root
        d, cur = 1, t.root
        while cur != 123:
            cur = t.left[cur] if 123 < cur else t.right[cur]
            d += 1
        assert depths[0] == d

    def test_depths_logarithmic(self, machine):
        t = BinaryTree.build(machine, 1 << 14, seed=0)
        q = np.random.default_rng(1).integers(0, 1 << 14, 512)
        _, depths = _tree_walk(t, q)
        # random-insertion BST: ~1.39 log2 n expected depth
        assert 10 < depths.mean() < 30

    def test_all_lookups_resolve(self, machine):
        t = BinaryTree.build(machine, 500, seed=2)
        q = np.arange(500)
        positions, depths = _tree_walk(t, q)
        assert (positions[np.cumsum(depths) - 1] == q).all()

    def test_minhop_pathology(self):
        """Min-Hop puts the whole tree in one bank (paper Fig 13)."""
        m = Machine()
        t = BinaryTree.build(m, 5000, allocator=AffinityAllocator(m, MinHopPolicy()))
        hist = t.bank_histogram()
        assert hist.max() == 5000

    def test_hybrid_spreads(self):
        m = Machine()
        t = BinaryTree.build(m, 5000, allocator=AffinityAllocator(m))
        hist = t.bank_histogram()
        assert hist.max() < 1000

    def test_batched_lookup_consistent(self, machine):
        t = BinaryTree.build(machine, 2000, seed=0)
        q = np.random.default_rng(0).integers(0, 2000, 300)
        n1, d1 = _tree_walk(t, q, batch=64)
        n2, d2 = _tree_walk(t, q, batch=1 << 16)
        assert (n1 == n2).all() and (d1 == d2).all()


def _probe(ht, probe_keys):
    """``HashTable.probe_walk`` over a built table's own skeleton."""
    skeleton = {"keys": ht.keys, "chain_pos": ht.chain_pos,
                "bucket_index": ht.bucket_index,
                "bucket_nodes": ht.bucket_nodes}
    return HashTable.probe_walk(skeleton, np.asarray(probe_keys))


class TestHashTable:
    def test_hit_rate_of_known_keys(self, machine):
        ht = HashTable.build(machine, 2000, 512, seed=0)
        assert all(ht.lookup(int(k)) for k in ht.keys[:50])

    def test_probe_walk_hits_and_misses(self, machine):
        ht = HashTable.build(machine, 2000, 512, seed=0)
        probes = np.concatenate([ht.keys[:100],
                                 np.arange(10 ** 9, 10 ** 9 + 100)])
        _, _, hit = _probe(ht, probes)
        assert hit[:100].all()
        assert not hit[100:].any()

    def test_hit_walk_stops_at_key(self, machine):
        ht = HashTable.build(machine, 2000, 512, seed=0)
        k = ht.keys[37]
        node_ids, _, hit = _probe(ht, [k])
        assert hit[0]
        assert node_ids[-1] == 37

    def test_miss_walks_full_chain(self, machine):
        ht = HashTable.build(machine, 2000, 512, seed=0)
        missing = int(ht.keys.max()) + 512  # same bucket as some chain
        bucket = missing % 512
        node_ids, _, hit = _probe(ht, [missing])
        assert not hit[0]
        assert node_ids.size == (ht.bucket_index[bucket + 1]
                                 - ht.bucket_index[bucket])

    def test_chain_lengths_bounded(self, machine):
        # Table 3: buckets <= 8 at the paper's ratio (4 keys/bucket avg)
        ht = HashTable.build(machine, 1 << 14, 1 << 12, seed=0)
        lengths = np.diff(ht.bucket_index)
        assert lengths.mean() == pytest.approx(4.0)
        assert lengths.max() <= 16

    def test_affinity_build_chains_colocate(self, alloc_machine):
        m, alloc = alloc_machine
        ht = HashTable.build(m, 4096, 1024, allocator=alloc, seed=0)
        banks = m.banks_of(ht.node_vaddrs)
        # within a bucket, nodes share banks most of the time
        order = ht.bucket_nodes
        b = banks[order]
        same_bucket = np.repeat(
            np.arange(ht.num_buckets),
            np.diff(ht.bucket_index))
        mask = same_bucket[1:] == same_bucket[:-1]
        assert (b[1:][mask] == b[:-1][mask]).mean() > 0.6
