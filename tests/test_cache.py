"""The content-addressed artifact cache: hits, misses, eviction,
corruption recovery, concurrent writers, the bypass escape hatch, and
the zoo's seeded inputs and the Table 3 kernels' skeletons giving the
same run in every cache state."""

import hashlib
import json
import multiprocessing
import os

import numpy as np
import pytest

from repro import cache as cache_mod
from repro.cache import (ArtifactCache, array_ok, cache_key, cached_arrays,
                         cached_graph)
from repro.datastructs.binary_tree import BinaryTree
from repro.datastructs.hash_table import HashTable
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import kronecker, powerlaw
from repro.nsc.engine import EngineMode
from repro.workloads import adversarial, graph_kernels
from repro.workloads.base import run_workload


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(root=tmp_path / "cache", enabled=True)


class TestKeying:
    def test_key_is_stable(self):
        k1 = cache_key("kronecker", scale=12, seed=0)
        k2 = cache_key("kronecker", seed=0, scale=12)
        assert k1 == k2 and len(k1) == 64

    def test_key_separates_params(self):
        assert cache_key("kronecker", scale=12, seed=0) != \
            cache_key("kronecker", scale=12, seed=1)
        assert cache_key("kronecker", scale=12) != \
            cache_key("powerlaw", scale=12)

    def test_numpy_and_tuple_params_canonicalize(self):
        assert cache_key("g", n=np.int64(4), w=(1, 255)) == \
            cache_key("g", n=4, w=[1, 255])

    def test_unhashable_param_raises(self):
        with pytest.raises(TypeError):
            cache_key("g", fn=lambda: None)

    def test_key_separates_numpy_versions(self, monkeypatch):
        # Cached arrays are Generator draws, whose streams numpy does not
        # promise across versions: another numpy must miss.
        key = cache_key("kronecker", scale=12, seed=0)
        monkeypatch.setattr(np, "__version__", "0.0.0")
        assert cache_key("kronecker", scale=12, seed=0) != key


class TestHitMiss:
    def test_npz_roundtrip(self, cache):
        key = cache_key("t", x=1)
        assert cache.get_arrays(key) is None
        assert cache.misses == 1
        arrays = {"index": np.array([0, 2, 3], dtype=np.int64),
                  "edges": np.array([1, 2, 0], dtype=np.int32)}
        cache.put_arrays(key, arrays)
        out = cache.get_arrays(key)
        assert cache.hits == 1
        assert (out["index"] == arrays["index"]).all()
        assert (out["edges"] == arrays["edges"]).all()

    def test_json_roundtrip(self, cache):
        key = cache_key("m", fig="fig12")
        assert cache.get_json(key) is None
        cache.put_json(key, {"rows": [[1, 2.5, "x"]]})
        assert cache.get_json(key) == {"rows": [[1, 2.5, "x"]]}

    def test_entries_are_written_uncompressed(self, cache):
        key = cache_key("t", x=5)
        cache.put_arrays(key, {"a": np.zeros(1 << 12)})
        # A stored (uncompressed) zip member is at least the array's size.
        assert cache.path_for(key, ".npz").stat().st_size > (1 << 15)

    def test_compressed_entries_still_load(self, cache):
        key = cache_key("t", x=6)
        cache.root.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(cache.path_for(key, ".npz"), a=np.arange(7))
        assert (cache.get_arrays(key)["a"] == np.arange(7)).all()

    def test_cached_arrays_are_read_only_in_every_state(self, cache,
                                                         monkeypatch):
        # Built (cache disabled or cold) or read from disk: a write fails
        # alike, so no caller passes cold and breaks warm.
        monkeypatch.setattr(cache_mod, "_CACHE", cache)
        built = np.arange(4)

        def get():
            return cached_arrays("ro", lambda: {"a": built}, n=1)["a"]

        with cache.disabled():
            states = [get()]
        states += [get() for _ in range(3)]  # cold, then disk twice
        for got in states:
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = -1
            np.testing.assert_array_equal(got, np.arange(4))
        assert built.flags.writeable  # the builder's own array is not touched


class TestEviction:
    def _fill(self, cache, n, size=1000):
        for i in range(n):
            cache.put_json(cache_key("e", i=i), {"pad": "x" * size})

    def test_evicts_down_to_cap(self, cache):
        self._fill(cache, 10)
        total = cache.size_bytes()
        cache.evict(max_bytes=total // 2)
        assert cache.size_bytes() <= total // 2
        assert len(cache._entries()) < 10

    def test_lru_order(self, cache, tmp_path):
        keys = [cache_key("e", i=i) for i in range(3)]
        for i, k in enumerate(keys):
            cache.put_json(k, {"i": i})
            # force distinct, increasing mtimes
            os.utime(cache.path_for(k, ".json"), (i, i))
        os.utime(cache.path_for(keys[0], ".json"), None)  # refresh oldest
        cache.evict(max_bytes=cache.size_bytes() - 1)
        assert cache.get_json(keys[0]) is not None   # recently used survives
        assert cache.get_json(keys[1]) is None       # stalest went first

    def test_put_triggers_eviction(self, tmp_path):
        small = ArtifactCache(root=tmp_path, max_bytes=4096, enabled=True)
        self._fill(small, 20)
        assert small.size_bytes() <= 4096


class TestCorruptionRecovery:
    def test_truncated_npz_regenerates(self, cache):
        key = cache_key("t", x=3)
        cache.put_arrays(key, {"index": np.array([0, 1]),
                               "edges": np.array([0])})
        path = cache.path_for(key, ".npz")
        path.write_bytes(path.read_bytes()[:10])  # truncate mid-header
        assert cache.get_arrays(key) is None      # miss, not a crash
        assert not path.exists()                  # bad entry dropped

    def test_garbage_json_regenerates(self, cache):
        key = cache_key("m", x=4)
        cache.put_json(key, {"ok": True})
        cache.path_for(key, ".json").write_text("{not json", encoding="utf-8")
        assert cache.get_json(key) is None
        assert not cache.path_for(key, ".json").exists()

    def test_cached_graph_survives_stale_payload(self, cache, monkeypatch):
        monkeypatch.setattr(cache_mod, "_CACHE", cache)
        key = cache_key("g", n=5)
        # a structurally invalid CSR payload under the right key
        cache.put_arrays(key, {"index": np.array([3, 1]),
                               "edges": np.array([0])})
        g = cached_graph("g", lambda: CSRGraph(np.array([0, 1]),
                                               np.array([0])), n=5)
        assert g.num_vertices == 1  # rebuilt from the builder

    def test_entry_truncated_after_a_read_is_rebuilt(self, cache,
                                                     monkeypatch):
        # Every hit reads the file, so damage done to an entry after it
        # was read is seen on the next read: no earlier copy hides it.
        monkeypatch.setattr(cache_mod, "_CACHE", cache)
        builds = []

        def build():
            builds.append(1)
            return {"a": np.arange(1 << 10), "b": np.linspace(0, 1, 7)}

        def get():
            return cached_arrays("tr", build, names=("a", "b"), n=1)

        built = get()                                  # cold: built
        read = get()                                   # read from disk
        assert len(builds) == 1
        path = cache.path_for(cache_key("tr", n=1), ".npz")
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:size // 2])
        rebuilt = get()
        assert len(builds) == 2
        assert path.stat().st_size == size             # ... and rewritten
        for got in (read, rebuilt):
            for name, want in built.items():
                assert got[name].dtype == want.dtype
                np.testing.assert_array_equal(got[name], want)
                assert not got[name].flags.writeable

    def test_cached_arrays_rebuilds_on_other_names(self, cache, monkeypatch):
        monkeypatch.setattr(cache_mod, "_CACHE", cache)
        key = cache_key("z", n=1)
        cache.put_arrays(key, {"old": np.arange(3)})
        out = cached_arrays("z", lambda: {"new": np.arange(4)},
                            names=("new",), n=1)
        assert list(out) == ["new"]
        assert list(cache.get_arrays(key)) == ["new"]  # entry rewritten

    def test_cached_arrays_rebuilds_what_check_rejects(self, cache,
                                                      monkeypatch):
        monkeypatch.setattr(cache_mod, "_CACHE", cache)
        key = cache_key("ids", n=4)
        cache.put_arrays(key, {"ids": np.array([0, 1, 2, 9])})
        out = cached_arrays(
            "ids", lambda: {"ids": np.arange(4)}, names=("ids",),
            check=lambda a: array_ok(a["ids"], np.int64, (4,), 0, 4), n=4)
        np.testing.assert_array_equal(out["ids"], np.arange(4))
        np.testing.assert_array_equal(cache.get_arrays(key)["ids"],
                                      np.arange(4))

    def test_array_ok(self):
        a = np.array([0, 3, 1], dtype=np.int64)
        assert array_ok(a, np.int64, (3,), 0, 4)
        assert array_ok(a, np.int64)
        assert array_ok(a[:0], np.int64, (0,), 0, 0)
        assert not array_ok(a, np.int32)
        assert not array_ok(a, np.int64, (4,))
        assert not array_ok(a.reshape(1, 3), np.int64)
        assert not array_ok(a, np.int64, (3,), 1)
        assert not array_ok(a, np.int64, (3,), 0, 3)
        assert not array_ok(np.array([np.nan]), np.float64, (1,), 0)

    def test_cached_arrays_rejects_builder_names(self, cache, monkeypatch):
        monkeypatch.setattr(cache_mod, "_CACHE", cache)
        with pytest.raises(ValueError, match="expected"):
            cached_arrays("z", lambda: {"a": np.arange(2)},
                          names=("a", "b"), n=2)


class TestConcurrentWriters:
    def test_atomic_rename_last_writer_wins(self, cache):
        key = cache_key("c", x=1)
        procs = [multiprocessing.Process(
            target=_writer_proc, args=(str(cache.root), key, i))
            for i in range(4)]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0
        out = cache.get_arrays(key)
        # every writer wrote the same content-addressed payload; whoever
        # won the final rename, the entry is complete and loadable
        assert out is not None and (out["a"] == np.arange(1 << 12)).all()

    def test_reader_never_sees_partial_write(self, cache):
        # the tempfile lives beside the target; until the rename there is
        # no entry at the final path at all
        key = cache_key("c", x=2)
        assert cache.get_arrays(key) is None
        tmp_files = list(cache.root.glob("*.tmp"))
        assert tmp_files == []


class TestBypass:
    def test_disabled_cache_never_stores(self, cache):
        with cache.disabled():
            cache.put_json(cache_key("b", x=1), {"v": 1})
            assert cache.get_json(cache_key("b", x=1)) is None
        assert cache.enabled  # restored on exit

    @pytest.mark.parametrize("value,enabled", [
        ("", True), ("0", True), ("false", True), ("1", False),
        ("true", False)])
    def test_no_cache_env(self, tmp_path, monkeypatch, value, enabled):
        monkeypatch.setenv("REPRO_NO_CACHE", value)
        assert ArtifactCache(root=tmp_path).enabled == enabled

    def test_generator_bypass_recomputes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_mod, "_CACHE",
                            ArtifactCache(root=tmp_path, enabled=True))
        g1 = kronecker(10, 4, seed=3)
        c = cache_mod.get_cache()
        hits_before = c.hits
        g2 = kronecker(10, 4, seed=3)          # served from cache
        assert c.hits == hits_before + 1
        with c.disabled():
            g3 = kronecker(10, 4, seed=3)      # recomputed, not served
        assert c.hits == hits_before + 1
        for g in (g2, g3):
            assert (g.index == g1.index).all()
            assert (g.edges == g1.edges).all()


class TestGeneratorIntegration:
    def test_cached_graph_identical_to_generated(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_mod, "_CACHE",
                            ArtifactCache(root=tmp_path, enabled=True))
        g_cold = powerlaw(2048, 8, seed=11, weights_range=(1, 255))
        g_warm = powerlaw(2048, 8, seed=11, weights_range=(1, 255))
        assert (g_cold.index == g_warm.index).all()
        assert (g_cold.edges == g_warm.edges).all()
        assert (g_cold.weights == g_warm.weights).all()

    def test_different_seeds_do_not_collide(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_mod, "_CACHE",
                            ArtifactCache(root=tmp_path, enabled=True))
        a = powerlaw(1024, 4, seed=1)
        b = powerlaw(1024, 4, seed=2)
        assert not np.array_equal(a.edges, b.edges)


def _run_json(result) -> str:
    """Everything a run reports, as JSON bytes."""
    return json.dumps({
        "label": result.label, "cycles": result.cycles,
        "phase_cycles": result.phase_cycles,
        "phase_resources": result.phase_resources,
        "flit_hops_by_class": result.flit_hops_by_class,
        "total_flit_hops": result.total_flit_hops,
        "l3_miss_pct": result.l3_miss_pct,
        "noc_utilization": result.noc_utilization,
        "energy_pj": result.energy_pj, "counters": result.counters,
        "value": np.asarray(result.value).tolist()}, sort_keys=True)


def _stats_digest(result) -> str:
    """Digest of a run's simulated statistics."""
    blob = json.dumps({"cycles": result.cycles,
                       "phase_cycles": result.phase_cycles,
                       "flit_hops_by_class": result.flit_hops_by_class,
                       "counters": result.counters}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name,names,draws", [
    ("hash_join_skew", {"build", "probe"}, 2),
    ("spmv_gather", {"cols", "xv"}, 1),
])
class TestZooInputsAcrossCacheStates:
    """The zoo's Zipf inputs come through the cache; every cache state
    must give the run a fresh draw would give."""

    SCALE = 0.05

    @pytest.fixture
    def zipf_calls(self, monkeypatch):
        calls = []
        draw = adversarial._zipf_indices

        def counted(*args, **kwargs):
            calls.append(args[2])
            return draw(*args, **kwargs)

        monkeypatch.setattr(adversarial, "_zipf_indices", counted)
        return calls

    def _run(self, name, mode=EngineMode.AFF_ALLOC):
        r = run_workload(name, mode, scale=self.SCALE, seed=3)
        return r.value, _stats_digest(r), _run_json(r)

    def test_same_run_in_every_state(self, name, names, draws, tmp_path,
                                     monkeypatch, zipf_calls):
        cache = ArtifactCache(root=tmp_path, enabled=True)
        monkeypatch.setattr(cache_mod, "_CACHE", cache)
        with cache.disabled():
            want = self._run(name)
        assert len(zipf_calls) == draws
        assert list(tmp_path.iterdir()) == []

        cold = self._run(name)                 # drawn, then written
        assert len(zipf_calls) == 2 * draws
        (entry,) = [p for p in tmp_path.iterdir() if p.suffix == ".npz"]
        size = entry.stat().st_size
        disk = self._run(name)                 # loaded from the file
        assert len(zipf_calls) == 2 * draws

        entry.write_bytes(entry.read_bytes()[:size // 2])
        truncated = self._run(name)            # corrupt entry: redrawn
        assert len(zipf_calls) == 3 * draws
        assert entry.stat().st_size == size    # ... and rewritten
        assert set(cache.get_arrays(entry.stem)) == names

        for got in (cold, disk, truncated):
            assert got == want

    def test_two_arms_draw_once(self, name, names, draws, tmp_path,
                                monkeypatch, zipf_calls):
        monkeypatch.setattr(cache_mod, "_CACHE",
                            ArtifactCache(root=tmp_path, enabled=True))
        self._run(name, EngineMode.AFF_ALLOC)
        self._run(name, EngineMode.NEAR_L3)
        assert len(zipf_calls) == draws


#: (kernel, names of its cached skeleton, the skeleton's node-id or value
#: array, (owner, attribute) of the function that builds it).
SKELETONS = [
    ("bin_tree", {"prio", "left", "right", "parent", "root", "positions",
                  "depths"}, "positions", (BinaryTree, "shape")),
    ("hash_join", {"keys", "buckets", "chain_pos", "bucket_index",
                   "bucket_nodes", "probe_keys", "node_ids", "walk_len",
                   "hit"}, "node_ids", (HashTable, "skeleton")),
    ("sssp", {"frontiers", "sizes", "dist"}, "frontiers",
     (graph_kernels, "_sssp_walk")),
    ("pr_push", {"rank"}, "rank", (graph_kernels, "_pagerank_functional")),
]


@pytest.mark.parametrize("name,names,node_array,built_by", SKELETONS,
                         ids=[k[0] for k in SKELETONS])
class TestSkeletonsAcrossCacheStates:
    """Table 3 kernels build their mode-independent skeletons once per
    (params, seed) through the cache; every cache state, and every bad
    entry at the key, must give the run a fresh build would give."""

    SCALE = 0.05
    SEED = 3

    @pytest.fixture
    def builds(self, monkeypatch, built_by):
        owner, attr = built_by
        build = getattr(owner, attr)
        calls = []

        def counted(*args, **kwargs):
            calls.append(attr)
            return build(*args, **kwargs)

        if isinstance(owner, type):
            counted = staticmethod(counted)
        monkeypatch.setattr(owner, attr, counted)
        return calls

    @pytest.fixture
    def cache(self, tmp_path, monkeypatch):
        cache = ArtifactCache(root=tmp_path, enabled=True)
        monkeypatch.setattr(cache_mod, "_CACHE", cache)
        return cache

    def _run(self, name, mode=EngineMode.AFF_ALLOC, **kwargs):
        return _run_json(run_workload(name, mode, scale=self.SCALE,
                                      seed=self.SEED, **kwargs))

    def _entry(self, cache, names):
        """The skeleton's ``.npz`` entry (graphs have their own)."""
        (entry,) = [p for p in cache.root.iterdir() if p.suffix == ".npz"
                    and set(np.load(p).files) == names]
        return entry

    def test_same_run_in_every_state(self, name, names, node_array,
                                     built_by, builds, cache):
        with cache.disabled():
            want = self._run(name)
        assert len(builds) == 1
        cold = self._run(name)                 # built, then written
        entry = self._entry(cache, names)
        size = entry.stat().st_size
        disk = self._run(name)                 # loaded from the file
        again = self._run(name)                # and from the file again
        assert len(builds) == 2

        entry.write_bytes(entry.read_bytes()[:size // 2])
        truncated = self._run(name)            # corrupt entry: rebuilt
        assert len(builds) == 3
        assert entry.stat().st_size == size    # ... and rewritten
        for got in (cold, disk, again, truncated):
            assert got == want

    def test_three_modes_build_once(self, name, names, node_array,
                                    built_by, builds, cache):
        for mode in EngineMode:
            self._run(name, mode)
        assert len(builds) == 1

    def test_bad_entries_are_rebuilt(self, name, names, node_array,
                                     built_by, builds, cache):
        with cache.disabled():
            want = self._run(name)
        self._run(name)
        entry = self._entry(cache, names)
        good = dict(np.load(entry))
        nodes = good[node_array]
        bad_payloads = {
            "zero-byte": b"",
            "truncated": entry.read_bytes()[:100],
            "wrong names": {"other": nodes},
            "wrong shape": {**good, node_array: nodes[:-1]},
            "wrong dtype": {**good, node_array: nodes.astype(np.float32)},
            "out of range": {**good, node_array: nodes + (1 << 20)},
        }
        for label, payload in bad_payloads.items():
            if isinstance(payload, bytes):
                entry.write_bytes(payload)
            else:
                with open(entry, "wb") as fh:
                    np.savez(fh, **payload)
            before = len(builds)
            assert self._run(name) == want, label
            assert len(builds) == before + 1, label
            assert set(cache.get_arrays(entry.stem)) == names, label


#: (statistics digest, value digest) prefixes of each Table 3 kernel's
#: In-Core, Near-L3 and Aff-Alloc runs at scale 0.05, seed 3.  Neither
#: caching a skeleton nor a faster address path may move a simulated bit.
PINNED_RUNS = {
    "bin_tree": ("2b26ac0b2e08720e", "fd0bbdfd7a47e364", "9c6c8d386c9a5e16",
                 "57edca8eb40c277b"),
    "hash_join": ("80a8a98f9987442d", "1e87d8ecc3c72e7f", "9e9f377f94860a26",
                  "86895f51ad724506"),
    "sssp": ("ebae85fea71b3be7", "00fe5583cfd7f6c2", "1a12a249eca13445",
             "828d81182ecd8f5d"),
    "pr_push": ("261a4bc1db8979b5", "4977d03af50454d3", "ecab7362332e2485",
                "aaf77e6a6e97d399"),
    "pr_pull": ("2210e326e08eeb0f", "4462c6b542f3a7a2", "007191d95df980b4",
                "aaf77e6a6e97d399"),
    "bfs": ("c3bf9d01f67fb958", "8e218acc1622b8e5", "1d8cda1410ae3650",
            "91751b52db098b10"),
    "link_list": ("54ae736bd53a37a0", "64db62fecd861ce8", "4c82733e4a74c721",
                  "6c3c396ed6b5c36d"),
    "pathfinder": ("726181aa519f0d57", "2fbcbc9ed928ba9f", "e13f65b73b66dd4a",
                   "85fbe068d3cf99dd"),
    "hotspot": ("7ca25bfa44877b17", "54e7222b19364bc2", "942c93224f3326aa",
                "f634c7d535ddf299"),
    "srad": ("ac47c84a976935cb", "aefc36ddba4f7a37", "9552e2d4c7276752",
             "be87cd6edc6caf2a"),
    "hotspot3D": ("0b42a8f0c5e6967a", "e8a4abf47e8f5853", "89f72e0a5734aacf",
                  "6b67a70b9185b67d"),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_skeleton_runs_match_pinned_digests(name, tmp_path, monkeypatch):
    monkeypatch.setattr(cache_mod, "_CACHE",
                        ArtifactCache(root=tmp_path, enabled=True))
    *stats, value = PINNED_RUNS[name]
    modes = (EngineMode.IN_CORE, EngineMode.NEAR_L3, EngineMode.AFF_ALLOC)
    for mode, want in zip(modes, stats):
        r = run_workload(name, mode, scale=0.05, seed=3)
        assert _stats_digest(r)[:16] == want, mode
        got = hashlib.sha256(np.asarray(r.value).tobytes()).hexdigest()
        assert got[:16] == value, mode


@pytest.mark.parametrize("name,weighted", [("sssp", True),
                                           ("pr_push", False)])
def test_caller_graph_runs_like_the_default(name, weighted, tmp_path,
                                            monkeypatch):
    monkeypatch.setattr(cache_mod, "_CACHE",
                        ArtifactCache(root=tmp_path, enabled=True))
    scale, seed = 0.05, 3
    g = graph_kernels.default_graph(scale, seed, weighted=weighted)
    for mode in (EngineMode.AFF_ALLOC, EngineMode.IN_CORE):
        want = _run_json(run_workload(name, mode, scale=scale, seed=seed))
        got = _run_json(run_workload(name, mode, scale=scale, seed=seed,
                                     graph=g))
        assert got == want


def _writer_proc(root: str, key: str, worker: int) -> None:
    c = ArtifactCache(root=root, enabled=True)
    for _ in range(5):
        c.put_arrays(key, {"a": np.arange(1 << 12)})
