"""Vectorized hot paths vs. their pre-vectorization reference originals.

Every property here demands *byte-identical* output (``array_equal`` on
exact float bit values, not ``allclose``): the vectorization PR's
contract is that goldens never move.  The references live in
:mod:`tests.oracles`, copied verbatim from the pre-PR tree.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.iot import InterleaveOverrideTable, IotEntry
from repro.arch.mesh import Mesh, TopologyError
from repro.arch.noc import MessageClass, TrafficAccountant, pair_channel_loads
from repro.config import DEFAULT_CONFIG
from repro.machine import Machine
from repro.nsc.executor import (_consecutive_dedup, _first_unique,
                                _first_unique_counts, _pair_key, _shrink_key)
from repro.core.runtime import _affinity_groups
from repro.perf.kernels.pybackend import _group_means
from tests import oracles as ref

# Small meshes keep the per-pair reference loops fast under hypothesis.
meshes = st.sampled_from([(2, 2), (3, 2), (4, 4), (5, 3)])


# ----------------------------------------------------------------------
# NoC routing
# ----------------------------------------------------------------------
class TestNocEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(dims=meshes, data=st.data())
    def test_pair_channel_loads_matches_reference(self, dims, data):
        mesh = Mesh(*dims)
        n = mesh.num_tiles
        flits = data.draw(st.lists(
            st.floats(0, 1e6, allow_nan=False, width=32),
            min_size=n * n, max_size=n * n))
        pair_flits = np.array(flits, dtype=np.float64)
        got = pair_channel_loads(mesh, pair_flits)
        want = ref.pair_channel_loads_reference(mesh, pair_flits)
        assert np.array_equal(got, want)

    @settings(max_examples=30, deadline=None)
    @given(dims=meshes, data=st.data())
    def test_mesh_link_loads_matches_reference(self, dims, data):
        mesh = Mesh(*dims)
        n = mesh.num_tiles
        k = data.draw(st.integers(0, 200))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        src = rng.integers(0, n, size=k)
        dst = rng.integers(0, n, size=k)
        weight = rng.integers(0, 100, size=k).astype(np.float64)
        got = mesh.link_loads(src, dst, weight)
        want = ref.mesh_link_loads_reference(mesh, src, dst, weight)
        assert np.array_equal(got, want)

    def test_empty_pair_matrix(self):
        mesh = Mesh(4, 4)
        zeros = np.zeros(mesh.num_tiles ** 2)
        assert np.array_equal(pair_channel_loads(mesh, zeros),
                              ref.pair_channel_loads_reference(mesh, zeros))


class TestAccountantEpochCache:
    def _accountant(self):
        return TrafficAccountant(Mesh(4, 4), DEFAULT_CONFIG.noc)

    def test_queries_cached_within_epoch(self):
        acc = self._accountant()
        acc.record(np.array([0, 1]), np.array([5, 9]), 64, MessageClass.DATA)
        first = acc.link_loads()
        cached = acc._channel_cache
        assert cached is not None and not acc._dirty
        acc.max_link_load(), acc.mean_link_load()
        assert acc._channel_cache is cached  # no recompute between records
        assert np.array_equal(acc.link_loads(), first)

    def test_record_dirties_epoch(self):
        acc = self._accountant()
        acc.record(np.array([0]), np.array([5]), 64, MessageClass.DATA)
        before = acc.max_link_load()
        acc.record(np.array([0]), np.array([5]), 64, MessageClass.DATA)
        assert acc._dirty
        assert acc.max_link_load() == pytest.approx(2 * before)

    def test_metrics_match_uncached_reference(self):
        acc = self._accountant()
        rng = np.random.default_rng(7)
        for _ in range(10):
            acc.record(rng.integers(0, 16, 50), rng.integers(0, 16, 50),
                       64, MessageClass.DATA)
        loads = acc.link_loads()
        want = ref.pair_channel_loads_reference(
            acc.mesh, sum(acc._pair_flits.values()))
        assert np.array_equal(loads, want)


# ----------------------------------------------------------------------
# Address translation
# ----------------------------------------------------------------------
class TestTranslateEquivalence:
    @pytest.fixture(scope="class")
    def machine(self):
        m = Machine()
        heap_base = m.malloc(1 << 20)
        for iv in m.pools.interleaves[:3]:
            m.pools.expand(iv, 1 << 20)
        return m, heap_base

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_translate_matches_reference(self, machine, data):
        machine, heap_base = machine
        # Draw addresses from the mapped windows (heap + three pools).
        windows = [(heap_base, 1 << 20)]
        windows += [(machine.pools.pool(iv).vbase, 1 << 20)
                    for iv in machine.pools.interleaves[:3]]
        picks = data.draw(st.lists(
            st.tuples(st.integers(0, len(windows) - 1),
                      st.integers(0, (1 << 20) - 1)),
            min_size=0, max_size=300))
        vaddrs = np.array([windows[w][0] + off for w, off in picks],
                          dtype=np.int64)
        if vaddrs.size == 0:
            return
        got = machine.space.translate(vaddrs)
        want = ref.translate_reference(machine.space, vaddrs)
        assert np.array_equal(got, want)

    def test_single_region_fast_path(self, machine):
        machine, _ = machine
        base = machine.pools.pool(machine.pools.interleaves[0]).vbase
        vaddrs = base + np.arange(1000, dtype=np.int64)
        assert np.array_equal(machine.space.translate(vaddrs),
                              ref.translate_reference(machine.space, vaddrs))

    def test_unmapped_raises_same_address(self, machine):
        machine, _ = machine
        bad = np.array([0x10], dtype=np.int64)  # below every region
        with pytest.raises(RuntimeError, match="unmapped"):
            machine.space.translate(bad)
        with pytest.raises(RuntimeError, match="unmapped"):
            ref.translate_reference(machine.space, bad)


# ----------------------------------------------------------------------
# IOT bank lookup
# ----------------------------------------------------------------------
def _iot_with_entries(num_banks, entries):
    iot = InterleaveOverrideTable(num_banks, capacity=max(16, len(entries)))
    for e in entries:
        iot.install(e)
    return iot


class TestIotEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_banks_matches_reference(self, data):
        num_banks = data.draw(st.sampled_from([4, 16, 64, 12]))  # 12: non-pow2
        n_entries = data.draw(st.integers(0, 12))
        # Disjoint ranges laid out left to right.
        entries, pos = [], 0
        for _ in range(n_entries):
            pos += data.draw(st.integers(0, 1 << 16))
            size = data.draw(st.integers(1, 1 << 18))
            iv = 1 << data.draw(st.integers(6, 12))
            entries.append(IotEntry(pos, pos + size, iv))
            pos += size
        iot = _iot_with_entries(num_banks, entries)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        addrs = rng.integers(0, max(pos, 1) + (1 << 16),
                             size=data.draw(st.integers(0, 500)))
        got = iot.banks(addrs, default_shift=10)
        want = ref.iot_banks_reference(iot, addrs, 10)
        assert np.array_equal(got, want)

    def test_large_table_searchsorted_branch(self):
        # >8 entries exercises the searchsorted membership fallback.
        entries = [IotEntry(i << 20, (i << 20) + (1 << 19), 64)
                   for i in range(12)]
        iot = _iot_with_entries(16, entries)
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 13 << 20, size=5000)
        assert np.array_equal(iot.banks(addrs, 10),
                              ref.iot_banks_reference(iot, addrs, 10))

    def test_whole_batch_fast_path(self):
        iot = _iot_with_entries(16, [IotEntry(1 << 20, 2 << 20, 256)])
        addrs = (1 << 20) + np.arange(0, 1 << 20, 64, dtype=np.int64)
        assert np.array_equal(iot.banks(addrs, 10),
                              ref.iot_banks_reference(iot, addrs, 10))

    def test_overlapping_entries_rejected(self):
        # Precedence between overlapping entries never arises: install
        # refuses the overlap, so range membership is unambiguous.
        iot = _iot_with_entries(16, [IotEntry(0x1000, 0x2000, 64)])
        with pytest.raises(ValueError, match="overlaps"):
            iot.install(IotEntry(0x1800, 0x3000, 64))
        # Adjacent (touching) ranges are fine, and the boundary address
        # belongs to the right-hand entry.
        iot.install(IotEntry(0x2000, 0x3000, 128))
        assert iot.lookup(0x1FFF).intrlv == 64
        assert iot.lookup(0x2000).intrlv == 128


# ----------------------------------------------------------------------
# Batched affinity scoring and heap footprint registration
# ----------------------------------------------------------------------
class TestAffinityHopSumsEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(dims=meshes, data=st.data())
    def test_hop_sums_match_reference(self, dims, data):
        mesh = Mesh(*dims)
        # A dead link swaps the Manhattan table for the BFS one.
        if data.draw(st.booleans()):
            a, b = data.draw(st.sampled_from(mesh.undirected_interior_links()))
            try:
                mesh.remove_link_between(a, b)
            except TopologyError:
                pass
        n = data.draw(st.integers(1, 20))
        k = data.draw(st.integers(0, 200))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        alloc_ids = rng.integers(0, n, size=k)
        banks = rng.integers(0, mesh.num_tiles, size=k)
        dist = mesh.hops_table()
        # The python eq4's CSR group means against the original scatter
        # of hop sums, divided by each group's size.
        offsets, grouped = _affinity_groups(alloc_ids, banks, n)
        got = _group_means(offsets, grouped, dist.T.astype(np.float64))
        want = ref.affinity_hop_sums_reference(alloc_ids, banks, dist, n)
        want /= np.maximum(np.diff(offsets), 1)[:, None]
        assert np.array_equal(got, want)


class TestHeapFootprintEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(heap_mode=st.sampled_from(["linear", "random"]), data=st.data())
    def test_register_matches_reference(self, heap_mode, data):
        heap = 1 << 18
        page = DEFAULT_CONFIG.page_size
        shipped, oracle = Machine(heap_mode=heap_mode), \
            Machine(heap_mode=heap_mode)
        base = shipped.malloc(heap)
        assert oracle.malloc(heap) == base
        for m in (shipped, oracle):
            m.llc._footprint_bytes[:] = 0.0
        ranges = data.draw(st.lists(
            st.tuples(st.integers(0, heap - 1), st.integers(0, 3 * page)),
            min_size=1, max_size=20))
        for off, size in ranges:
            size = min(size, heap - off)
            shipped._register_heap_footprint(base + off, size)
            ref.register_heap_footprint_reference(oracle, base + off, size)
        assert np.array_equal(shipped.llc.footprint_bytes,
                              oracle.llc.footprint_bytes)


# ----------------------------------------------------------------------
# Executor dedup keys
# ----------------------------------------------------------------------
int_arrays = st.lists(st.integers(-2**62, 2**62), min_size=0, max_size=200)


class TestFirstUniqueEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(values=int_arrays, presort=st.booleans())
    def test_first_unique(self, values, presort):
        key = np.array(values, dtype=np.int64)
        if presort:
            key.sort()
        assert np.array_equal(_first_unique(key),
                              ref.first_unique_reference(key))

    @settings(max_examples=60, deadline=None)
    @given(values=int_arrays, presort=st.booleans())
    def test_first_unique_counts(self, values, presort):
        key = np.array(values, dtype=np.int64)
        if presort:
            key.sort()
        gf, gc = _first_unique_counts(key)
        wf, wc = ref.first_unique_counts_reference(key)
        assert np.array_equal(gf, wf)
        assert np.array_equal(gc, wc)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_pair_key_orders_like_wide_key(self, data):
        k = data.draw(st.integers(1, 100))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        groups = rng.integers(0, 64, size=k)
        values = rng.integers(0, 1 << 40, size=k)
        key = _pair_key(groups, values)
        wide = groups * (np.int64(1) << 48) + values
        # Same lexicographic order: first-occurrence sets must agree.
        assert np.array_equal(_first_unique(key),
                              ref.first_unique_reference(wide))

    def test_shrink_key_preserves_order(self):
        key = np.array([5_000_000_000, 5_000_000_002, 5_000_000_000],
                       dtype=np.int64)
        small = _shrink_key(key)
        assert small.dtype == np.int32
        assert np.array_equal(np.argsort(small, kind="stable"),
                              np.argsort(key, kind="stable"))

    def test_shrink_key_keeps_wide_spread(self):
        key = np.array([0, 1 << 40], dtype=np.int64)
        assert _shrink_key(key).dtype == np.int64

    def test_pair_key_empty(self):
        out = _pair_key(np.empty(0, dtype=np.int64),
                        np.empty(0, dtype=np.int64))
        assert out.size == 0 and out.dtype == np.int64


class TestConsecutiveDedupEdgeCases:
    def test_empty(self):
        mask = _consecutive_dedup(np.empty(0, dtype=np.int64),
                                  np.empty(0, dtype=np.int64))
        assert mask.size == 0 and mask.dtype == bool

    def test_single_element(self):
        assert _consecutive_dedup(np.array([7]), np.array([0])).tolist() \
            == [True]

    def test_all_same_line_one_group(self):
        mask = _consecutive_dedup(np.full(5, 42), np.zeros(5))
        assert mask.tolist() == [True, False, False, False, False]

    def test_group_change_restarts_run(self):
        mask = _consecutive_dedup(np.array([1, 1, 1, 1]),
                                  np.array([0, 0, 1, 1]))
        assert mask.tolist() == [True, False, True, False]
