"""Kernel backends vs. the scalar Eq. 4 oracle — bit-identical, always.

PR 8's contract: every compute backend (``python`` division-table,
``c`` ctypes kernels) executes the same arithmetic in the same IEEE
order as the pre-PR scalar loop, so goldens and ``run-<hash>.json``
never move when the backend changes.  The oracle here is an
*independent* re-statement of that scalar chain (not a call into the
shipped code), and every assertion is ``array_equal`` on exact bit
values — never ``allclose``.

The C cases skip cleanly where no system C compiler exists; the python
backend always runs.
"""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.iot import IotEntry, MigrationEntry
from repro.arch.mesh import Mesh, TopologyError
from repro.config import NocConfig, SystemConfig
from repro.core.api import AddressView, ArrayHandle
from repro.core.runtime import _affinity_groups
from repro.machine import Machine
from repro.nsc import executor
from repro.perf import kernels
from repro.perf.kernels import cbackend, pybackend
from repro.vm.layout import VirtualLayout
from tests.oracles import affinity_hop_sums_reference, eq4_reference


# ----------------------------------------------------------------------
# Backend parametrization (C skips without a compiler, never fails)
# ----------------------------------------------------------------------
BACKENDS = [
    pytest.param("python", id="python"),
    pytest.param("c", id="c",
                 marks=pytest.mark.skipif(not cbackend.AVAILABLE,
                                          reason="no working system C "
                                                 "compiler")),
]


def _module(name):
    return pybackend if name == "python" else cbackend


@pytest.fixture
def active_backend(backend):
    """Make ``backend`` the registry's active backend for one test."""
    before = kernels.get_backend().NAME
    kernels.set_backend(backend)
    try:
        yield backend
    finally:
        kernels.set_backend(before)


# ----------------------------------------------------------------------
# Independent scalar oracles (verbatim pre-PR op chains)
# ----------------------------------------------------------------------
def oracle_select(mean_hops, loads, h, penalty):
    """The original HybridPolicy.select_batch inner loop, restated."""
    n, nb = mean_hops.shape
    loads = loads.copy()
    total = float(loads.sum())
    out = np.empty(n, dtype=np.int64)
    score = np.empty(nb, dtype=np.float64)
    for i in range(n):
        if h > 0 and total > 0:
            np.divide(loads, total / nb, out=score)
            score -= 1.0
            score *= h
            score += mean_hops[i]
            if penalty is not None:
                score += penalty
            b = int(score.argmin())
        elif penalty is not None:
            b = int((mean_hops[i] + penalty).argmin())
        else:
            b = int(mean_hops[i].argmin())
        out[i] = b
        loads[b] += 1.0
        total += 1.0
    return out, loads


def oracle_affinity(dist, alloc_ids, banks, n, loads, h, penalty):
    """The original dense path of malloc_irregular_batch: the np.add.at
    hop sums, one division by each row's count, then the scalar loop."""
    mean_hops = affinity_hop_sums_reference(alloc_ids, banks, dist, n)
    counts = np.bincount(alloc_ids, minlength=n).astype(np.float64)
    counts[counts == 0] = 1.0
    mean_hops /= counts[:, None]
    return oracle_select(mean_hops, loads, h, penalty)


def oracle_chained(dist_t, prev_ids, head_banks, loads, h, penalty):
    """The original chained select of malloc_irregular_chained, restated."""
    n = prev_ids.size
    nb = loads.size
    loads = loads.copy()
    total = float(loads.sum())
    chosen = np.empty(n, dtype=np.int64)
    zeros = np.zeros(nb, dtype=np.float64)
    score = np.empty(nb, dtype=np.float64)
    for i in range(n):
        p = prev_ids[i]
        if p >= 0:
            hops_row = dist_t[chosen[p]]
        elif head_banks[i] >= 0:
            hops_row = dist_t[head_banks[i]]
        else:
            hops_row = zeros
        if h > 0 and total > 0:
            np.divide(loads, total / nb, out=score)
            score -= 1.0
            score *= h
            score += hops_row
            if penalty is not None:
                score += penalty
            b = int(score.argmin())
        elif penalty is not None:
            b = int((hops_row + penalty).argmin())
        else:
            b = int(hops_row.argmin())
        chosen[i] = b
        loads[b] += 1.0
        total += 1.0
    return chosen, loads


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
H_VALUES = st.sampled_from([0.0, 0.5, 1.0, 5.0, 17.0])
NB_VALUES = st.sampled_from([4, 16, 64])


def _draw_penalty(data, nb):
    kind = data.draw(st.sampled_from(["none", "zeros", "failed"]))
    if kind == "none":
        return None
    penalty = np.zeros(nb, dtype=np.float64)
    if kind == "failed":
        # Degraded mesh: some banks carry an infinite penalty, but never
        # all of them (the allocator refuses a fully-failed mesh).
        k = data.draw(st.integers(1, nb - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        penalty[rng.choice(nb, size=k, replace=False)] = np.inf
    return penalty


def _draw_mean_hops(data, n, nb):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):
        # Integer hop counts: maximal tie pressure on the argmin.
        return rng.integers(0, 8, size=(n, nb)).astype(np.float64)
    return rng.uniform(0.0, 14.0, size=(n, nb))


def _draw_loads(data, nb, kinds=("zero", "small", "skewed")):
    kind = data.draw(st.sampled_from(kinds))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "zero":
        return np.zeros(nb, dtype=np.float64)
    if kind == "small":
        return rng.integers(0, 50, size=nb).astype(np.float64)
    if kind == "fractional":
        return rng.integers(0, 50, size=nb) + rng.uniform(0.0, 1.0, nb)
    loads = rng.integers(0, 10, size=nb).astype(np.float64)
    loads[int(rng.integers(0, nb))] += float(rng.integers(5_000, 20_000))
    return loads


# ----------------------------------------------------------------------
# eq4 over the batch shapes its callers build
# ----------------------------------------------------------------------
def _select(mod, mean_hops, loads, h, penalty):
    """One-ref groups over the rows of a mean-hop matrix (INT003's
    shape, and the old dense select)."""
    n = mean_hops.shape[0]
    return mod.eq4(np.ones(n, dtype=np.int64), np.arange(n), mean_hops,
                   loads, h, penalty)


def _chain(mod, dist_t, prev_ids, head_banks, loads, h, penalty):
    """malloc_irregular_chained's groups: -(p + 1) for predecessor p,
    the head bank for a head that has one, nothing otherwise."""
    sizes = ((prev_ids >= 0) | (head_banks >= 0)).astype(np.int64)
    refs = np.where(prev_ids >= 0, -(prev_ids + 1), head_banks)
    return mod.eq4(sizes, refs[sizes == 1], dist_t, loads, h, penalty)


def _grouped(mod, dist_t, offsets, grouped, loads, h, penalty):
    """malloc_irregular_batch's CSR groups of affinity banks."""
    return mod.eq4(np.diff(offsets), grouped, dist_t, loads, h, penalty)


# ----------------------------------------------------------------------
# Dense rows (one-ref groups)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
class TestSelectBatchEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(h=H_VALUES, nb=NB_VALUES, n=st.integers(0, 200), data=st.data())
    def test_matches_oracle(self, backend, h, nb, n, data):
        mod = _module(backend)
        mean_hops = _draw_mean_hops(data, n, nb)
        loads = _draw_loads(data, nb)
        penalty = _draw_penalty(data, nb)
        want_out, want_loads = oracle_select(mean_hops, loads, h, penalty)
        got_loads = loads.copy()
        got_out = _select(mod, mean_hops, got_loads, h, penalty)
        assert np.array_equal(got_out, want_out)
        assert np.array_equal(got_loads, want_loads)

    def test_empty_batch(self, backend):
        mod = _module(backend)
        loads = np.zeros(16, dtype=np.float64)
        out = _select(mod, 
            np.empty((0, 16), dtype=np.float64), loads, 5.0, None)
        assert out.size == 0 and out.dtype == np.int64
        assert np.array_equal(loads, np.zeros(16))

    def test_all_zero_loads_head_replay(self, backend):
        # total == 0 scores by hops alone until the first choice lands.
        mod = _module(backend)
        rng = np.random.default_rng(3)
        mean_hops = rng.uniform(0, 10, size=(50, 16))
        loads = np.zeros(16, dtype=np.float64)
        want_out, want_loads = oracle_select(mean_hops, loads, 5.0, None)
        got = _select(mod, mean_hops, loads, 5.0, None)
        assert np.array_equal(got, want_out)
        assert np.array_equal(loads, want_loads)

    def test_fractional_loads_fall_back_exactly(self, backend):
        # Non-integer loads disable the table/compiled fast paths; the
        # result must still carry the scalar chain's exact bits.
        mod = _module(backend)
        rng = np.random.default_rng(11)
        mean_hops = rng.uniform(0, 10, size=(80, 16))
        loads = rng.uniform(0.0, 5.0, size=16)
        want_out, want_loads = oracle_select(mean_hops, loads, 5.0, None)
        got_loads = loads.copy()
        got = _select(mod, mean_hops, got_loads, 5.0, None)
        assert np.array_equal(got, want_out)
        assert np.array_equal(got_loads, want_loads)

    def test_exact_ties_pick_first_index(self, backend):
        # Identical rows + identical loads: argmin's first-index rule is
        # the determinism contract every backend must reproduce.
        mod = _module(backend)
        mean_hops = np.zeros((8, 16), dtype=np.float64)
        loads = np.zeros(16, dtype=np.float64)
        want_out, _ = oracle_select(mean_hops, loads, 5.0, None)
        got = _select(mod, mean_hops, loads, 5.0, None)
        assert np.array_equal(got, want_out)

    def test_inf_penalty_never_chosen(self, backend):
        mod = _module(backend)
        rng = np.random.default_rng(5)
        mean_hops = rng.uniform(0, 10, size=(64, 16))
        penalty = np.zeros(16)
        penalty[[1, 7, 9]] = np.inf
        loads = np.zeros(16, dtype=np.float64)
        want_out, _ = oracle_select(mean_hops, loads, 5.0, penalty)
        got = _select(mod, 
            mean_hops, np.zeros(16), 5.0, penalty)
        assert np.array_equal(got, want_out)
        assert not np.isin(got, [1, 7, 9]).any()


# ----------------------------------------------------------------------
# Chained groups (refs naming earlier choices)
# ----------------------------------------------------------------------
def _chained_inputs(data, n, nb):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    prev_ids = np.full(n, -1, dtype=np.int64)
    head_banks = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        kind = rng.integers(0, 3)
        if kind == 0 and i > 0:
            prev_ids[i] = rng.integers(0, i)
        elif kind == 1:
            head_banks[i] = rng.integers(0, nb)
    return prev_ids, head_banks


@pytest.mark.parametrize("backend", BACKENDS)
class TestChainedHybridEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(h=H_VALUES, n=st.integers(0, 200), data=st.data())
    def test_matches_oracle(self, backend, h, n, data):
        mod = _module(backend)
        mesh = Mesh(4, 4)
        nb = mesh.num_tiles
        dist_t = mesh.hops_table().T.astype(np.float64)
        prev_ids, head_banks = _chained_inputs(data, n, nb)
        loads = _draw_loads(data, nb)
        penalty = _draw_penalty(data, nb)
        want_out, want_loads = oracle_chained(
            dist_t, prev_ids, head_banks, loads, h, penalty)
        got_loads = loads.copy()
        got = _chain(mod, 
            dist_t, prev_ids, head_banks, got_loads, h, penalty)
        assert np.array_equal(got, want_out)
        assert np.array_equal(got_loads, want_loads)

    def test_chain_follows_previous_choice(self, backend):
        # A pure chain (every node points at its predecessor) on one
        # bank's hop row must match the oracle step for step.
        mod = _module(backend)
        mesh = Mesh(8, 8)
        dist_t = mesh.hops_table().T.astype(np.float64)
        n = 300
        prev_ids = np.arange(-1, n - 1, dtype=np.int64)
        head_banks = np.full(n, -1, dtype=np.int64)
        head_banks[0] = 27
        loads = np.zeros(64, dtype=np.float64)
        want_out, want_loads = oracle_chained(
            dist_t, prev_ids, head_banks, loads, 5.0, None)
        got = _chain(mod, 
            dist_t, prev_ids, head_banks, loads, 5.0, None)
        assert np.array_equal(got, want_out)
        assert np.array_equal(loads, want_loads)


# ----------------------------------------------------------------------
# CSR-grouped affinity banks
# ----------------------------------------------------------------------
def _hop_mesh(data):
    # 15 banks is not a multiple of the C loop's four-column block.
    mesh = Mesh(*data.draw(st.sampled_from([(4, 4), (5, 3), (8, 8)])))
    # A dead link swaps the Manhattan table for the BFS one.
    if data.draw(st.booleans()):
        a, b = data.draw(st.sampled_from(mesh.undirected_interior_links()))
        try:
            mesh.remove_link_between(a, b)
        except TopologyError:
            pass
    return mesh


@pytest.mark.parametrize("backend", BACKENDS)
class TestAffinityHybridEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(h=H_VALUES, n=st.integers(1, 150), data=st.data())
    def test_matches_oracle(self, backend, h, n, data):
        mod = _module(backend)
        mesh = _hop_mesh(data)
        nb = mesh.num_tiles
        dist = mesh.hops_table()
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # Up to 32 affinity addresses per allocation on average; ids are
        # drawn unsorted (or sorted, as Linked CSR emits them), and some
        # allocations get no entry at all.
        k = data.draw(st.integers(0, 32 * n))
        alloc_ids = rng.integers(0, n, size=k)
        if data.draw(st.booleans()):
            alloc_ids.sort()
        banks = rng.integers(0, nb, size=k)
        loads = _draw_loads(data, nb, ("zero", "small", "skewed",
                                       "fractional"))
        penalty = _draw_penalty(data, nb)
        # The python backend scores rows in blocks of _BLOCK_CHUNKS *
        # _CHUNK; small blocks make most cases cross block boundaries.
        chunk, block_chunks = data.draw(st.sampled_from(
            [(pybackend._CHUNK, pybackend._BLOCK_CHUNKS), (8, 1), (4, 3)]))
        want_out, want_loads = oracle_affinity(
            dist, alloc_ids, banks, n, loads, h, penalty)
        offsets, grouped = _affinity_groups(alloc_ids, banks, n)
        got_loads = loads.copy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pybackend, "_CHUNK", chunk)
            mp.setattr(pybackend, "_BLOCK_CHUNKS", block_chunks)
            got = _grouped(mod, dist.T.astype(np.float64), offsets,
                                      grouped, got_loads, h, penalty)
        assert np.array_equal(got, want_out)
        assert np.array_equal(got_loads, want_loads)

    def test_no_entries_scores_zero_rows(self, backend):
        mod = _module(backend)
        mesh = Mesh(8, 8)
        empty = np.empty(0, dtype=np.int64)
        offsets, grouped = _affinity_groups(empty, empty, 40)
        loads = np.zeros(64, dtype=np.float64)
        want_out, want_loads = oracle_affinity(
            mesh.hops_table(), empty, empty, 40, loads, 5.0, None)
        got = _grouped(mod, mesh.hops_table().T.astype(np.float64),
                                  offsets, grouped, loads, 5.0, None)
        assert np.array_equal(got, want_out)
        assert np.array_equal(loads, want_loads)


class TestAffinityGroups:
    def test_groups_follow_alloc_ids(self):
        alloc_ids = np.array([2, 0, 2, 1, 0], dtype=np.int64)
        banks = np.array([10, 11, 12, 13, 14], dtype=np.int64)
        offsets, grouped = _affinity_groups(alloc_ids, banks, 4)
        assert offsets.tolist() == [0, 2, 3, 5, 5]
        assert grouped.tolist() == [11, 14, 13, 10, 12]

    @pytest.mark.parametrize("alloc_ids", [[0, 3], [-1, 0]])
    def test_out_of_range_ids_rejected(self, alloc_ids):
        ids = np.array(alloc_ids, dtype=np.int64)
        with pytest.raises(ValueError, match="alloc_ids"):
            _affinity_groups(ids, np.zeros(2, dtype=np.int64), 3)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same size"):
            _affinity_groups(np.zeros(2, dtype=np.int64),
                             np.zeros(3, dtype=np.int64), 3)


# ----------------------------------------------------------------------
# Skew fallback + chunk boundaries (python table path specifics)
# ----------------------------------------------------------------------
class TestDivisionTableInternals:
    def test_band_overflow_falls_back_exactly(self):
        rng = np.random.default_rng(2)
        mean_hops = rng.uniform(0, 10, size=(150, 16))
        loads = np.zeros(16, dtype=np.float64)
        loads[3] = float(pybackend._MAX_BAND * 3)  # band >> _MAX_BAND
        want_out, want_loads = oracle_select(mean_hops, loads, 5.0, None)
        got_loads = loads.copy()
        got = _select(pybackend, mean_hops, got_loads, 5.0, None)
        assert np.array_equal(got, want_out)
        assert np.array_equal(got_loads, want_loads)

    def test_split_batch_carries_the_running_total(self):
        # eq4 continues a CSR batch block by block; with
        # fractional loads the scalar loop's running total drifts from
        # loads.sum(), so the total must be carried, not recomputed.
        rng = np.random.default_rng(0)
        loads = rng.integers(0, 50, size=16) + rng.uniform(0, 1, 16)
        mean_hops = rng.uniform(0, 10, size=(300, 16))
        want_out, want_loads = oracle_select(mean_hops, loads, 5.0, None)
        want_total = float(loads.sum())
        for _ in range(300):
            want_total += 1.0
        got_loads = loads.copy()
        got = np.empty(300, dtype=np.int64)
        total = float(loads.sum())
        for lo, hi in ((0, 128), (128, 300)):
            total = pybackend._select_rows(mean_hops[lo:hi], got_loads,
                                           total, 5.0, None, got[lo:hi])
        assert total == want_total != float(got_loads.sum())
        assert np.array_equal(got, want_out)
        assert np.array_equal(got_loads, want_loads)

    def test_batch_spanning_many_chunks(self):
        n = pybackend._CHUNK * 3 + 17
        rng = np.random.default_rng(9)
        mean_hops = rng.uniform(0, 10, size=(n, 64))
        loads = rng.integers(0, 30, size=64).astype(np.float64)
        want_out, want_loads = oracle_select(mean_hops, loads, 5.0, None)
        got_loads = loads.copy()
        got = _select(pybackend, mean_hops, got_loads, 5.0, None)
        assert np.array_equal(got, want_out)
        assert np.array_equal(got_loads, want_loads)


# ----------------------------------------------------------------------
# Load-band overflow on chained and CSR-grouped batches
# ----------------------------------------------------------------------
def _band_overflow_inputs(kernel, later, near):
    """A 16-bank batch whose hop rows all favour bank ``near``; with a
    small ``h`` (or a penalty row that leaves only bank 0 healthy) Eq. 4
    piles every choice onto bank 0, the already heaviest bank, and the
    integer load band only widens.  ``later`` sizes bank 0's load so
    that the first chunk's band just fits ``_MAX_BAND`` and the second
    one overflows; otherwise the band overflows from the first step."""
    mesh = Mesh(4, 4)
    dist = mesh.hops_table().astype(np.float64)
    n, nb = 2 * pybackend._CHUNK + 44, mesh.num_tiles
    loads = np.zeros(nb, dtype=np.float64)
    loads[0] = float(pybackend._MAX_BAND - pybackend._CHUNK - 1 if later
                     else 3 * pybackend._MAX_BAND)
    loads[5] = 2.0
    if kernel == "chained":
        prev_ids = np.arange(-1, n - 1, dtype=np.int64)
        prev_ids[::7] = -1
        head_banks = np.where(prev_ids < 0, near, -1).astype(np.int64)
        return dist, (dist.T.copy(), prev_ids, head_banks), loads
    alloc_ids = np.repeat(np.arange(n, dtype=np.int64), 2)
    banks = np.full(2 * n, near, dtype=np.int64)
    return dist, (alloc_ids, banks, n), loads


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("later", [False, True], ids=["first", "later"])
@pytest.mark.parametrize("with_penalty", [False, True],
                         ids=["healthy", "penalty"])
@pytest.mark.parametrize("kernel", ["chained", "affinity"])
def test_band_overflow_falls_back_exactly(backend, kernel, with_penalty,
                                          later):
    mod = _module(backend)
    # With a penalty row the hops favour bank 15, so only the penalty
    # keeps the choices on bank 0.
    dist, inputs, loads = _band_overflow_inputs(kernel, later,
                                                15 if with_penalty else 0)
    penalty = None
    if with_penalty:
        penalty = np.full(loads.size, np.inf)
        penalty[0] = 0.0
    h = 0.01
    got_loads = loads.copy()
    if kernel == "chained":
        want_out, want_loads = oracle_chained(*inputs, loads, h, penalty)
        got = _chain(mod, *inputs, got_loads, h, penalty)
    else:
        alloc_ids, banks, n = inputs
        want_out, want_loads = oracle_affinity(dist, alloc_ids, banks, n,
                                               loads, h, penalty)
        offsets, grouped = _affinity_groups(alloc_ids, banks, n)
        got = _grouped(mod, dist.T.copy(), offsets, grouped,
                                  got_loads, h, penalty)
    # Every choice lands on bank 0, so the band widens by a chunk per
    # chunk: with `later` the first chunk fits and the second overflows.
    assert (want_out == 0).all()
    first_band = int(loads.max() - loads.min()) + pybackend._CHUNK + 1
    assert (first_band <= pybackend._MAX_BAND) == later
    assert first_band + pybackend._CHUNK > pybackend._MAX_BAND
    assert np.array_equal(got, want_out)
    assert np.array_equal(got_loads, want_loads)


# ----------------------------------------------------------------------
# Mixed batches against the scalar group oracle
# ----------------------------------------------------------------------
def _mixed_batch(data, rows_kind):
    """A batch mixing every group shape: empty groups, one-ref and
    many-ref groups, and refs naming earlier choices (alone or among
    plain refs).  ``rows_kind`` "hops" gives a (possibly degraded) hop
    table; "fractional" gives bank-indexed rows of arbitrary doubles,
    whose group sums depend on the summation order."""
    if rows_kind == "hops":
        rows = _hop_mesh(data).hops_table().T.astype(np.float64)
    else:
        nb = data.draw(NB_VALUES)
        rows = _draw_mean_hops(data, nb, nb)
    nb = rows.shape[0]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(0, 120))
    sizes = rng.choice([0, 1, 1, 2, 5, 14], size=n).astype(np.int64)
    refs = rng.integers(0, nb, size=int(sizes.sum()))
    owner = np.repeat(np.arange(n), sizes)
    earlier = (owner > 0) & (rng.random(refs.size)
                             < data.draw(st.sampled_from([0.0, 0.3, 0.9])))
    refs[earlier] = -(rng.integers(0, np.maximum(owner[earlier], 1)) + 1)
    return sizes, refs, rows


@pytest.mark.parametrize("backend", BACKENDS)
class TestMixedGroupsEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(h=st.sampled_from([0.0, 0.5, 5.0, 17.0]),
           rows_kind=st.sampled_from(["hops", "fractional"]),
           data=st.data())
    def test_matches_scalar_oracle(self, backend, h, rows_kind, data):
        mod = _module(backend)
        sizes, refs, rows = _mixed_batch(data, rows_kind)
        nb = rows.shape[1]
        loads = _draw_loads(data, nb, ("zero", "small", "skewed",
                                       "fractional"))
        penalty = _draw_penalty(data, nb)
        chunk, block_chunks = data.draw(st.sampled_from(
            [(pybackend._CHUNK, pybackend._BLOCK_CHUNKS), (8, 1)]))
        want_out, want_loads = eq4_reference(sizes, refs, rows, loads, h,
                                             penalty)
        got_loads = loads.copy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pybackend, "_CHUNK", chunk)
            mp.setattr(pybackend, "_BLOCK_CHUNKS", block_chunks)
            got = mod.eq4(sizes, refs, rows, got_loads, h, penalty)
        assert np.array_equal(got, want_out)
        assert np.array_equal(got_loads, want_loads)

    @pytest.mark.parametrize("sizes,refs,want", [
        ([3], [0, 1, 2], [1]),
        ([1, 3], [3, -1, 1, 2], [0, 1]),  # -1 resolves to row 0
    ])
    def test_group_sums_follow_group_order(self, backend, sizes, refs,
                                           want):
        # 2**53 + 1 rounds back to 2**53, so column 1 sums to 2**53 in
        # group order but to 2**53 + 2, tying column 0, in any order
        # that adds the ones first.
        big = 2.0 ** 53
        rows = np.array([[big + 2, big, 2 * big, 2 * big],
                         [0.0, 1.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0, 0.0],
                         [0.0, 5.0, 5.0, 5.0]])
        sizes, refs = np.array(sizes), np.array(refs)
        want_out, _ = eq4_reference(sizes, refs, rows, np.zeros(4), 0.0,
                                    None)
        assert want_out.tolist() == want
        got = _module(backend).eq4(sizes, refs, rows, np.zeros(4), 0.0,
                                   None)
        assert got.tolist() == want

    def test_one_ref_group_reads_its_row(self, backend):
        # The mean of one row is the row itself, bit for bit, however
        # the row's doubles round.
        mod = _module(backend)
        rows = np.random.default_rng(4).uniform(0.0, 14.0, (7, 16)) / 3.0
        refs = np.array([6, 0, 3, 3], dtype=np.int64)
        loads = np.zeros(16)
        want_out, _ = oracle_select(rows[refs], loads, 5.0, None)
        got = mod.eq4(np.ones(4, dtype=np.int64), refs, rows, loads, 5.0,
                      None)
        assert np.array_equal(got, want_out)


# ----------------------------------------------------------------------
# Malformed inputs: a ValueError before the loop, loads untouched
# ----------------------------------------------------------------------
_DIST_T = Mesh(2, 2).hops_table().T.astype(np.float64)
_I = np.array

#: eq4(sizes, refs, rows, loads, h, penalty) argument tuples.
MALFORMED = {
    "loads-short": (_I([1, 1, 1]), _I([0, 1, 2]), np.zeros((3, 64)),
                    np.arange(4.0), 5.0, None),
    "loads-2d": (_I([1]), _I([0]), np.zeros((3, 4)), np.zeros((1, 4)),
                 5.0, None),
    "penalty-short": (_I([1]), _I([0]), _DIST_T, np.arange(4.0), 5.0,
                      np.zeros(2)),
    "penalty-long": (_I([1, 1]), _I([0, -1]), _DIST_T, np.arange(4.0),
                     5.0, np.zeros(5)),
    "rows-1d": (_I([1]), _I([0]), np.zeros(4), np.arange(4.0), 5.0, None),
    "rows-shape": (_I([1]), _I([2]), np.zeros((5, 5)), np.arange(4.0),
                   5.0, None),
    "sizes-2d": (_I([[1]]), _I([0]), _DIST_T, np.arange(4.0), 5.0, None),
    "refs-2d": (_I([1]), _I([[0]]), _DIST_T, np.arange(4.0), 5.0, None),
    "ref-len-rows": (_I([1, 1]), _I([0, 4]), _DIST_T, np.arange(4.0), 5.0,
                     None),
    "ref-huge": (_I([1, 1]), _I([10**9, 0]), _DIST_T, np.arange(4.0), 5.0,
                 None),
    "ref-own-step": (_I([1, 1]), _I([2, -2]), _DIST_T, np.arange(4.0),
                     5.0, None),
    "ref-first-step": (_I([1]), _I([-1]), _DIST_T, np.arange(4.0), 5.0,
                       None),
    "ref-later-step": (_I([1, 2]), _I([-2, 0, -1]), _DIST_T,
                       np.arange(4.0), 5.0, None),
    "ref-huge-negative": (_I([1, 1]), _I([0, -(2**63)]), _DIST_T,
                          np.arange(4.0), 5.0, None),
    "ref-negative-rows-not-banks": (_I([1, 1]), _I([0, -1]),
                                    np.zeros((3, 4)), np.arange(4.0),
                                    5.0, None),
    "size-negative": (_I([2, -1]), _I([0]), _DIST_T, np.arange(4.0), 5.0,
                      None),
    "sizes-sum-short": (_I([1, 1]), _I([0]), _DIST_T, np.arange(4.0),
                        5.0, None),
    "sizes-sum-long": (_I([1, 0]), _I([0, 1]), _DIST_T, np.arange(4.0),
                       5.0, None),
    "sizes-sum-wraps": (_I([2**62, 2**62, 2**62, 2**62 + 1]), _I([0]),
                        _DIST_T, np.arange(4.0), 5.0, None),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_raises_before_the_loop(backend, case):
    args = tuple(a.copy() if isinstance(a, np.ndarray) else a
                 for a in MALFORMED[case])
    loads = args[3]
    before = loads.copy()
    with pytest.raises(ValueError):
        _module(backend).eq4(*args)
    assert np.array_equal(loads, before)


# ----------------------------------------------------------------------
# Dedup kernels (np.unique semantics, integer-exact)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.usefixtures("active_backend")
class TestDedupEquivalence:
    """The executor's dedup kernels match ``np.unique`` whichever Eq. 4
    backend the registry has active."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), presort=st.booleans())
    def test_first_unique_matches_np_unique(self, backend, data, presort):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(0, 400))
        span = data.draw(st.sampled_from([4, 1 << 10, 1 << 30, 1 << 50]))
        key = rng.integers(-span, span, size=n)
        if presort:
            key.sort()
        want = np.unique(key, return_index=True)[1]
        assert np.array_equal(executor._first_unique(key), want)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_first_unique_counts_matches_np_unique(self, backend, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(0, 400))
        span = data.draw(st.sampled_from([4, 1 << 10, 1 << 50]))
        key = rng.integers(-span, span, size=n)
        _, want_first, want_counts = np.unique(
            key, return_index=True, return_counts=True)
        got_first, got_counts = executor._first_unique_counts(key)
        assert np.array_equal(got_first, want_first)
        assert np.array_equal(got_counts, want_counts)

    def test_sparse_unsorted_fallback_path(self, backend):
        # Wide span + unsorted defeats both the boundary scan and the
        # scatter table, forcing the sparse stable-argsort fallback.
        rng = np.random.default_rng(17)
        key = rng.integers(-(1 << 55), 1 << 55, size=10_000)
        key = np.concatenate([key, key[::3]])  # real duplicates
        want = np.unique(key, return_index=True)[1]
        assert np.array_equal(executor._first_unique(key), want)
        got_first, got_counts = executor._first_unique_counts(key)
        _, wf, wc = np.unique(key, return_index=True, return_counts=True)
        assert np.array_equal(got_first, wf)
        assert np.array_equal(got_counts, wc)


# ----------------------------------------------------------------------
# Address resolver: the compiled loop against the numpy chain
# ----------------------------------------------------------------------
def _draw_resolver_machine(data):
    """A machine in a random address-mapping state: a linear or random
    heap, a partly mapped paged segment, 0-8 IOT entries, migration
    entries and a fault remap, all over the pages actually in use.

    Returns the machine, its heap arrays as (vaddr, size) pairs and the
    paged segment's range, partly mapped."""
    width = data.draw(st.sampled_from([8, 3]), label="mesh width")
    config = dataclasses.replace(
        SystemConfig(), noc=dataclasses.replace(NocConfig(), width=width))
    m = Machine(config, heap_mode=data.draw(
        st.sampled_from(["linear", "random"])), seed=data.draw(
            st.integers(0, 3)))
    page = m.config.page_size
    heap = [(m.malloc(size), size) for size in data.draw(
        st.lists(st.integers(1, 6 * page), min_size=1, max_size=3))]
    npages = data.draw(st.integers(1, 6))
    pbase = m.paged_reserve(npages * page)
    mapped = data.draw(st.lists(st.integers(0, npages - 1), unique=True,
                                max_size=npages))
    for k in mapped:
        m.paged_map(pbase + k * page, VirtualLayout.PAGED_PBASE
                    + data.draw(st.integers(0, 64)) * page)
    vaddrs = [v + off for v, size in heap
              for off in range(0, size, max(1, size // 8))]
    vaddrs += [pbase + k * page + off for k in mapped
               for off in (0, page // 2, page - 1)]
    points = sorted(set(m.translate(np.asarray(vaddrs)).tolist()))
    points += [p + 1 for p in points]
    cuts = sorted(set(data.draw(st.lists(st.sampled_from(points),
                                         max_size=16), label="iot cuts")))
    for start, end in list(zip(cuts[::2], cuts[1::2]))[:8]:
        m.iot.install(IotEntry(start, end, 1 << data.draw(
            st.integers(0, 16))))
    mig_cuts = sorted(set(data.draw(st.lists(
        st.sampled_from(points), max_size=6), label="migration cuts")))
    for start, end in zip(mig_cuts[::2], mig_cuts[1::2]):
        m.iot.install_migration(MigrationEntry(
            start, end, data.draw(st.integers(0, 70)),
            data.draw(st.integers(0, 200))))
    for _ in range(data.draw(st.integers(0, 2), label="remaps")):
        a, b = data.draw(st.lists(st.integers(0, m.num_banks - 1),
                                  min_size=2, max_size=2, unique=True))
        if data.draw(st.booleans()):
            m.iot.retire_bank(a, b)
        else:
            m.iot.swap_banks(a, b)
    return m, heap, (pbase, npages * page)


def _runs(data, rng, lo, hi, step=1):
    """1-3 runs of values in [lo, hi): ascending by ``step`` (wrapping
    at ``hi``; long enough to fill the compiled loop's blocks) or
    random."""
    out = []
    for _ in range(data.draw(st.integers(1, 3), label="runs")):
        size = data.draw(st.sampled_from([1, 30, 700, 1500]))
        if data.draw(st.booleans(), label="ascending"):
            start = int(rng.integers(0, hi - lo))
            out.append(lo + (start + step * np.arange(size)) % (hi - lo))
        else:
            out.append(rng.integers(lo, hi, size))
    return np.concatenate(out).astype(np.int64)


def _draw_request(data, m, heap, paged):
    """(where, idx) for one of the three input kinds, now and then with
    an element the chain rejects: an index out of range, an address in
    no region or on an unmapped page."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["handle", "view", "addrs"]))
    if kind == "handle":
        v, size = data.draw(st.sampled_from(heap))
        stride = data.draw(st.sampled_from([1, 8, 24]))
        n = max(1, size // stride)
        where, idx = ArrayHandle(m, v, 1, n, stride), _runs(data, rng, 0, n)
        below, above = -1, n
    else:
        spans = heap + ([paged] if data.draw(st.booleans(),
                                              label="paged") else [])
        v, size = data.draw(st.sampled_from(spans))
        addrs = v + _runs(data, rng, 0, size, data.draw(
            st.sampled_from([1, 8, 64])))
        if kind == "addrs":
            where, idx, below, above = addrs, None, None, None
        else:
            n = addrs.size
            where = AddressView(m, addrs, 8)
            idx, below, above = _runs(data, rng, 0, n), -1, n
    if data.draw(st.integers(0, 4), label="bad") == 0:
        pos = int(rng.integers(0, (where if idx is None else idx).size + 1))
        if idx is None:
            bad = data.draw(st.sampled_from([0x10, paged[0] + paged[1],
                                             VirtualLayout.HEAP_VBASE - 1]))
            where = np.insert(where, pos, bad)
        else:
            idx = np.insert(idx, pos,
                            data.draw(st.sampled_from([below, above])))
    return where, idx


@pytest.mark.skipif(not cbackend.AVAILABLE,
                    reason="no working system C compiler")
class TestResolverEquivalence:
    """``Machine.resolve`` through the C loop gives the numpy chain's
    banks, lines and raw banks bit for bit, and rejects exactly the
    elements the chain raises on, with the chain's exception."""

    @pytest.fixture(autouse=True)
    def _c_backend(self):
        before = kernels.get_backend().NAME
        kernels.set_backend("c")
        yield
        kernels.set_backend(before)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_the_numpy_chain(self, data):
        m, heap, paged = _draw_resolver_machine(data)
        for _ in range(3):
            where, idx = _draw_request(data, m, heap, paged)
            lines, raw = data.draw(st.booleans()), data.draw(st.booleans())
            got = m._resolve_compiled(cbackend.resolve, where, idx, lines,
                                      raw)
            try:
                want = m._resolve_chain(where, idx, lines=lines, raw=raw)
            except (IndexError, RuntimeError) as exc:
                assert got is None
                with pytest.raises(type(exc)) as info:
                    m.resolve(where, idx, lines=lines, raw=raw)
                assert str(info.value) == str(exc)
                continue
            assert got is not None
            for g, w in zip(got, want):
                assert (g is None) == (w is None)
                if w is not None:
                    assert g.dtype == w.dtype and g.shape == w.shape
                    assert np.array_equal(g, w)

    @pytest.mark.parametrize("case", ["index", "negative index",
                                      "view index", "negative view index",
                                      "no region", "unmapped page",
                                      "beyond the frames"])
    @pytest.mark.parametrize("heap_mode", ["linear", "random"])
    @pytest.mark.parametrize("pos", [0, 700, 1999])
    def test_rejects_what_the_chain_rejects(self, case, heap_mode, pos):
        # One bad element in a long run: in the first block, in a later
        # one (once the region and span are cached) and last.
        m = Machine(heap_mode=heap_mode)
        page = m.config.page_size
        v = m.malloc(4096 * 8)
        pbase = m.paged_reserve(4 * page)
        for k in (0, 1, 3):
            m.paged_map(pbase + k * page, VirtualLayout.PAGED_PBASE + k * page)
        h = ArrayHandle(m, v, 8, 4096, 8)
        idx = np.arange(2000, dtype=np.int64)
        if case in ("index", "negative index"):
            where = h
            idx[pos] = 4096 if case == "index" else -1
        elif case in ("view index", "negative view index"):
            where = AddressView(m, v + 8 * np.arange(3000), 8)
            idx[pos] = 3000 if case == "view index" else -1
        else:
            where = (pbase + 2 * np.arange(2000) if case != "no region"
                     else v + 8 * idx)
            where[pos] = {"no region": 0x10,
                          "unmapped page": pbase + 2 * page + 5,
                          "beyond the frames": pbase + 4 * page}[case]
            idx = None
        assert m._resolve_compiled(cbackend.resolve, where, idx, True,
                                   True) is None
        with pytest.raises((IndexError, RuntimeError)) as want:
            m._resolve_chain(where, idx, lines=True, raw=True)
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            m.resolve(where, idx, lines=True, raw=True)

    def test_shapes_follow_the_chain(self):
        m = Machine()
        v = m.malloc(4096)
        h = ArrayHandle(m, v, 8, 512, 8)
        for where, idx in ((v + 64, None), (np.full((3, 4), v), None),
                           (h, 5), (h, np.arange(12).reshape(3, 4)),
                           (h, np.arange(0)), (np.arange(0), None)):
            got = m._resolve_compiled(cbackend.resolve, where, idx, True,
                                      True)
            want = m._resolve_chain(where, idx, lines=True, raw=True)
            for g, w in zip(got, want):
                assert g.shape == w.shape and np.array_equal(g, w)

    def test_stale_tables_are_rebuilt(self):
        # Growing the paged segment's page table reallocates it, and a
        # migration or a retired bank changes the IOT table.
        m = Machine()
        page = m.config.page_size
        base = m.paged_reserve(200 * page)
        m.paged_map(base, VirtualLayout.PAGED_PBASE)
        addrs = base + np.arange(0, 200 * page, page // 2)
        with pytest.raises(RuntimeError):
            m.resolve(addrs)
        for k in range(1, 200):
            m.paged_map(base + k * page, VirtualLayout.PAGED_PBASE + k * page)
        steps = [lambda: None,
                 lambda: m.iot.install(IotEntry(
                     VirtualLayout.PAGED_PBASE,
                     VirtualLayout.PAGED_PBASE + 100 * page, 256)),
                 lambda: m.iot.install_migration(MigrationEntry(
                     VirtualLayout.PAGED_PBASE + 50 * page,
                     VirtualLayout.PAGED_PBASE + 150 * page, 9, 5)),
                 lambda: m.iot.retire_bank(3, 4),
                 lambda: m.iot.swap_banks(4, 9),
                 lambda: (m.iot._mig.clear(), m.iot._changed())]
        for step in steps:
            step()
            got = m.resolve(addrs, lines=True, raw=True)
            want = m._resolve_chain(addrs, lines=True, raw=True)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)


# ----------------------------------------------------------------------
# Registry behaviour
# ----------------------------------------------------------------------
class TestBackendRegistry:
    def test_python_always_available(self):
        assert "python" in kernels.available_backends()

    def test_set_backend_roundtrip(self):
        before = kernels.get_backend().NAME
        try:
            assert kernels.set_backend("python") == "python"
            assert kernels.get_backend() is pybackend
        finally:
            kernels.set_backend(before)

    def test_unknown_backend_rejected(self):
        # numba and auto were backend names once; now only python and c.
        for name in ("fortran", "numba", "auto"):
            with pytest.raises(ValueError, match="not available"):
                kernels.set_backend(name)

    def test_unavailable_c_rejected(self, monkeypatch):
        before = kernels.get_backend()
        monkeypatch.setattr(cbackend, "AVAILABLE", False)
        with pytest.raises(ValueError, match="not available"):
            kernels.set_backend("c")
        assert kernels.available_backends() == ("python",)
        assert kernels.get_backend() is before  # a failed switch is a no-op

    @pytest.mark.parametrize("c_built", [True, False])
    def test_resolves_to_c_exactly_when_it_built(self, monkeypatch, c_built):
        monkeypatch.setattr(cbackend, "AVAILABLE", c_built)
        monkeypatch.setattr(kernels, "_active", None)
        want = cbackend if c_built else pybackend
        assert kernels.get_backend() is want

    def test_no_environment_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "python")
        monkeypatch.setattr(kernels, "_active", None)
        want = cbackend if cbackend.AVAILABLE else pybackend
        assert kernels.get_backend() is want

    def test_backend_info_shape(self):
        info = kernels.backend_info()
        assert set(info) == {"kernels", "cc"}
        assert info["kernels"] == kernels.get_backend().NAME
        assert info["kernels"] in ("python", "c")
        assert (info["cc"] is not None) == (info["kernels"] == "c")

    def test_registry_surface(self):
        # The dedup/accounting kernels have one implementation; the
        # sequential Eq. 4 loop varies by backend, and the C backend adds
        # the address resolver, whose python implementation is the
        # numpy chain in Machine._resolve_chain.
        for name in kernels.available_backends():
            mod = _module(name)
            assert callable(mod.eq4)
            assert not {"hybrid_select_batch", "chained_hybrid",
                        "affinity_hybrid"} & set(vars(mod))
        assert not hasattr(pybackend, "resolve")
        assert not cbackend.AVAILABLE or callable(cbackend.resolve)
        assert not hasattr(cbackend, "first_unique")


# ----------------------------------------------------------------------
# Golden byte-identity across backends (the reason all of the above
# insists on exact bits): the harness run-<hash>.json must not change
# when the compute backend does.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend",
                         [p for p in BACKENDS if p.id != "python"])
def test_run_json_byte_identical_across_backends(backend, tmp_path):
    from repro.harness import runner

    before = kernels.get_backend().NAME
    payloads = {}
    try:
        for name in ("python", backend):
            kernels.set_backend(name)
            out = tmp_path / name
            runner.run_figures(("fig12",), jobs=1, scale=0.015, seed=0,
                               results_dir=out)
            files = sorted(out.glob("run-*.json"))
            assert len(files) == 1
            payloads[name] = (files[0].name, files[0].read_bytes())
    finally:
        kernels.set_backend(before)
    ref_name, ref_bytes = payloads["python"]
    got_name, got_bytes = payloads[backend]
    assert got_name == ref_name, "run hash moved across backends"
    assert got_bytes == ref_bytes, "run-<hash>.json not byte-identical"
    # Sanity: the payload is real JSON with figure rows in it.
    doc = json.loads(ref_bytes)
    assert doc["figures"]


def _contended_arm(name, seed, faults):
    """One zoo arm as the benchmark's contended arm runs it (chaos
    faults + online re-layout + host traffic), or under re-layout alone,
    which is where migration entries get installed."""
    from contextlib import ExitStack

    from repro.faults import FaultPlan, fault_session
    from repro.faults.log import FaultEventLog
    from repro.interfere.engine import interfere_session
    from repro.interfere.plan import HostTrafficPlan
    from repro.relayout.engine import relayout_session
    from repro.relayout.policy import RelayoutConfig
    from repro.workloads import EngineMode, run_workload

    with ExitStack() as stack:
        if faults:
            stack.enter_context(fault_session(
                FaultPlan.generate(seed, 0.05), FaultEventLog(), task=name))
        stack.enter_context(relayout_session(RelayoutConfig(seed=seed),
                                             task=name))
        if faults:
            stack.enter_context(interfere_session(
                HostTrafficPlan.generate(seed), task=name))
        r = run_workload(name, EngineMode.AFF_ALLOC, scale=0.25, seed=seed)
    return json.dumps({"cycles": r.cycles, "phase_cycles": r.phase_cycles,
                       "flit_hops_by_class": r.flit_hops_by_class,
                       "counters": r.counters,
                       "value": np.asarray(r.value).tolist()},
                      sort_keys=True)


@pytest.mark.parametrize("backend",
                         [p for p in BACKENDS if p.id != "python"])
@pytest.mark.parametrize("name,faults", [("stream_flip", True),
                                         ("spmv_gather", True),
                                         ("stream_flip", False)],
                         ids=["stream_flip-contended", "spmv_gather-contended",
                              "stream_flip-relayout"])
def test_contended_arm_identical_across_backends(backend, name, faults):
    # The fig12 check above never runs a fault remap, a raw-bank check
    # or a migration entry; these arms run all three.
    before = kernels.get_backend().NAME
    try:
        runs = {}
        for b in ("python", backend):
            kernels.set_backend(b)
            runs[b] = _contended_arm(name, 1, faults)
    finally:
        kernels.set_backend(before)
    assert runs[backend] == runs["python"]
