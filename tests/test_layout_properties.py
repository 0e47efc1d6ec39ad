"""Property-based tests for the address/layout invariants that make
cache keys and golden metrics well-defined.

The artifact cache assumes a graph/experiment is a pure function of its
parameters; that holds only because the layers underneath are exact
arithmetic: the IOT's Eq. 1 bank mapping, the VM translate/untranslate
pair, and the Eq. 2/3 affine interleave derivation.  These properties pin
each one across randomized inputs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch.iot import InterleaveOverrideTable, IotEntry
from repro.core.api import AffineArray
from repro.core.runtime import AffinityAllocator
from repro.machine import Machine
from repro.vm.layout import AddressSpace, LinearRegion, PagedRegion

relaxed = settings(max_examples=40, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])

NUM_BANKS = 64


# ----------------------------------------------------------------------
# IOT Eq. 1:  bank(addr) = floor((addr - start) / intrlv) mod num_banks
# ----------------------------------------------------------------------
class TestIotEq1RoundTrip:
    @relaxed
    @given(shift=st.integers(6, 12),           # 64 B .. 4 KiB interleave
           bank=st.integers(0, NUM_BANKS - 1),
           wrap=st.integers(0, 50),
           offset=st.integers(0, (1 << 6) - 1))
    def test_slot_address_round_trips_to_its_bank(self, shift, bank, wrap,
                                                  offset):
        """Composing Eq. 1 forward (slot -> address) and backward
        (address -> bank) is the identity on the bank coordinate."""
        intrlv = 1 << shift
        start = 1 << 40
        iot = InterleaveOverrideTable(NUM_BANKS)
        iot.install(IotEntry(start, start + (1 << 30), intrlv))
        addr = start + (wrap * NUM_BANKS + bank) * intrlv + (offset % intrlv)
        got = iot.banks(np.array([addr]), default_shift=10)
        assert got[0] == bank

    @relaxed
    @given(shift=st.integers(6, 12),
           addrs=st.lists(st.integers(0, (1 << 28) - 1), min_size=1,
                          max_size=64))
    def test_vectorized_matches_scalar_eq1(self, shift, addrs):
        intrlv = 1 << shift
        start = 1 << 41
        iot = InterleaveOverrideTable(NUM_BANKS)
        iot.install(IotEntry(start, start + (1 << 30), intrlv))
        a = start + np.array(addrs, dtype=np.int64)
        got = iot.banks(a, default_shift=10)
        want = ((a - start) // intrlv) % NUM_BANKS
        assert (got == want).all()

    @relaxed
    @given(shift=st.integers(6, 12),
           addr=st.integers(0, (1 << 30) - 1))
    def test_outside_override_uses_default_hash(self, shift, addr):
        start = 1 << 41
        iot = InterleaveOverrideTable(NUM_BANKS)
        iot.install(IotEntry(start, start + (1 << 20), 1 << shift))
        got = iot.banks(np.array([addr]), default_shift=10)
        assert got[0] == (addr >> 10) % NUM_BANKS


# ----------------------------------------------------------------------
# vm.layout: translate has an exact inverse on every mapped address
# ----------------------------------------------------------------------
class TestTranslateInverse:
    @relaxed
    @given(vbase=st.integers(1, 1 << 20).map(lambda k: k << 20),
           pbase=st.integers(1, 1 << 20).map(lambda k: k << 20),
           size=st.integers(1, 1 << 16),
           offsets=st.lists(st.integers(0, (1 << 16) - 1), min_size=1,
                            max_size=32))
    def test_linear_region_inverse(self, vbase, pbase, size, offsets):
        size = max(size, max(offsets) + 1)
        region = LinearRegion("r", vbase, pbase, size)
        v = vbase + np.array(offsets, dtype=np.int64)
        p = region.translate(v)
        # untranslate: subtract the physical base, add the virtual base
        assert (p - pbase + vbase == v).all()

    @relaxed
    @given(pages=st.lists(st.integers(0, 255), min_size=1, max_size=16,
                          unique=True),
           offset=st.integers(0, 4095),
           perm_seed=st.integers(0, 1000))
    def test_paged_region_inverse(self, pages, offset, perm_seed):
        page = 4096
        region = PagedRegion("p", vbase=1 << 30, size=256 * page)
        rng = np.random.default_rng(perm_seed)
        frames = (1 << 35) + rng.permutation(4096)[:len(pages)] * page
        for pi, fr in zip(pages, frames):
            region.map_page(pi, int(fr))
        frame_of = {int(fr): pi for pi, fr in zip(pages, frames)}
        v = (1 << 30) + np.array(pages, dtype=np.int64) * page + offset
        p = region.translate(v)
        # invert through the frame table: page identity and offset survive
        back = np.array([frame_of[int(x) - int(x) % page] for x in p],
                        dtype=np.int64) * page + (1 << 30) + p % page
        assert (back == v).all()

    @relaxed
    @given(n_regions=st.integers(1, 5),
           picks=st.lists(st.tuples(st.integers(0, 4),
                                    st.integers(0, (1 << 12) - 1)),
                          min_size=1, max_size=32))
    def test_address_space_translate_agrees_with_region(self, n_regions,
                                                        picks):
        space = AddressSpace()
        regions = []
        for i in range(n_regions):
            r = LinearRegion(f"r{i}", vbase=(i + 1) << 30,
                             pbase=(i + 100) << 30, size=1 << 12)
            space.add(r)
            regions.append(r)
        v = np.array([((ri % n_regions) + 1 << 30) + off
                      for ri, off in picks], dtype=np.int64)
        p = space.translate(v)
        for (ri, _), vaddr, paddr in zip(picks, v, p):
            region = regions[ri % n_regions]
            assert region.translate(np.array([vaddr]))[0] == paddr

    def test_unmapped_raises_not_garbage(self):
        space = AddressSpace()
        space.add(LinearRegion("r", 1 << 30, 1 << 35, 4096))
        with pytest.raises(RuntimeError):
            space.translate(np.array([(1 << 30) + 4096]))


# ----------------------------------------------------------------------
# Affine Eq. 2/3: derived interleave is stable across equivalent specs
# ----------------------------------------------------------------------
class TestAffineEq23Stability:
    def _alloc_pair(self, elem_b, p, q, nelem=1 << 12):
        m = Machine()
        alloc = AffinityAllocator(m)
        a = alloc.malloc_affine(AffineArray(4, nelem), name="A")
        b = alloc.malloc_affine(
            AffineArray(elem_b, max(nelem * q // max(p, 1), 64), align_to=a,
                        align_p=p, align_q=q), name="B")
        return m, a, b

    @relaxed
    @given(elem_b=st.sampled_from([4, 8, 16]),
           p=st.integers(1, 4), q=st.integers(1, 4),
           k=st.integers(2, 5))
    def test_scaled_ratio_gives_identical_layout(self, elem_b, p, q, k):
        """Eq. 3 depends only on q/p — (k*p, k*q) is the same spec."""
        _, _, b1 = self._alloc_pair(elem_b, p, q)
        _, _, b2 = self._alloc_pair(elem_b, k * p, k * q)
        l1, l2 = b1.layout, b2.layout
        assert (l1.kind, l1.intrlv, l1.start_bank, l1.stride) == \
            (l2.kind, l2.intrlv, l2.start_bank, l2.stride)

    @relaxed
    @given(elem=st.sampled_from([2, 4, 8, 16, 32]),
           n=st.integers(256, 1 << 14))
    def test_eq2_identity_alignment_colocates_every_element(self, elem, n):
        """p=q=1, x=0: B[i] must land on A[i]'s bank for all i (Eq. 2)."""
        m = Machine()
        alloc = AffinityAllocator(m)
        a = alloc.malloc_affine(AffineArray(elem, n), name="A")
        b = alloc.malloc_affine(AffineArray(elem, n, align_to=a), name="B")
        idx = np.arange(n)
        assert (a.banks(idx) == b.banks(idx)).all()

    @relaxed
    @given(x_slots=st.integers(0, 32), n_slots=st.integers(40, 200))
    def test_eq2_offset_shifts_start_bank(self, x_slots, n_slots):
        """B[0] aligned to A[x] starts on A[x]'s bank when x sits on a
        slot boundary."""
        m = Machine()
        alloc = AffinityAllocator(m)
        elems_per_slot = 64 // 4  # elem 4B in the 64B-interleave pool
        n = n_slots * elems_per_slot
        x = x_slots * elems_per_slot
        a = alloc.malloc_affine(AffineArray(4, n), name="A")
        b = alloc.malloc_affine(AffineArray(4, n, align_to=a, align_x=x),
                                name="B")
        assert b.banks(np.array([0]))[0] == a.banks(np.array([x]))[0]

    @relaxed
    @given(q=st.sampled_from([2, 4]), n=st.integers(512, 1 << 13))
    def test_eq3_rational_alignment_tracks_target(self, q, n):
        """B[i] aligns to A[i/q]: every q-th element shares A's bank."""
        m = Machine()
        alloc = AffinityAllocator(m)
        a = alloc.malloc_affine(AffineArray(4, n), name="A")
        b = alloc.malloc_affine(
            AffineArray(4, n * q, align_to=a, align_p=1, align_q=q),
            name="B")
        i = np.arange(0, n * q, q)
        assert (b.banks(i) == a.banks(i // q)).all()
