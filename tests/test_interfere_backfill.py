"""Backfill edge-case tests surfaced by the interference work.

Two subsystems the new engine leans on had untested corners:

* :class:`~repro.arch.noc.TrafficAccountant`'s epoch cache — a warm
  cache must never serve stale channel loads after (a) new traffic is
  recorded (the host injects *between* metric queries), (b) the mesh
  topology changes, or (c) a chaos re-home redirects host traffic to a
  different bank mid-run;
* the IOT's vectorized range table past its small-table comfort zone —
  more entries than the 8-entry migration table (the searchsorted
  lookup path), ``update_end`` growth, and the PR-8 Eq. 4 kernel's
  scalar fallback when the integer load band exceeds ``_MAX_BAND``.
"""

import numpy as np
import pytest

from repro.arch.iot import IotEntry
from repro.arch.mesh import Mesh
from repro.arch.noc import MessageClass, TrafficAccountant
from repro.config import DEFAULT_CONFIG
from repro.interfere.engine import InterferenceState
from repro.interfere.plan import HostStream, HostStreamKind, HostTrafficPlan
from repro.machine import Machine
from repro.perf.stats import RunRecorder
from repro.perf.kernels import pybackend
from tests.test_kernels_equivalence import _select, oracle_select


# ----------------------------------------------------------------------
# TrafficAccountant epoch-cache freshness
# ----------------------------------------------------------------------
class TestAccountantCacheFreshness:
    def _accountant(self):
        mesh = Mesh(8, 8)
        return mesh, TrafficAccountant(mesh, DEFAULT_CONFIG.noc)

    def test_record_after_warm_query_invalidates_cache(self):
        _, acc = self._accountant()
        acc.record(0, 63, 64, MessageClass.DATA)
        warm = acc.max_link_load()
        assert warm > 0
        acc.record(0, 63, 64, MessageClass.DATA)  # same route, doubled
        assert acc.max_link_load() == pytest.approx(2 * warm)

    def test_topology_change_invalidates_warm_cache_without_record(self):
        mesh, acc = self._accountant()
        acc.record(0, 1, 64, MessageClass.DATA)
        before = acc.link_loads().copy()
        assert before.sum() > 0
        # Kill the 0-1 link; the cached loads were computed for the old
        # topology and must be rebuilt on the next query even though no
        # new traffic was recorded.
        mesh.remove_link_between(0, 1)
        after = acc.link_loads()
        assert after.shape == before.shape
        assert not np.array_equal(after, before)
        assert acc.flit_hops() > 0  # the detour is longer, never dropped

    def test_host_epoch_on_rehomed_bank_is_charged_fresh(self):
        """Chaos re-homes a bank, then the host injects onto it: the
        traffic must land at the *new* home and show up in loads queried
        right after — a warm pre-rehome cache must not linger."""
        machine = Machine()
        recorder = RunRecorder(machine)
        plan = HostTrafficPlan(streams=(
            HostStream(kind=HostStreamKind.READ, tile=0, targets=(20,),
                       intensity=8.0),), seed=0)
        state = InterferenceState(plan, machine, task="backfill")

        state.on_epoch(recorder, "pre")
        pre = recorder.traffic.link_loads().copy()
        assert state.injected_bank_accesses[20] == pytest.approx(8.0)

        machine.iot.retire_bank(20, 12)
        state.on_epoch(recorder, "post")
        post = recorder.traffic.link_loads()

        # plan space still says bank 20; physical charge moved to 12
        assert state.injected_raw_accesses[20] == pytest.approx(16.0)
        assert state.injected_bank_accesses[20] == pytest.approx(8.0)
        assert state.injected_bank_accesses[12] == pytest.approx(8.0)
        # and the queried loads are fresh, not the pre-rehome snapshot
        assert not np.array_equal(post, pre)
        assert recorder.bank_line_accesses[12] == pytest.approx(8.0)


# ----------------------------------------------------------------------
# IOT range-table growth
# ----------------------------------------------------------------------
class TestIotRangeTableGrowth:
    def _iot(self, entries):
        from repro.arch.iot import InterleaveOverrideTable
        iot = InterleaveOverrideTable(num_banks=64, capacity=16)
        for e in entries:
            iot.install(e)
        return iot

    def test_lookup_correct_past_migration_table_size(self):
        # 12 disjoint regions: more than the 8-entry migration table,
        # within the 16-entry IOT — exercises the searchsorted path over
        # a table larger than any earlier test built.
        base = 1 << 20
        span = 1 << 16
        entries = [IotEntry(base + i * 2 * span, base + i * 2 * span + span,
                            64 << (i % 4)) for i in range(12)]
        iot = self._iot(entries)
        assert len(iot) == 12
        for i, e in enumerate(entries):
            mid = e.start + span // 2
            assert iot.lookup(mid) == e
            # gap between regions resolves to no entry
            assert iot.lookup(e.end + span // 2) is None
        # batch lookup agrees with scalar lookup at every boundary
        addrs = np.array([e.start for e in entries]
                         + [e.end - 1 for e in entries], dtype=np.int64)
        shift = 6
        banks = iot.banks(addrs, shift)
        assert banks.shape == addrs.shape
        assert np.all((0 <= banks) & (banks < 64))

    def test_update_end_growth_extends_coverage(self):
        e = IotEntry(1 << 20, (1 << 20) + (1 << 16), 256)
        iot = self._iot([e])
        grown_addr = (1 << 20) + (1 << 17)
        assert iot.lookup(grown_addr) is None
        iot.update_end(1 << 20, (1 << 20) + (1 << 18))
        hit = iot.lookup(grown_addr)
        assert hit is not None and hit.intrlv == 256
        with pytest.raises(ValueError):
            iot.update_end(1 << 20, (1 << 20) + 1)  # regions only grow
        with pytest.raises(KeyError):
            iot.update_end(12345, 1 << 30)

    def test_update_end_keeps_vectorized_table_in_sync(self):
        base = 1 << 20
        entries = [IotEntry(base, base + (1 << 16), 256),
                   IotEntry(base + (1 << 18), base + (1 << 18) + (1 << 16),
                            512)]
        iot = self._iot(entries)
        iot.update_end(base, base + (1 << 17))
        addrs = np.array([base + (1 << 16) + 8], dtype=np.int64)
        # the grown region now covers this address: its 256B interleave
        # (shift 8) must be used, not the default hash
        shift_default = 6
        bank_grown = int(iot.banks(addrs, shift_default)[0])
        expected = (int(addrs[0]) >> 8) % 64
        assert bank_grown == expected


# ----------------------------------------------------------------------
# Eq. 4 kernel: wide-band fallback equivalence
# ----------------------------------------------------------------------
class TestHybridSelectWideBandFallback:
    def test_band_overflow_falls_back_bit_identically(self):
        from repro.perf.kernels.pybackend import _MAX_BAND
        rng = np.random.default_rng(0)
        nb = 16
        n = 64
        mean_hops = rng.random((n, nb))
        # Pathological skew: one bank's load is > _MAX_BAND above the
        # rest, so the first chunk's integer band overflows the table
        # and the kernel must take the sequential fallback.
        loads = np.zeros(nb, dtype=np.float64)
        loads[3] = float(_MAX_BAND + 100)
        assert loads.max() - loads.min() > _MAX_BAND

        got_loads = loads.copy()
        got = _select(pybackend, mean_hops, got_loads, 5.0, None)
        want, want_loads = oracle_select(mean_hops, loads, 5.0, None)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_loads, want_loads)

    def test_wide_band_with_penalty_matches_oracle(self):
        from repro.perf.kernels.pybackend import _MAX_BAND
        rng = np.random.default_rng(1)
        nb = 8
        n = 32
        mean_hops = rng.random((n, nb))
        loads = np.zeros(nb, dtype=np.float64)
        loads[0] = float(2 * _MAX_BAND)
        penalty = np.zeros(nb)
        penalty[5] = np.inf  # a failed bank rides along

        got_loads = loads.copy()
        got = _select(pybackend, mean_hops, got_loads, 3.0, penalty)
        want, want_loads = oracle_select(mean_hops, loads, 3.0, penalty)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_loads, want_loads)
        assert not np.any(got == 5)  # never picks the failed bank
