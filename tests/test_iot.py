"""Interleave Override Table (paper Table 1 / Eq. 1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.iot import InterleaveOverrideTable, IotEntry, MigrationEntry


class TestIotEntry:
    def test_valid(self):
        e = IotEntry(0x1000, 0x2000, 64)
        assert e.covers(0x1000)
        assert e.covers(0x1fff)
        assert not e.covers(0x2000)

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            IotEntry(0x2000, 0x1000, 64)

    def test_rejects_48bit_overflow(self):
        with pytest.raises(ValueError):
            IotEntry(0, 1 << 49, 64)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            IotEntry(0, 0x1000, 96)

    def test_rejects_oversized_interleave(self):
        with pytest.raises(ValueError):
            IotEntry(0, 0x100000, 1 << 17)


class TestTable:
    def test_eq1_mapping(self):
        """bank(a) = floor((a - start) / intrlv) mod num_banks."""
        iot = InterleaveOverrideTable(num_banks=64)
        iot.install(IotEntry(0x10000, 0x110000, 128))
        addrs = 0x10000 + np.arange(0, 0x100000, 128)
        banks = iot.banks(addrs, default_shift=10)
        expected = (np.arange(addrs.size)) % 64
        assert (banks == expected).all()

    def test_default_hash_outside_regions(self):
        iot = InterleaveOverrideTable(num_banks=64)
        addrs = np.arange(0, 64 * 1024, 1024)
        banks = iot.banks(addrs, default_shift=10)
        assert (banks == np.arange(64)).all()

    def test_mixed_lookup(self):
        iot = InterleaveOverrideTable(num_banks=4)
        iot.install(IotEntry(0x1000, 0x2000, 64))
        inside = iot.banks(np.array([0x1000 + 64]), default_shift=10)
        outside = iot.banks(np.array([0x5000]), default_shift=10)
        assert inside[0] == 1
        assert outside[0] == (0x5000 >> 10) % 4

    def test_overlap_rejected(self):
        iot = InterleaveOverrideTable(num_banks=64)
        iot.install(IotEntry(0x1000, 0x3000, 64))
        with pytest.raises(ValueError):
            iot.install(IotEntry(0x2000, 0x4000, 128))

    def test_capacity_enforced(self):
        iot = InterleaveOverrideTable(num_banks=64, capacity=2)
        iot.install(IotEntry(0x1000, 0x2000, 64))
        iot.install(IotEntry(0x3000, 0x4000, 64))
        with pytest.raises(RuntimeError):
            iot.install(IotEntry(0x5000, 0x6000, 64))

    def test_update_end_grows(self):
        iot = InterleaveOverrideTable(num_banks=64)
        iot.install(IotEntry(0x1000, 0x2000, 64))
        iot.update_end(0x1000, 0x8000)
        assert iot.lookup(0x7fff) is not None

    def test_update_end_cannot_shrink(self):
        iot = InterleaveOverrideTable(num_banks=64)
        iot.install(IotEntry(0x1000, 0x2000, 64))
        with pytest.raises(ValueError):
            iot.update_end(0x1000, 0x1800)

    def test_update_end_unknown_start(self):
        iot = InterleaveOverrideTable(num_banks=64)
        with pytest.raises(KeyError):
            iot.update_end(0x9000, 0xa000)

    def test_lookup_miss(self):
        iot = InterleaveOverrideTable(num_banks=64)
        assert iot.lookup(0x1234) is None

    @given(st.integers(0, 6), st.integers(0, 1 << 20))
    def test_eq1_property(self, pool_idx, offset):
        """Any in-region address maps per Eq. 1 for any pool interleave."""
        intrlv = 64 << pool_idx
        start = 1 << 30
        iot = InterleaveOverrideTable(num_banks=64)
        iot.install(IotEntry(start, start + (1 << 24), intrlv))
        addr = start + (offset % (1 << 24))
        bank = int(iot.banks(np.array([addr]), default_shift=10)[0])
        assert bank == ((addr - start) // intrlv) % 64


class TestGranuleShift:
    """``granule_shift()``: every aligned block of that size maps to one
    bank, and the cached value follows every table mutation."""

    BASE = 1 << 30

    def _pool(self, base_shift=6, intrlv=64):
        iot = InterleaveOverrideTable(num_banks=64, base_shift=base_shift)
        iot.install(IotEntry(self.BASE, self.BASE + (1 << 20), intrlv))
        return iot

    def test_base_shift_caps_an_empty_table(self):
        assert InterleaveOverrideTable(64, base_shift=6).granule_shift() == 6

    def test_entry_interleave_and_alignment(self):
        iot = InterleaveOverrideTable(64, base_shift=12)
        iot.install(IotEntry(0x1000, 0x3000, 256))
        assert iot.granule_shift() == 8
        iot.install(IotEntry(0x3400, 0x4000, 1024))  # start aligned to 2**10
        assert iot.granule_shift() == 8

    def test_misaligned_migration_start(self):
        iot = self._pool()
        assert iot.granule_shift() == 6
        iot.install_migration(MigrationEntry(
            start=self.BASE + 0x104, end=self.BASE + 0x2000, shift=6, offset=3))
        assert iot.granule_shift() == 2

    def test_migration_shift_below_line(self):
        iot = self._pool()
        iot.install_migration(MigrationEntry(
            start=self.BASE, end=self.BASE + 0x2000, shift=4, offset=3))
        assert iot.granule_shift() == 4

    def test_replaced_migration_recomputes(self):
        iot = self._pool()
        iot.install_migration(MigrationEntry(self.BASE, self.BASE + 0x2000, 3, 1))
        assert iot.granule_shift() == 3
        iot.install_migration(MigrationEntry(self.BASE, self.BASE + 0x2000, 7, 1))
        assert iot.granule_shift() == 6

    def test_update_end_recomputes(self):
        iot = InterleaveOverrideTable(64, base_shift=14)
        iot.install(IotEntry(0x10000, 0x20000, 4096))
        assert iot.granule_shift() == 12
        iot.update_end(0x10000, 0x20200)
        assert iot.granule_shift() == 9

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_granule_blocks_map_to_one_bank(self, data):
        """Random pool entries, migrations and fault remaps: every address
        maps (raw and remapped) like its granule's first byte."""
        iot = InterleaveOverrideTable(num_banks=16, base_shift=6)
        cursor = 0
        for _ in range(data.draw(st.integers(0, 3))):
            start = cursor + data.draw(st.integers(1, 1 << 12))
            end = start + data.draw(st.integers(1, 1 << 14))
            iot.install(IotEntry(start, end, 1 << data.draw(st.integers(0, 9))))
            cursor = end
        for _ in range(data.draw(st.integers(0, 3))):
            start = data.draw(st.integers(0, cursor + 1))
            end = start + data.draw(st.integers(1, 1 << 13))
            entry = MigrationEntry(start, end, data.draw(st.integers(0, 8)),
                                   data.draw(st.integers(0, 15)))
            try:
                iot.install_migration(entry)
            except ValueError:  # overlaps an earlier migration entry
                pass
        if data.draw(st.booleans()):
            iot.retire_bank(data.draw(st.integers(1, 15)), 0)
        g = iot.granule_shift()
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        addrs = rng.integers(0, cursor + (1 << 14), size=512)
        heads = addrs & ~np.int64((1 << g) - 1)
        for raw in (False, True):
            got = iot.banks(addrs, default_shift=10, apply_remap=not raw)
            want = iot.banks(heads, default_shift=10, apply_remap=not raw)
            assert np.array_equal(got, want)
