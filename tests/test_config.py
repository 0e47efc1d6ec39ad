"""Table 2 defaults and config plumbing."""

import dataclasses

import pytest

from repro.config import (DEFAULT_CONFIG, NocConfig, PerfParams, SystemConfig,
                          config_for_mesh)


class TestTable2Defaults:
    def test_mesh_is_8x8(self):
        assert DEFAULT_CONFIG.noc.width == 8
        assert DEFAULT_CONFIG.noc.height == 8
        assert DEFAULT_CONFIG.noc.num_tiles == 64

    def test_one_bank_per_tile(self):
        assert DEFAULT_CONFIG.num_banks == 64
        assert DEFAULT_CONFIG.num_cores == 64

    def test_l3_totals_64mb(self):
        # Table 2: 64 banks x 1 MiB = 64 MiB
        assert DEFAULT_CONFIG.total_l3_bytes == 64 << 20

    def test_static_nuca_interleave_1kb(self):
        assert DEFAULT_CONFIG.cache.default_interleave == 1024

    def test_link_width_32b(self):
        assert DEFAULT_CONFIG.noc.link_bytes_per_cycle == 32

    def test_four_dram_channels(self):
        assert DEFAULT_CONFIG.dram.channels == 4

    def test_iot_16_entries(self):
        assert DEFAULT_CONFIG.cache.iot_entries == 16

    def test_page_size(self):
        assert DEFAULT_CONFIG.page_size == 4096


class TestConfigMechanics:
    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_CONFIG.noc.width = 4  # type: ignore[misc]

    def test_scaled_replaces_subsystem(self):
        cfg = DEFAULT_CONFIG.scaled(noc=NocConfig(width=4, height=4))
        assert cfg.num_banks == 16
        assert DEFAULT_CONFIG.num_banks == 64  # original untouched

    def test_equality_and_hash(self):
        assert SystemConfig() == DEFAULT_CONFIG
        assert hash(SystemConfig()) == hash(DEFAULT_CONFIG)

    def test_custom_cache(self):
        cfg = DEFAULT_CONFIG.scaled(
            cache=dataclasses.replace(DEFAULT_CONFIG.cache,
                                      bank_capacity_bytes=1 << 19))
        assert cfg.total_l3_bytes == 32 << 20

    def test_perf_params_positive(self):
        p = PerfParams()
        assert p.core_ops_per_cycle > 0
        assert p.bank_ops_per_cycle > 0
        assert p.pj_dram_access > p.pj_l3_access > p.pj_per_hop_flit


class TestConfigForMesh:
    def test_8x8_is_the_default_platform(self):
        assert config_for_mesh(8, 8) == DEFAULT_CONFIG

    def test_16x16_scales_banks_and_channels(self):
        cfg = config_for_mesh(16, 16)
        assert cfg.num_banks == 256
        assert cfg.num_cores == 256
        assert cfg.dram.channels == 16
        # Per-tile constants are untouched.
        assert cfg.cache == DEFAULT_CONFIG.cache
        assert cfg.perf == DEFAULT_CONFIG.perf
        assert cfg.noc.link_bytes_per_cycle == \
            DEFAULT_CONFIG.noc.link_bytes_per_cycle

    def test_32x32_scales_banks_and_channels(self):
        cfg = config_for_mesh(32, 32)
        assert cfg.num_banks == 1024
        assert cfg.dram.channels == 64
        assert cfg.total_l3_bytes == 1024 << 20

    def test_channels_floor_and_even(self):
        assert config_for_mesh(2, 2).dram.channels == 2
        for w, hgt in ((4, 4), (8, 4), (10, 10), (16, 16)):
            assert config_for_mesh(w, hgt).dram.channels % 2 == 0

    def test_base_override(self):
        base = DEFAULT_CONFIG.scaled(
            cache=dataclasses.replace(DEFAULT_CONFIG.cache,
                                      bank_capacity_bytes=1 << 19))
        cfg = config_for_mesh(16, 16, base=base)
        assert cfg.cache.bank_capacity_bytes == 1 << 19
        assert cfg.num_banks == 256

    def test_rejects_degenerate_mesh(self):
        with pytest.raises(ValueError):
            config_for_mesh(0, 8)
