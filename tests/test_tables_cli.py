"""Table renderers and the CLI entry point."""

import pytest

from repro.harness.report import render
from repro.harness.tables import (table1_iot_format,
                                  table2_system_parameters, table3_workloads,
                                  table4_real_world_graphs)


class TestTables:
    def test_table1(self):
        t = table1_iot_format()
        out = render(t)
        assert "intrlv" in out and "48" in out and "16" in out

    def test_table2_reflects_config(self):
        t = table2_system_parameters()
        out = render(t)
        assert "8x8 tiles" in out
        assert "64 MiB" in out
        assert "1024B static NUCA" in out
        assert "64B, 128B, 256B, 512B, 1024B, 2048B, 4096B" in out

    def test_table2_custom_config(self):
        from repro.config import DEFAULT_CONFIG, NocConfig
        cfg = DEFAULT_CONFIG.scaled(noc=NocConfig(width=4, height=4))
        out = render(table2_system_parameters(cfg))
        assert "4x4 tiles" in out

    def test_table3_lists_all_workloads(self):
        out = render(table3_workloads())
        for name in ("pathfinder", "sssp", "bin_tree", "hash_join"):
            assert name in out
        assert "Linked CSR" in out and "Ptr-Chasing" in out

    def test_table4_matches_paper(self):
        out = render(table4_real_world_graphs())
        assert "168114" in out and "13595114" in out  # twitch-gamers
        assert "107614" in out and "127" in out       # gplus


class TestCli:
    def test_list(self, capsys):
        from repro.__main__ import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out and "pr_push" in out

    def test_run_workload(self, capsys):
        from repro.__main__ import main
        assert main(["run", "vecadd", "--mode", "In-Core",
                     "--scale", "0.02"]) == 0
        assert "cycles=" in capsys.readouterr().out

    def test_experiment(self, capsys):
        from repro.__main__ import main
        assert main(["fig17", "--scale", "0.05"]) == 0
        assert "Fig 17" in capsys.readouterr().out

    def test_unknown_target(self):
        from repro.__main__ import main
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_run_requires_workload(self):
        from repro.__main__ import main
        with pytest.raises(SystemExit):
            main(["run"])

    def test_run_unknown_workload_is_usage_error(self):
        from repro.__main__ import main
        with pytest.raises(SystemExit) as exc:
            main(["run", "nosuch"])
        assert exc.value.code == 2
