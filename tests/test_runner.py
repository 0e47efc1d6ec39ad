"""The parallel experiment runner: registry, ordering, progress,
metrics JSON, figure-level caching, and the CLI glue around it."""

import json

import pytest

from repro import cache as cache_mod
from repro.cache import ArtifactCache
from repro.harness import runner


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    c = ArtifactCache(root=tmp_path / "cache", enabled=True)
    monkeypatch.setattr(cache_mod, "_CACHE", c)
    return c


FAST_IDS = ("table1", "table3", "fig17")  # cheap, deterministic
TINY = 0.05


class TestRegistry:
    def test_covers_all_eleven_figures(self):
        assert len(runner.FIGURE_IDS) == 11
        for fid in runner.FIGURE_IDS:
            assert fid in runner.EXPERIMENTS

    def test_covers_ablations_and_tables(self):
        for fid in runner.ABLATION_IDS + runner.TABLE_IDS:
            assert fid in runner.EXPERIMENTS
        assert set(runner.ALL_IDS) == set(runner.FIGURE_IDS) \
            | set(runner.ABLATION_IDS) | set(runner.TABLE_IDS)

    def test_unknown_id_raises(self, fresh_cache):
        with pytest.raises(KeyError):
            runner.run_figures(["fig99"], scale=TINY)


class TestSerialRun:
    def test_order_and_payload(self, fresh_cache):
        report = runner.run_figures(FAST_IDS, jobs=1, scale=TINY)
        assert [f.id for f in report.figures] == list(FAST_IDS)
        for f in report.figures:
            assert f.rows and f.headers and f.title
            assert f.wall_s >= 0
            assert not f.from_cache
        assert "Fig 17" in report.figures[FAST_IDS.index("fig17")].title

    def test_progress_streams_every_figure(self, fresh_cache):
        lines = []
        runner.run_figures(FAST_IDS, jobs=1, scale=TINY,
                           progress=lines.append)
        assert lines[0].startswith("[preflight] afflint")
        fig_lines = lines[1:]
        assert len(fig_lines) == len(FAST_IDS)
        assert fig_lines[0].startswith("[1/3]")
        assert all("in " in ln and ln.rstrip().endswith("s")
                   for ln in fig_lines)

    def test_figure_cache_hit_is_exact(self, fresh_cache):
        cold = runner.run_figures(FAST_IDS, jobs=1, scale=TINY)
        warm = runner.run_figures(FAST_IDS, jobs=1, scale=TINY)
        assert all(f.from_cache for f in warm.figures)
        assert warm.metrics == cold.metrics

    def test_no_cache_bypasses(self, fresh_cache):
        runner.run_figures(("fig17",), jobs=1, scale=TINY)
        again = runner.run_figures(("fig17",), jobs=1, scale=TINY,
                                   use_cache=False)
        assert not again.figures[0].from_cache


class TestMetricsJson:
    def test_excludes_timing_and_cache_provenance(self, fresh_cache):
        report = runner.run_figures(FAST_IDS, jobs=1, scale=TINY)
        blob = report.metrics_json()
        assert "wall" not in blob and "from_cache" not in blob
        parsed = json.loads(blob)
        assert parsed["run"]["scale"] == TINY
        assert set(parsed["figures"]) == set(FAST_IDS)

    def test_results_file_name_is_jobs_independent(self, fresh_cache,
                                                   tmp_path):
        r1 = runner.run_figures(FAST_IDS, jobs=1, scale=TINY,
                                results_dir=tmp_path / "out1")
        r2 = runner.run_figures(FAST_IDS, jobs=2, scale=TINY,
                                results_dir=tmp_path / "out2")
        assert r1.run_hash == r2.run_hash
        assert r1.path.name == r2.path.name == f"run-{r1.run_hash}.json"
        assert r1.path.read_bytes() == r2.path.read_bytes()

    def test_hash_depends_on_configuration(self, fresh_cache, tmp_path):
        a = runner.run_figures(("table1",), scale=TINY)
        b = runner.run_figures(("table1",), scale=TINY * 2)
        c = runner.run_figures(("table1",), scale=TINY, seed=1)
        assert len({a.run_hash, b.run_hash, c.run_hash}) == 3

    def test_rows_are_plain_json_types(self, fresh_cache):
        report = runner.run_figures(("fig17",), jobs=1, scale=TINY)
        for row in report.figures[0].rows:
            for cell in row:
                assert isinstance(cell, (int, float, str, bool))


class TestSummaryTable:
    def test_reports_per_figure_wall_clock(self, fresh_cache):
        report = runner.run_figures(FAST_IDS, jobs=1, scale=TINY)
        table = report.summary_table()
        assert "wall_s" in table and "total" in table
        for fid in FAST_IDS:
            assert fid in table


class TestCliIntegration:
    def test_all_flag_parses(self, fresh_cache, tmp_path, capsys):
        from repro.__main__ import main
        assert main(["fig17", "--scale", "0.05", "--jobs", "1",
                     "--no-cache", "--seed", "0",
                     "--results-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Fig 17" in out and "wall" in out

    def test_multi_experiment_writes_results(self, fresh_cache, tmp_path,
                                             capsys, monkeypatch):
        from repro.__main__ import main
        monkeypatch.chdir(tmp_path)
        assert main(["fig17,table1,table3", "--scale", "0.05",
                     "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "metrics JSON" in out
        written = list((tmp_path / "results").glob("run-*.json"))
        assert len(written) == 1
        parsed = json.loads(written[0].read_text())
        assert set(parsed["figures"]) == {"fig17", "table1", "table3"}
