"""Harness experiments reproduce the paper's qualitative shapes.

These run at tiny scales — the assertions are on *shape* (ordering,
monotonicity, pathologies), which is what the reproduction claims.
"""

import pytest

from repro.harness import (ascii_table, fig4_vecadd_delta, fig6_chunk_remap,
                           fig12_overall, fig13_policies,
                           fig14_atomic_timeline, fig15_affine_scaling,
                           fig17_bfs_iterations, fig18_push_pull_timeline,
                           fig20_real_world, render)

TINY = 0.04


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return fig4_vecadd_delta(deltas=(0, 16, 32, 48, 64), n=1 << 17)

    def test_aligned_is_best(self, result):
        rows = {r[0]: r for r in result.rows()}
        best = rows["Δ Bank 0"][1]
        assert best == max(r[1] for r in result.rows())
        assert best > 3.0  # paper: 7.2x over In-Core

    def test_ndc_always_beats_in_core(self, result):
        """Paper: 'near-data computing always outperforms the baseline'."""
        for row in result.rows():
            assert row[1] >= 1.0, row

    def test_delta32_is_worst_ndc(self, result):
        rows = {r[0]: r for r in result.rows()}
        assert rows["Δ Bank 32"][1] == min(
            r[1] for r in result.rows() if r[0].startswith("Δ"))

    def test_wraparound_symmetry(self, result):
        rows = {r[0]: r for r in result.rows()}
        assert rows["Δ Bank 64"][1] == pytest.approx(rows["Δ Bank 0"][1],
                                                     rel=0.05)
        assert rows["Δ Bank 16"][1] == pytest.approx(rows["Δ Bank 48"][1],
                                                     rel=0.15)

    def test_random_between_extremes(self, result):
        rows = {r[0]: r for r in result.rows()}
        assert rows["Δ Bank 32"][1] < rows["Random"][1] < rows["Δ Bank 0"][1]

    def test_traffic_tracks_speedup(self, result):
        rows = {r[0]: r for r in result.rows()}
        assert rows["Δ Bank 0"][2] < rows["Δ Bank 32"][2] <= 1.0


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return fig6_chunk_remap(workloads=("pr_push",), scale=0.06)

    def test_finer_chunks_monotone(self, result):
        row = result.rows()[0]
        # columns: wl, Base, 4kB, 1kB, 256B, 64B, Ideal
        speedups = row[1:7]
        assert speedups == sorted(speedups)

    def test_ideal_removes_indirect_traffic(self, result):
        row = result.rows()[0]
        hops_ideal = row[-1]
        hops_base = row[7]
        assert hops_ideal < 0.2 * hops_base


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12_overall(workloads=("vecadd", "pr_push", "link_list"),
                             scale=TINY)

    def test_aff_beats_near_everywhere(self, result):
        for row in result.rows():
            if row[0] == "geomean":
                continue
            assert row[2] > 1.0, row  # speedup Aff vs Near-L3

    def test_aff_cuts_traffic(self, result):
        for row in result.rows():
            if row[0] == "geomean":
                continue
            assert row[6] < row[5], row  # aff traffic < near traffic

    def test_geomean_row(self, result):
        gm = result.rows()[-1]
        assert gm[0] == "geomean"
        assert gm[2] > 1.2


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self):
        return fig13_policies(workloads=("link_list", "bin_tree"),
                              policies=("Rnd", "Lnr", "Min-Hop", "Hybrid-5"),
                              scale=TINY)

    def test_min_hop_pathological_on_bin_tree(self, result):
        """Paper: Min-Hop allocates the entire tree to a single bank."""
        rows = {r[0]: r for r in result.rows()}
        minhop = rows["bin_tree"][3]
        hybrid = rows["bin_tree"][4]
        assert minhop < 0.5     # huge slowdown vs Rnd
        assert hybrid > 1.0

    def test_hybrid_wins_overall(self, result):
        gm = result.rows()[-1]
        assert gm[4] == max(gm[1:])

    def test_oblivious_policies_similar(self, result):
        rows = {r[0]: r for r in result.rows()}
        for wl in ("link_list", "bin_tree"):
            assert rows[wl][2] == pytest.approx(rows[wl][1], rel=0.5)


class TestFig14:
    def test_distribution_rows_well_formed(self):
        res = fig14_atomic_timeline(policies=("Rnd", "Hybrid-5"), scale=TINY)
        for row in res.rows():
            _pol, t, mn, p25, avg, p75, mx = row
            assert 0.0 <= t <= 1.0
            assert mn <= p25 <= avg * 1.5 + 1e-9
            assert p25 <= p75 <= mx

    def test_rnd_has_more_in_flight(self):
        """Rnd streams travel farther, so more are in flight (Fig 14)."""
        res = fig14_atomic_timeline(policies=("Rnd", "Hybrid-5"), scale=0.08)
        def peak(pol):
            return max(r[4] for r in res.rows() if r[0] == pol)
        assert peak("Rnd") > peak("Hybrid-5")


class TestFig15:
    @pytest.fixture(scope="class")
    def result(self):
        # shrink the LLC so the 1x/8x capacity cliff appears at test scale
        import dataclasses
        from repro.config import DEFAULT_CONFIG
        cfg = DEFAULT_CONFIG.scaled(cache=dataclasses.replace(
            DEFAULT_CONFIG.cache, bank_capacity_bytes=16 << 10))
        return fig15_affine_scaling(workloads=("hotspot",),
                                    multipliers=(1, 8), scale=0.05,
                                    config=cfg)

    def test_speedup_shrinks_with_input(self, result):
        rows = [r for r in result.rows() if r[0] == "hotspot"]
        assert rows[1][2] < rows[0][2]

    def test_miss_rate_grows(self, result):
        rows = [r for r in result.rows() if r[0] == "hotspot"]
        assert rows[1][3] > rows[0][3]
        assert rows[1][3] > 50.0  # paper: >75% miss at 8x


class TestFig17:
    def test_shape(self):
        res = fig17_bfs_iterations(scale=0.12)
        rows = res.rows()
        assert len(rows) >= 3
        visited = [r[1] for r in rows]
        assert all(b >= a for a, b in zip(visited, visited[1:]))
        actives = [r[2] for r in rows]
        assert max(actives) > 0.2  # the big middle wave


class TestFig18:
    def test_ndc_prefers_push(self):
        res = fig18_push_pull_timeline(scale=0.06)
        raw = res.raw
        # under Aff-Alloc the switching policy must choose push for most
        # iterations (paper: only one pull iteration)
        r = raw[("Aff-Alloc", "bfs")]
        dirs = r.counters["directions"]
        assert dirs.count("push") >= dirs.count("pull")


class TestFig20:
    def test_hybrid_beats_near_on_power_law(self):
        res = fig20_real_world(workloads=("pr_push",),
                               graphs=("twitch-gamers",), scale=0.02)
        row = res.rows()[0]
        assert row[3] > 1.0        # Hybrid-5 speedup over Near-L3
        assert row[4] < 1.0        # and less traffic


class TestReport:
    def test_ascii_table(self):
        out = ascii_table(["a", "bb"], [[1, 2.5], ["x", 3.0]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "2.500" in out

    def test_render(self):
        res = fig17_bfs_iterations(scale=0.03)
        text = render(res)
        assert text.startswith("== Fig 17")
