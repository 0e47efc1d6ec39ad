"""Golden-metrics regression suite.

Freezes the headline numbers from EXPERIMENTS.md at bench scale so a
later change to the performance model, the graph generators, or the
allocator cannot silently drift the paper-facing results:

* Fig 12 geomeans (speedup / energy efficiency / traffic cut) at
  scale 0.25 — the repo's equivalent of the paper's 2.26x / 1.76x / 72%.
* Fig 13 bank-select policy ordering at scale 0.06 — Min-Hop collapses
  on pointer structures, every Hybrid weight avoids the collapse.
* Fig 4 delta-sweep shape at scale 0.12 — peak at Δ0, wraparound
  symmetry, NDC never below In-Core.

Golden values live in ``tests/golden/*.json`` next to their tolerances;
regenerate them deliberately (and update the JSON) when a modeling
change is intentional.

Also home to the runner determinism contract: serial == parallel ==
cached-rerun, byte for byte.
"""

import json
import math
import time
from pathlib import Path

import pytest

from repro import cache as cache_mod
from repro.cache import ArtifactCache
from repro.harness import runner

GOLDEN_DIR = Path(__file__).parent / "golden"


def load_golden(name):
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def check(label, actual, spec):
    """Assert ``actual`` is within the golden spec's stated tolerance."""
    want = spec["value"]
    if "rtol" in spec:
        ok = math.isclose(actual, want, rel_tol=spec["rtol"])
        tol = f"rtol={spec['rtol']}"
    else:
        ok = abs(actual - want) <= spec["atol"]
        tol = f"atol={spec['atol']}"
    assert ok, (f"{label} drifted: got {actual!r}, golden {want!r} "
                f"({tol}) — if the change is intentional, update "
                f"tests/golden/*.json")


@pytest.fixture(scope="module")
def private_cache(tmp_path_factory):
    """A dedicated, initially-empty artifact cache for this module.

    The session-wide cache fixture shares graphs across test files; the
    warm-vs-cold timing assertions below need a cache whose cold run is
    genuinely cold.
    """
    saved = cache_mod._CACHE
    cache_mod._CACHE = ArtifactCache(
        root=tmp_path_factory.mktemp("golden-cache"), enabled=True)
    try:
        yield cache_mod._CACHE
    finally:
        cache_mod._CACHE = saved


# ----------------------------------------------------------------------
# Fig 12 — the headline geomeans, plus the warm-cache speedup contract
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig12_runs(private_cache):
    golden = load_golden("fig12")
    t0 = time.perf_counter()
    cold = runner.run_figures(("fig12",), jobs=1,
                              scale=golden["scale"], seed=golden["seed"])
    t_cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = runner.run_figures(("fig12",), jobs=1,
                              scale=golden["scale"], seed=golden["seed"])
    t_warm = time.perf_counter() - t0
    return golden, cold, warm, t_cold, t_warm


def _geomean_row(fig):
    row = fig.rows[-1]
    assert row[0] == "geomean"
    return dict(zip(fig.headers, row))


class TestFig12Golden:
    def test_headline_geomeans(self, fig12_runs):
        golden, cold, _, _, _ = fig12_runs
        gm = _geomean_row(cold.figures[0])
        m = golden["metrics"]
        check("fig12 speedup In-Core", gm["speedup:In-Core"],
              m["speedup_incore_geomean"])
        check("fig12 speedup Aff-Alloc", gm["speedup:Aff-Alloc"],
              m["speedup_aff_geomean"])
        check("fig12 energy-eff In-Core", gm["energy_eff:In-Core"],
              m["energy_eff_incore_geomean"])
        check("fig12 energy-eff Aff-Alloc", gm["energy_eff:Aff-Alloc"],
              m["energy_eff_aff_geomean"])
        check("fig12 traffic Near-L3", gm["traffic:Near-L3"],
              m["traffic_near_vs_incore"])
        check("fig12 traffic Aff-Alloc", gm["traffic:Aff-Alloc"],
              m["traffic_aff_vs_incore"])

    def test_traffic_cut_over_near_l3(self, fig12_runs):
        golden, cold, _, _, _ = fig12_runs
        gm = _geomean_row(cold.figures[0])
        cut = 100.0 * (1.0 - gm["traffic:Aff-Alloc"] / gm["traffic:Near-L3"])
        check("fig12 traffic cut vs Near-L3 (%)", cut,
              golden["metrics"]["traffic_cut_vs_near_pct"])

    def test_aff_alloc_beats_both_baselines(self, fig12_runs):
        _, cold, _, _, _ = fig12_runs
        gm = _geomean_row(cold.figures[0])
        assert gm["speedup:Aff-Alloc"] > 1.0 > gm["speedup:In-Core"]
        assert gm["energy_eff:Aff-Alloc"] > 1.0 > gm["energy_eff:In-Core"]
        assert gm["traffic:Aff-Alloc"] < gm["traffic:Near-L3"] < 1.0

    def test_warm_cache_rerun_at_least_3x_faster(self, fig12_runs):
        _, _, warm, t_cold, t_warm = fig12_runs
        assert warm.figures[0].from_cache
        assert t_cold >= 3.0 * t_warm, \
            f"warm rerun not >=3x faster: cold={t_cold:.2f}s warm={t_warm:.2f}s"

    def test_cached_rerun_metrics_identical(self, fig12_runs):
        _, cold, warm, _, _ = fig12_runs
        assert warm.metrics == cold.metrics
        assert warm.metrics_json() == cold.metrics_json()


# ----------------------------------------------------------------------
# Fig 13 — bank-select policy ordering
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig13_result(private_cache):
    golden = load_golden("fig13")
    res = runner.EXPERIMENTS["fig13"](golden["scale"], golden["seed"])
    return golden, res


class TestFig13Golden:
    def test_policy_geomeans(self, fig13_result):
        golden, res = fig13_result
        gm = dict(zip(res.headers, res.rows()[-1]))
        assert gm["Rnd"] == pytest.approx(1.0)
        for policy in ("Lnr", "Min-Hop", "Hybrid-1", "Hybrid-3",
                       "Hybrid-5", "Hybrid-7"):
            check(f"fig13 geomean {policy}", gm[policy],
                  golden["metrics"][f"geomean_{policy}"])

    def test_minhop_collapses_on_pointer_structures(self, fig13_result):
        golden, res = fig13_result
        rows = {r[0]: dict(zip(res.headers, r)) for r in res.rows()}
        threshold = golden["ordering"]["minhop_collapse_below"]
        check("fig13 Min-Hop on link_list", rows["link_list"]["Min-Hop"],
              golden["metrics"]["minhop_link_list"])
        check("fig13 Min-Hop on bin_tree", rows["bin_tree"]["Min-Hop"],
              golden["metrics"]["minhop_bin_tree"])
        assert rows["link_list"]["Min-Hop"] < threshold
        assert rows["bin_tree"]["Min-Hop"] < threshold

    def test_every_hybrid_avoids_the_collapse(self, fig13_result):
        golden, res = fig13_result
        gm = dict(zip(res.headers, res.rows()[-1]))
        floor = golden["ordering"]["hybrids_beat_rnd_by_at_least"]
        hybrids = [gm[p] for p in ("Hybrid-1", "Hybrid-3",
                                   "Hybrid-5", "Hybrid-7")]
        assert all(h > floor for h in hybrids)
        assert all(h > gm["Min-Hop"] for h in hybrids)
        assert max(hybrids) - min(hybrids) \
            < golden["ordering"]["hybrid_spread_within"]

    def test_lnr_is_locality_oblivious(self, fig13_result):
        golden, res = fig13_result
        gm = dict(zip(res.headers, res.rows()[-1]))
        assert abs(gm["Lnr"] - 1.0) < golden["ordering"]["oblivious_lnr_within"]


# ----------------------------------------------------------------------
# Fig 4 — delta-sweep shape
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig4_result(private_cache):
    golden = load_golden("fig4")
    res = runner.EXPERIMENTS["fig4"](golden["scale"], golden["seed"])
    return golden, res


def _fig4_curves(res):
    deltas, speedups, hops = [], {}, {}
    for label, sp, hp in res.rows():
        if label.startswith("Δ Bank "):
            d = int(label.split()[-1])
            deltas.append(d)
            speedups[d] = sp
            hops[d] = hp
    return deltas, speedups, hops


class TestFig4Golden:
    def test_golden_values(self, fig4_result):
        golden, res = fig4_result
        _, speedups, hops = _fig4_curves(res)
        rnd = next(r for r in res.rows() if r[0] == "Random")
        m = golden["metrics"]
        check("fig4 Δ0 speedup", speedups[0], m["delta0_speedup"])
        check("fig4 Δ0 hops", hops[0], m["delta0_hops"])
        check("fig4 Δ32 speedup", speedups[32], m["delta32_speedup"])
        check("fig4 Random speedup", rnd[1], m["random_speedup"])

    def test_ndc_never_below_in_core(self, fig4_result):
        golden, res = fig4_result
        _, speedups, _ = _fig4_curves(res)
        floor = golden["shape"]["ndc_floor"]
        assert all(sp >= floor for sp in speedups.values())

    def test_peak_at_zero_delta_with_wraparound(self, fig4_result):
        _, res = fig4_result
        _, speedups, hops = _fig4_curves(res)
        assert speedups[0] == max(speedups.values())
        assert speedups[64] == pytest.approx(speedups[0], rel=1e-12)
        assert hops[64] == pytest.approx(hops[0], rel=1e-12)
        assert hops[0] == min(hops.values())

    def test_symmetric_in_delta(self, fig4_result):
        golden, res = fig4_result
        deltas, speedups, _ = _fig4_curves(res)
        rtol = golden["shape"]["symmetry_rtol"]
        for d in deltas:
            if 64 - d in speedups:
                assert speedups[d] == pytest.approx(speedups[64 - d],
                                                    rel=rtol), \
                    f"Δ{d} vs Δ{64 - d} asymmetric"

    def test_trough_at_half_distance(self, fig4_result):
        golden, res = fig4_result
        _, speedups, hops = _fig4_curves(res)
        trough = min(speedups.values())
        assert speedups[32] == pytest.approx(
            trough, rel=golden["shape"]["plateau_rtol"])
        # the trough pays far more NoC hops than the aligned peak
        assert hops[32] > 3.0 * hops[0]

    def test_random_sits_between_trough_and_peak(self, fig4_result):
        _, res = fig4_result
        _, speedups, _ = _fig4_curves(res)
        rnd = next(r for r in res.rows() if r[0] == "Random")
        assert min(speedups.values()) < rnd[1] < speedups[0]


# ----------------------------------------------------------------------
# Determinism: serial == parallel == cached-rerun, byte for byte
# ----------------------------------------------------------------------
class TestDeterminism:
    IDS = ("fig4", "fig17")
    SCALE = 0.05

    def test_serial_parallel_cached_all_byte_identical(self, tmp_path,
                                                       monkeypatch):
        blobs = {}

        def run(tag, jobs, use_cache):
            monkeypatch.setattr(
                cache_mod, "_CACHE",
                ArtifactCache(root=tmp_path / tag, enabled=True))
            report = runner.run_figures(self.IDS, jobs=jobs,
                                        scale=self.SCALE, seed=0,
                                        use_cache=use_cache)
            blobs[tag] = report.metrics_json()
            return report

        run("serial", jobs=1, use_cache=False)
        run("parallel", jobs=2, use_cache=False)
        cold = run("cached", jobs=1, use_cache=True)
        # warm rerun against the cache the cold run just populated
        warm = runner.run_figures(self.IDS, jobs=1, scale=self.SCALE,
                                  seed=0, use_cache=True)
        blobs["cached-warm"] = warm.metrics_json()

        assert all(f.from_cache for f in warm.figures)
        assert not any(f.from_cache for f in cold.figures)
        reference = blobs["serial"]
        for tag, blob in blobs.items():
            assert blob == reference, f"{tag} diverged from serial run"
        assert warm.run_hash == cold.run_hash
