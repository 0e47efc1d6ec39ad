"""Edge-case backfill for ``repro.perf.compare``: the normalization
helpers' guard rails on zero and empty inputs."""

import pytest

from repro.perf.compare import (energy_efficiency, geomean, mean, speedup,
                                traffic_ratio)


# ----------------------------------------------------------------------
# Normalization helpers
# ----------------------------------------------------------------------
class FakeResult:
    def __init__(self, cycles=1.0, energy_pj=1.0, total_flit_hops=1.0):
        self.cycles = cycles
        self.energy_pj = energy_pj
        self.total_flit_hops = total_flit_hops


class TestNormalizationEdges:
    def test_speedup_rejects_zero_cycles(self):
        with pytest.raises(ValueError):
            speedup(FakeResult(cycles=10.0), FakeResult(cycles=0.0))

    def test_energy_rejects_zero_energy(self):
        with pytest.raises(ValueError):
            energy_efficiency(FakeResult(), FakeResult(energy_pj=0.0))

    def test_traffic_ratio_zero_baseline_is_zero(self):
        assert traffic_ratio(FakeResult(total_flit_hops=0.0),
                             FakeResult(total_flit_hops=5.0)) == 0.0

    def test_geomean_guards(self):
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_mean_guards(self):
        with pytest.raises(ValueError):
            mean([])
        assert mean([1.0, 3.0]) == 2.0

