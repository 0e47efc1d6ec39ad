"""Bank-select policies (Eq. 4) and batched selection."""

import numpy as np
import pytest

from repro.arch.mesh import Mesh
from repro.core.load import LoadTracker
from repro.core.policy import (HybridPolicy, LinearPolicy, MinHopPolicy,
                               RandomPolicy, policy_by_name)


@pytest.fixture
def mesh():
    return Mesh(8, 8)


def _rows(mesh):
    """The runtime's hop rows: row ``b`` is every bank's distance to b."""
    return mesh.hops_table().T.astype(np.float64)


def pick(pol, aff, load, mesh, mask=None):
    """One allocation near banks ``aff``, as ``malloc_irregular`` asks."""
    aff = np.asarray(aff, dtype=np.int64)
    return int(pol.select_batch(np.array([aff.size]), aff, _rows(mesh),
                                load, mask=mask)[0])


def batch(pol, n, load, mesh, mask=None):
    """``n`` allocations with no affinity."""
    return pol.select_batch(np.zeros(n, dtype=np.int64),
                            np.empty(0, dtype=np.int64), _rows(mesh), load,
                            mask=mask)


@pytest.fixture
def load():
    return LoadTracker(64)


class TestLoadTracker:
    def test_record_remove(self, load):
        load.record(3)
        load.record(3)
        assert load.loads[3] == 2
        load.remove(3)
        assert load.loads[3] == 1

    def test_negative_rejected(self, load):
        with pytest.raises(ValueError):
            load.remove(0)

    def test_average_and_imbalance(self, load):
        for b in range(64):
            load.record(b)
        assert load.average == 1.0
        assert load.imbalance() == 0.0
        load.record(0)
        assert load.imbalance() > 0.0


class TestMinHop:
    def test_picks_affinity_bank(self, mesh, load):
        pol = MinHopPolicy()
        assert pick(pol, np.array([37]), load, mesh) == 37

    def test_centroid_of_two(self, mesh, load):
        pol = MinHopPolicy()
        # affinity to banks 0 and 2 (same row): any of 0,1,2 minimizes;
        # ties break to lowest id
        assert pick(pol, np.array([0, 2]), load, mesh) == 0

    def test_ignores_load(self, mesh, load):
        pol = MinHopPolicy()
        for _ in range(1000):
            load.record(37)
        assert pick(pol, np.array([37]), load, mesh) == 37

    def test_no_affinity_lowest_bank(self, mesh, load):
        assert pick(MinHopPolicy(), np.empty(0, dtype=np.int64), load, mesh) == 0


class TestHybrid:
    def test_eq4_spills_overloaded_bank(self, mesh, load):
        pol = HybridPolicy(5.0)
        # make bank 37 heavily loaded relative to average
        for _ in range(640):
            load.record(37)
        chosen = pick(pol, np.array([37]), load, mesh)
        assert chosen != 37
        assert mesh.hops(37, chosen) <= 2  # spills to a close neighbor

    def test_zero_h_is_min_hop(self, mesh, load):
        pol = HybridPolicy(0.0)
        for _ in range(1000):
            load.record(37)
        assert pick(pol, np.array([37]), load, mesh) == 37

    @pytest.mark.parametrize("h", [0.0, 5.0])
    def test_one_group_is_the_scalar_eq4(self, mesh, h):
        """One allocation scores exactly the paper's formula: mean hops
        to its affinity banks plus H times the relative load."""
        rng = np.random.default_rng(7)
        load = LoadTracker(64)
        load.record_many(rng.integers(0, 9, 64))
        pol = HybridPolicy(h)
        for _ in range(50):
            aff = rng.integers(0, 64, size=rng.integers(0, 6))
            hops = (mesh.hops_to_all(aff).mean(axis=1) if aff.size
                    else np.zeros(64))
            score = hops + h * (load.loads / load.average - 1.0)
            assert pick(pol, aff, load, mesh) == int(np.argmin(score))

    def test_negative_h_rejected(self):
        with pytest.raises(ValueError):
            HybridPolicy(-1.0)

    def test_higher_h_balances_more(self, mesh):
        """Across a batch of same-affinity allocations, higher H spreads
        the load over more banks."""
        def spread(h):
            load = LoadTracker(64)
            pol = HybridPolicy(h)
            # 512 allocations near bank 0.
            banks = pol.select_batch(np.ones(512, dtype=np.int64),
                                     np.zeros(512, dtype=np.int64),
                                     _rows(mesh), load)
            return len(set(banks.tolist()))
        assert spread(7.0) >= spread(1.0)

    def test_select_batch_updates_load(self, mesh, load):
        pol = HybridPolicy(5.0)
        batch(pol, 10, load, mesh)
        assert load.total == 10.0


class TestObliviousPolicies:
    def test_linear_round_robin(self, mesh, load):
        pol = LinearPolicy()
        picks = [pick(pol, np.empty(0), load, mesh) for _ in range(130)]
        assert picks[:5] == [0, 1, 2, 3, 4]
        assert picks[64] == 0

    def test_linear_batch_matches_sequential(self, mesh):
        a, b = LinearPolicy(), LinearPolicy()
        la, lb = LoadTracker(64), LoadTracker(64)
        seq = [pick(a, np.empty(0), la, mesh) for _ in range(100)]
        together = batch(b, 100, lb, mesh)
        assert seq == together.tolist()

    def test_random_reproducible(self, mesh, load):
        a, b = RandomPolicy(seed=3), RandomPolicy(seed=3)
        assert [pick(a, np.empty(0), load, mesh) for _ in range(20)] == \
               [pick(b, np.empty(0), load, mesh) for _ in range(20)]

    def test_random_reset(self, mesh, load):
        pol = RandomPolicy(seed=3)
        first = [pick(pol, np.empty(0), load, mesh) for _ in range(10)]
        pol.reset()
        again = [pick(pol, np.empty(0), load, mesh) for _ in range(10)]
        assert first == again

    def test_random_batch_updates_load(self, mesh, load):
        batch(RandomPolicy(seed=0), 50, load, mesh)
        assert load.total == 50.0


class TestByName:
    @pytest.mark.parametrize("name,cls", [
        ("Rnd", RandomPolicy), ("Lnr", LinearPolicy),
        ("Min-Hop", MinHopPolicy), ("Min-Hops", MinHopPolicy),
        ("Hybrid-5", HybridPolicy), ("Hybrid-3", HybridPolicy),
    ])
    def test_known(self, name, cls):
        assert isinstance(policy_by_name(name), cls)

    def test_hybrid_h_parsed(self):
        assert policy_by_name("Hybrid-7").h == 7.0

    def test_unknown(self):
        with pytest.raises(ValueError):
            policy_by_name("Magic")


class TestMaskedSelection:
    """Degraded (chaos) bank selection: failed banks are never chosen."""

    MASKED = (3, 17, 40)

    @pytest.fixture
    def mask(self):
        mask = np.ones(64, dtype=bool)
        mask[list(self.MASKED)] = False
        return mask

    @pytest.mark.parametrize("make", [
        lambda: RandomPolicy(seed=0), LinearPolicy, MinHopPolicy,
        lambda: HybridPolicy(3.0)])
    def test_select_avoids_masked_banks(self, mesh, load, mask, make):
        pol = make()
        aff = np.array([3, 3, 17])  # affinity pinned on failed banks
        picks = {pick(pol, aff, load, mesh, mask=mask) for _ in range(64)}
        assert picks.isdisjoint(self.MASKED)

    @pytest.mark.parametrize("make", [
        lambda: RandomPolicy(seed=0), LinearPolicy, MinHopPolicy,
        lambda: HybridPolicy(3.0)])
    def test_select_batch_avoids_masked_banks(self, mesh, load, mask, make):
        chosen = batch(make(), 100, load, mesh,
                                     mask=mask)
        assert set(chosen.tolist()).isdisjoint(self.MASKED)
        assert load.total == 100.0  # load accounting unchanged

    @pytest.mark.parametrize("make", [
        lambda: RandomPolicy(seed=0), LinearPolicy, MinHopPolicy,
        lambda: HybridPolicy(3.0)])
    def test_all_masked_raises(self, mesh, load, make):
        from repro.analysis.diagnostics import NoHealthyBankError
        none_healthy = np.zeros(64, dtype=bool)
        with pytest.raises(NoHealthyBankError):
            pick(make(), np.empty(0), load, mesh, mask=none_healthy)
        with pytest.raises(NoHealthyBankError):
            batch(make(), 2, load, mesh,
                                mask=none_healthy)

    def test_hybrid_balances_load_over_healthy_banks(self, mesh, load, mask):
        chosen = batch(HybridPolicy(7.0), 610, load, mesh, mask=mask)
        counts = np.bincount(chosen, minlength=64)
        assert (counts[list(self.MASKED)] == 0).all()
        healthy = np.flatnonzero(mask)
        assert counts[healthy].min() >= 1  # every healthy bank used

    def test_no_mask_path_untouched(self, mesh, load):
        """mask=None must take the original scoring path bit for bit."""
        a = batch(HybridPolicy(3.0), 50, LoadTracker(64), mesh)
        b = batch(HybridPolicy(3.0), 50, LoadTracker(64), mesh, mask=None)
        assert (a == b).all()
