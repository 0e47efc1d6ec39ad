"""MultiQueue: per-bank relaxed priority queues (paper §4.2)."""

import numpy as np
import pytest

from repro.core.runtime import AffinityAllocator
from repro.datastructs.multiqueue import MultiQueue
from repro.machine import Machine


@pytest.fixture
def mq():
    m = Machine()
    alloc = AffinityAllocator(m)
    return m, MultiQueue(m, alloc, capacity_per_queue=256, seed=1)


class TestPlacement:
    def test_one_queue_per_bank(self, mq):
        _, q = mq
        assert len(set(q.queue_banks.tolist())) == 64

    def test_local_push_stays_local(self, mq):
        m, q = mq
        anchor = q.storage.addr_of_one(0)  # lives on queue 0's bank
        qi = q.push(1.0, 42, near=anchor)
        assert q.queue_banks[qi] == m.bank_of(anchor)
        assert q.trace.remote_ops == 0

    def test_random_push_spreads(self, mq):
        _, q = mq
        for i in range(256):
            q.push(float(i), i)
        occ = q.occupancy()
        assert (occ > 0).sum() > 32  # spread over many queues


class TestSemantics:
    def test_push_pop_roundtrip(self, mq):
        _, q = mq
        q.push(3.0, 30)
        q.push(1.0, 10)
        out = list(iter(q.pop, None))
        assert len(out) == 2
        assert {v for _, v in out} == {10, 30}

    def test_pop_empty_returns_none(self, mq):
        _, q = mq
        assert q.pop() is None

    def test_len(self, mq):
        _, q = mq
        for i in range(10):
            q.push(float(i), i)
        assert len(q) == 10
        q.pop()
        assert len(q) == 9

    def test_capacity_enforced(self):
        m = Machine()
        q = MultiQueue(m, AffinityAllocator(m), capacity_per_queue=64)
        anchor = q.storage.addr_of_one(0)
        with pytest.raises(OverflowError):
            for i in range(100):
                q.push(float(i), i, near=anchor)

    def test_relaxed_order_quality(self, mq):
        """MultiQueues' relaxation must stay bounded: mean rank error on a
        big drain is a small fraction of the total size."""
        _, q = mq
        rng = np.random.default_rng(0)
        n = 2000
        for p in rng.random(n):
            q.push(float(p), 0)
        popped = list(iter(q.pop, None))
        assert len(popped) == n
        prios = np.array([p for p, _ in popped])
        err = np.abs(np.searchsorted(np.sort(prios), prios)
                     - np.arange(n)).mean()
        assert err < 0.1 * n

    def test_deterministic_by_seed(self):
        def run(seed):
            m = Machine()
            q = MultiQueue(m, AffinityAllocator(m), seed=seed)
            rng = np.random.default_rng(3)
            for p in rng.random(100):
                q.push(float(p), 0)
            return [p for p, _ in list(iter(q.pop, None))]
        assert run(5) == run(5)

    def test_trace_summary(self, mq):
        _, q = mq
        for i in range(20):
            q.push(float(i), i)
        list(iter(q.pop, None))
        s = q.trace.summary()
        assert s["ops"] == 40
        assert s["mean_sift"] >= 1.0
