"""fig12 through the shipped hot paths equals fig12 through their
pre-vectorization originals (``tests/oracles.py``).

The equivalence suites check each vectorized path against its oracle
on random inputs; this test checks them composed, on the ten Table 3
workloads in all three modes.  Call counters on the oracles keep it
from passing without running them.
"""

import functools

from repro.harness.experiments import fig12_overall
from tests import oracles

# Oracles that fig12 must reach: the per-element affine kernel, the
# three Eq. 4 originals behind the one select_batch (CSR groups and
# malloc_irregular's one group through the dense select loop; lists and
# trees through the chained loop) and the address path (translate, IOT
# banks).
COUNTED = ("affine_kernel_reference", "hybrid_select_batch_reference",
           "affinity_hybrid_reference", "chained_hybrid_reference",
           "translate_reference", "iot_banks_reference")


def _fig12_rows():
    return list(fig12_overall(scale=0.015, seed=0).rows())


def test_fig12_rows_equal_under_the_oracles(monkeypatch):
    shipped = _fig12_rows()

    calls = dict.fromkeys(COUNTED, 0)
    for name in COUNTED:
        fn = getattr(oracles, name)

        @functools.wraps(fn)
        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(oracles, name, counted)
    oracles.install(monkeypatch)

    assert _fig12_rows() == shipped
    assert all(calls.values()), calls
