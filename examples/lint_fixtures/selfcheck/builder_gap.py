"""GRD002 fixture: a cached builder reads a parameter (``weighted``) and
a local (``rows``) that never reach its key arguments — two calls
differing only in them would share one cache entry.  A complete sibling
is present and must NOT be flagged."""

import numpy as np

from repro.cache import cached_arrays, cached_graph

EXPECT = ["GRD002"]


def inputs_stale(n, seed, weighted):
    rows = 2 * n

    def draw():
        rng = np.random.default_rng(seed)
        w = rng.random(rows) if weighted else np.ones(rows)
        return {"w": w}

    # GRD002 (twice): `rows` and `weighted` shape the draw, unkeyed.
    return cached_arrays("inputs", draw, names=("w",), seed=seed)


def graph_stale(n, seed, weighted, make):
    # GRD002: the lambda reads `weighted`, the key omits it.
    return cached_graph("g", lambda: make(n, seed, weighted), n=n,
                        seed=seed, make=make.__name__)


def inputs_fresh(n, seed, weighted):
    rows = 2 * n

    def draw():
        rng = np.random.default_rng(seed)
        w = rng.random(rows) if weighted else np.ones(rows)
        return {"w": w}

    return cached_arrays("inputs", draw, names=("w",), seed=seed,
                         rows=rows, weighted=weighted)
