"""Adversarial workload zoo: the traffic the shipped kernels never send.

The ten Table 3 workloads are *friendly*: regular strides, uniform
indirections, one allocation burst at startup.  The zoo covers the cases
related systems show break allocators and not-so-near-data machines:

* ``hash_join_skew``   — a Zipf-skewed hash-join pipeline.  A handful of
  buckets absorb most of the build atomics and probe gathers, so one
  bank's ejection port becomes the bottleneck (the contention shape host
  interference amplifies).
* ``spmv_gather``      — SpMV / GNN-style gather-scatter over a CSR
  structure with power-law column reuse: per edge chunk, walk the index
  array, gather ``x[col]``, scatter atomics into ``y[row]``.
* ``alloc_storm``      — a PUMA-style alignment-hostile allocation
  storm: batches of odd-sized arrays with offset alignment chains plus
  irregular alloc/free churn, each batch touched once then half-freed,
  so the allocator faces fragmentation instead of one clean burst.
* ``iot_pressure``     — an NDPage-style translation-pressure scenario:
  live arrays spread over every pool interleave plus partitioned
  (paged) arrays, sized to force pool expansions, with epochs touching
  every array — deep range-table pressure on the IOT.

The Zipf inputs of ``hash_join_skew`` and ``spmv_gather`` depend only on
their sizes, skew and seed, so they are drawn once per parameter set
through the artifact cache (:func:`repro.cache.cached_arrays`) and every
arm and pass reads the same stored draw.

Each declares :meth:`layout_plan` so the afflint pre-flight covers it,
and registration makes all four reachable from experiments, bench,
chaos, trace, and interfere by name.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.cache import cached_arrays
from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.nsc.engine import EngineMode
from repro.nsc.stream import AffineIndex
from repro.perf.model import RunResult
from repro.workloads.base import Workload, make_context, register

__all__ = ["SkewedHashJoin", "SpmvGather", "AllocStorm", "IotPressure"]


def _zipf_indices(rng: np.random.Generator, a: float, size: int,
                  modulo: int) -> np.ndarray:
    """Zipf-distributed indices folded into ``[0, modulo)``.

    ``numpy``'s zipf sampler returns unbounded ranks; rank 1 (the hot
    element) maps to index 0, so the skew concentrates on a stable
    prefix of the index space.
    """
    z = rng.zipf(a, size=size).astype(np.int64)
    return (z - 1) % modulo


def _scan(chunk: np.ndarray) -> AffineIndex:
    """The descriptor of a contiguous index range: iteration ``i`` of
    the affine stream reads element ``chunk[0] + i``."""
    return AffineIndex(int(chunk[0]) if chunk.size else 0)


@register
class SkewedHashJoin(Workload):
    """Build + probe a bucket array under Zipf-skewed keys."""

    name = "hash_join_skew"
    layout_kind = "Ptr-Chasing"
    SCALED_PARAMS = ("build_keys", "probe_keys", "buckets")

    def default_params(self) -> Dict:
        return {"build_keys": 1 << 17, "probe_keys": 1 << 18,
                "buckets": 1 << 14, "zipf_a": 1.2, "epochs": 4}

    def layout_plan(self, scale: float = 1.0, **overrides):
        from repro.analysis.plan import LayoutPlan
        p = self.params(scale, **overrides)
        plan = LayoutPlan(self.name)
        plan.array("buckets", 8, p["buckets"], partition=True)
        plan.array("build-keys", 8, p["build_keys"])
        plan.array("probe-keys", 8, p["probe_keys"])
        return plan

    def run(self, mode: EngineMode, config: SystemConfig = DEFAULT_CONFIG,
            policy=None, scale: float = 1.0, seed: int = 0,
            **overrides) -> RunResult:
        p = self.params(scale, **overrides)
        nb_, np_, buckets = p["build_keys"], p["probe_keys"], p["buckets"]
        epochs = p["epochs"]
        ctx = make_context(mode, config, policy, seed)
        aff = mode.affinity_aware
        counts = ctx.alloc(8, buckets, "buckets", partition=aff)
        build_h = ctx.alloc(8, nb_, "build-keys")
        probe_h = ctx.alloc(8, np_, "probe-keys")

        zipf_a = p["zipf_a"]

        def draw() -> Dict[str, np.ndarray]:
            rng = np.random.default_rng(seed)
            return {"build": _zipf_indices(rng, zipf_a, nb_, buckets),
                    "probe": _zipf_indices(rng, zipf_a, np_, buckets)}

        keys = cached_arrays("hash_join_skew_keys", draw,
                             names=("build", "probe"), seed=seed,
                             zipf_a=zipf_a, build_keys=nb_, probe_keys=np_,
                             buckets=buckets)
        build_idx, probe_idx = keys["build"], keys["probe"]

        epoch = 0
        for chunk in np.array_split(np.arange(nb_, dtype=np.int64), epochs):
            cores = ctx.cores_of_positions(chunk, nb_)
            ctx.executor.affine_kernel(cores, [(build_h, _scan(chunk))],
                                       ops_per_elem=2.0)
            ctx.executor.indirect_atomic(cores, (build_h, chunk),
                                         (counts, build_idx[chunk]),
                                         ops_per_elem=1.0)
            ctx.end_epoch(f"build:e{epoch}")
            epoch += 1
        for chunk in np.array_split(np.arange(np_, dtype=np.int64), epochs):
            cores = ctx.cores_of_positions(chunk, np_)
            ctx.executor.affine_kernel(cores, [(probe_h, _scan(chunk))],
                                       ops_per_elem=2.0)
            ctx.executor.indirect_gather(cores, (probe_h, chunk),
                                         (counts, probe_idx[chunk]),
                                         ops_per_elem=1.0)
            ctx.end_epoch(f"probe:e{epoch}")
            epoch += 1

        # Functional answer: the measured skew of the build histogram
        # (max bucket occupancy over mean) — the quantity the adversarial
        # shape exists to maximize.
        hist = np.bincount(build_idx, minlength=buckets)
        skew = float(hist.max() / max(hist.mean(), 1e-12))
        res = ctx.finish(f"{self.name}/{mode.value}", value=skew)
        res.counters["epochs"] = epoch
        res.counters["bucket_skew"] = skew
        return res


@register
class SpmvGather(Workload):
    """CSR SpMV with power-law column reuse: gather x, scatter-atomic y."""

    name = "spmv_gather"
    layout_kind = "Indirect"
    SCALED_PARAMS = ("rows",)

    def default_params(self) -> Dict:
        return {"rows": 1 << 15, "nnz_per_row": 8, "zipf_a": 1.3,
                "epochs": 4}

    def layout_plan(self, scale: float = 1.0, **overrides):
        from repro.analysis.plan import LayoutPlan
        p = self.params(scale, **overrides)
        n = p["rows"]
        nnz = n * p["nnz_per_row"]
        plan = LayoutPlan(self.name)
        plan.array("x", 8, n, partition=True)
        plan.array("y", 8, n, align_to="x")
        plan.array("col-idx", 4, nnz)
        return plan

    def run(self, mode: EngineMode, config: SystemConfig = DEFAULT_CONFIG,
            policy=None, scale: float = 1.0, seed: int = 0,
            **overrides) -> RunResult:
        p = self.params(scale, **overrides)
        n = p["rows"]
        nnz = n * p["nnz_per_row"]
        epochs = p["epochs"]
        ctx = make_context(mode, config, policy, seed)
        aff = mode.affinity_aware
        x_h = ctx.alloc(8, n, "x", partition=aff)
        y_h = ctx.alloc(8, n, "y", align_to=x_h if aff else None)
        col_h = ctx.alloc(4, nnz, "col-idx")

        zipf_a = p["zipf_a"]

        def draw() -> Dict[str, np.ndarray]:
            # xv comes from the same generator after cols: both are one
            # entry, or a cached cols would shift xv's draw.
            rng = np.random.default_rng(seed)
            cols = _zipf_indices(rng, zipf_a, nnz, n)
            return {"cols": cols, "xv": rng.random(n)}

        inputs = cached_arrays("spmv_gather_inputs", draw,
                               names=("cols", "xv"), seed=seed,
                               zipf_a=zipf_a, nnz=nnz, n=n)
        cols, xv = inputs["cols"], inputs["xv"]
        rows = np.repeat(np.arange(n, dtype=np.int64), p["nnz_per_row"])

        epoch = 0
        for chunk in np.array_split(np.arange(nnz, dtype=np.int64), epochs):
            cores = ctx.cores_of_positions(chunk, nnz)
            ctx.executor.affine_kernel(cores, [(col_h, _scan(chunk))],
                                       ops_per_elem=1.0)
            ctx.executor.indirect_gather(cores, (col_h, chunk),
                                         (x_h, cols[chunk]),
                                         ops_per_elem=1.0)
            ctx.executor.indirect_atomic(cores, (col_h, chunk),
                                         (y_h, rows[chunk]),
                                         ops_per_elem=1.0)
            ctx.end_epoch(f"edges:e{epoch}")
            epoch += 1

        # Functional answer: the actual y = A @ x with unit values.
        yv = np.bincount(rows, weights=xv[cols], minlength=n)
        res = ctx.finish(f"{self.name}/{mode.value}",
                         value=float(yv.sum()))
        res.counters["epochs"] = epoch
        res.counters["nnz"] = float(nnz)
        return res


#: Odd allocation sizes per storm batch (PUMA's point: real request
#: streams are not powers of two).  Primes plus near-power-of-two sizes.
_STORM_SIZES = (1021, 1535, 2063, 3071, 4099, 6143)


@register
class AllocStorm(Workload):
    """Alignment-hostile allocation storm with alloc/free churn."""

    name = "alloc_storm"
    layout_kind = "Affine"
    SCALED_PARAMS = ("n",)

    def default_params(self) -> Dict:
        return {"n": 1 << 13, "batches": 4, "churn": 16}

    def layout_plan(self, scale: float = 1.0, **overrides):
        from repro.analysis.plan import LayoutPlan
        p = self.params(scale, **overrides)
        n = p["n"]
        plan = LayoutPlan(self.name)
        for b in range(p["batches"]):
            anchor = f"s{b}-a0"
            plan.array(anchor, 4, n + _STORM_SIZES[b % len(_STORM_SIZES)])
            for j, extra in enumerate(_STORM_SIZES):
                # 16 elements x 4B = one 64B slot per offset step, so
                # the offsets are hostile (every array staggered) yet
                # still slot-aligned (AFF001-clean).
                plan.array(f"s{b}-a{j + 1}", 4, n + extra,
                           align_to=anchor, align_x=16 * (j % 3))
        return plan

    def run(self, mode: EngineMode, config: SystemConfig = DEFAULT_CONFIG,
            policy=None, scale: float = 1.0, seed: int = 0,
            **overrides) -> RunResult:
        p = self.params(scale, **overrides)
        n, batches, churn = p["n"], p["batches"], p["churn"]
        ctx = make_context(mode, config, policy, seed)
        aff = mode.affinity_aware
        rng = np.random.default_rng(seed)
        allocs = 0
        frees = 0
        touched = 0.0
        irregular: List[int] = []
        for b in range(batches):
            anchor = ctx.alloc(4, n + _STORM_SIZES[b % len(_STORM_SIZES)],
                               f"s{b}-a0")
            handles = [anchor]
            for j, extra in enumerate(_STORM_SIZES):
                handles.append(ctx.alloc(4, n + extra, f"s{b}-a{j + 1}",
                                         align_to=anchor if aff else None,
                                         x=16 * (j % 3) if aff else 0))
            allocs += len(handles)
            for h in handles:
                cores = ctx.cores_for(h.num_elem)
                ctx.executor.affine_kernel(cores, [(h, AffineIndex(0))],
                                           ops_per_elem=1.0)
                touched += float(h.num_elem)
            if ctx.allocator is not None:
                # Irregular churn: small objects allocated near the
                # batch anchor, half of them (and half the batch's
                # arrays) freed immediately — the interleaved
                # alloc/free stream pool allocators fragment under.
                for k in range(churn):
                    size = int(64 << int(rng.integers(0, 6)))
                    vaddr = ctx.allocator.malloc_aff(
                        size, [int(anchor.vaddr)])
                    irregular.append(int(vaddr))
                    allocs += 1
                for vaddr in irregular[::2]:
                    ctx.allocator.free_aff(vaddr)
                    frees += 1
                irregular = irregular[1::2]
                for h in handles[1::2]:
                    ctx.allocator.free_aff(h)
                    frees += 1
            ctx.end_epoch(f"storm:b{b}")
        if ctx.allocator is not None:
            for vaddr in irregular:
                ctx.allocator.free_aff(vaddr)
                frees += 1
        res = ctx.finish(f"{self.name}/{mode.value}", value=float(allocs))
        res.counters["epochs"] = batches
        res.counters["allocs"] = float(allocs)
        res.counters["frees"] = float(frees)
        res.counters["elems_touched"] = touched
        return res


@register
class IotPressure(Workload):
    """Translation pressure: live arrays across every pool interleave."""

    name = "iot_pressure"
    layout_kind = "Affine"
    SCALED_PARAMS = ("n",)

    #: Element sizes spanning the pool interleave ladder (64B..4096B
    #: pools all get live entries) plus partitioned arrays in the paged
    #: segment.
    ELEM_SIZES = (1, 2, 4, 8, 16, 32, 64)

    def default_params(self) -> Dict:
        return {"n": 1 << 12, "epochs": 3, "per_size": 2}

    def layout_plan(self, scale: float = 1.0, **overrides):
        from repro.analysis.plan import LayoutPlan
        p = self.params(scale, **overrides)
        n = p["n"]
        plan = LayoutPlan(self.name)
        for es in self.ELEM_SIZES:
            for k in range(p["per_size"]):
                plan.array(f"e{es}-{k}", es, n + 257 * k)
        plan.array("part-a", 8, n, partition=True)
        plan.array("part-b", 8, n, partition=True)
        return plan

    def run(self, mode: EngineMode, config: SystemConfig = DEFAULT_CONFIG,
            policy=None, scale: float = 1.0, seed: int = 0,
            **overrides) -> RunResult:
        p = self.params(scale, **overrides)
        n, epochs = p["n"], p["epochs"]
        ctx = make_context(mode, config, policy, seed)
        aff = mode.affinity_aware
        handles = []
        for es in self.ELEM_SIZES:
            for k in range(p["per_size"]):
                handles.append(ctx.alloc(es, n + 257 * k, f"e{es}-{k}"))
        handles.append(ctx.alloc(8, n, "part-a", partition=aff))
        handles.append(ctx.alloc(8, n, "part-b", partition=aff))

        rng = np.random.default_rng(seed)
        checksum = 0.0
        for epoch in range(epochs):
            for h in handles:
                # Strided walk with a per-epoch rotation, so every epoch
                # re-translates every array's range instead of replaying
                # one hot span.
                start = int(rng.integers(0, max(h.num_elem, 1)))
                idx = (start + np.arange(h.num_elem, dtype=np.int64)) \
                    % h.num_elem
                cores = ctx.cores_for(h.num_elem)
                ctx.executor.affine_kernel(cores, [(h, idx)],
                                           ops_per_elem=1.0)
                checksum += float(h.num_elem)
            ctx.end_epoch(f"touch:e{epoch}")
        res = ctx.finish(f"{self.name}/{mode.value}", value=checksum)
        res.counters["epochs"] = float(epochs)
        res.counters["live_arrays"] = float(len(handles))
        return res
