"""Vector addition ``C[i] = A[i] + B[i]`` — the paper's running example
(Figs 1/3/4, §3.1) and the Fig 4 layout-sensitivity study.

``run_vecadd_delta`` reproduces Fig 4's controlled layouts: A and B are
colocated, and C is placed so that bank ``i`` always forwards to bank
``(i + delta) mod num_banks``; ``delta=None`` gives the Random layout
(plain arrays on randomly-mapped heap pages).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core.api import ArrayHandle
from repro.nsc.engine import EngineMode
from repro.nsc.stream import AffineIndex
from repro.perf.model import RunResult
from repro.workloads.base import RunContext, Workload, make_context, register

__all__ = ["VecAdd", "run_vecadd_delta"]

_OPS = 1.0  # one add per element


def _trace_vecadd(ctx: RunContext, a: ArrayHandle, b: ArrayHandle,
                  c: ArrayHandle, n: int, iters: int) -> None:
    here = AffineIndex(0)
    ctx.executor.affine_kernel(ctx.cores_for(n), [(a, here), (b, here)],
                               out=(c, here), ops_per_elem=_OPS, repeat=iters)


def _functional_vecadd(n: int, seed: int):
    rng = np.random.default_rng(seed)
    av = rng.random(n, dtype=np.float32)
    bv = rng.random(n, dtype=np.float32)
    return av, bv, av + bv


@register
class VecAdd(Workload):
    """Plain vector add under the three engine modes."""

    name = "vecadd"
    layout_kind = "Affine"
    SCALED_PARAMS = ("n",)

    def default_params(self) -> Dict:
        return {"n": 1 << 20, "iters": 1}

    def layout_plan(self, scale: float = 1.0, **overrides):
        from repro.analysis.plan import LayoutPlan
        n = self.params(scale, **overrides)["n"]
        plan = LayoutPlan(self.name)
        plan.array("A", 4, n)
        plan.array("B", 4, n, align_to="A")
        plan.array("C", 4, n, align_to="A")
        return plan

    def run(self, mode: EngineMode, config: SystemConfig = DEFAULT_CONFIG,
            policy=None, scale: float = 1.0, seed: int = 0,
            **overrides) -> RunResult:
        p = self.params(scale, **overrides)
        n, iters = p["n"], p["iters"]
        ctx = make_context(mode, config, policy, seed)
        a = ctx.alloc(4, n, "A")
        b = ctx.alloc(4, n, "B", align_to=a if mode.affinity_aware else None)
        c = ctx.alloc(4, n, "C", align_to=a if mode.affinity_aware else None)
        _trace_vecadd(ctx, a, b, c, n, iters)
        _av, _bv, cv = _functional_vecadd(n, seed)
        return ctx.finish(f"vecadd/{mode.value}", value=cv)


def _alloc_with_bank_offset(ctx: RunContext, ref: ArrayHandle, delta: int,
                            name: str) -> ArrayHandle:
    """Allocate an array shaped like ``ref`` whose element-0 bank is
    ``ref``'s start bank plus ``delta`` (the Fig 4 "Δ Bank" control)."""
    assert ctx.allocator is not None and ref.layout is not None
    return ctx.allocator.malloc_offset(ref, delta, name)


def run_vecadd_delta(delta: Optional[int], mode: EngineMode = EngineMode.AFF_ALLOC,
                     config: SystemConfig = DEFAULT_CONFIG, n: int = 1 << 20,
                     iters: int = 1, seed: int = 0) -> RunResult:
    """One Fig 4 configuration.

    Args:
        delta: forwarding distance in banks (0 = perfectly aligned); None
            gives the Random page layout on plain arrays.
        mode: the engine; Fig 4's In-Core bar uses ``EngineMode.IN_CORE``
            (delta is irrelevant there, pass 0).
    """
    if delta is None:
        ctx = make_context(EngineMode.NEAR_L3 if mode.offloads else mode,
                           config, seed=seed)
        a = ctx.alloc(4, n, "A")
        b = ctx.alloc(4, n, "B")
        c = ctx.alloc(4, n, "C")
        label = f"vecadd/random/{ctx.mode.value}"
    elif not mode.offloads:
        ctx = make_context(mode, config, seed=seed)
        a = ctx.alloc(4, n, "A")
        b = ctx.alloc(4, n, "B")
        c = ctx.alloc(4, n, "C")
        label = "vecadd/in-core"
    else:
        ctx = make_context(EngineMode.AFF_ALLOC, config, seed=seed)
        a = ctx.alloc(4, n, "A")
        b = ctx.alloc(4, n, "B", align_to=a)
        c = _alloc_with_bank_offset(ctx, a, delta, "C")
        label = f"vecadd/delta-{delta}"
    _trace_vecadd(ctx, a, b, c, n, iters)
    _av, _bv, cv = _functional_vecadd(n, seed)
    return ctx.finish(label, value=cv)
