"""Affine (stencil/DP) workloads: pathfinder, srad, hotspot, hotspot3D.

Rodinia kernels ported to the trace executor (Table 3 sizes: pathfinder
1.5M entries, srad 1k x 2k, hotspot 2k x 1k, hotspot3D 256 x 1k x 8, all
8 iterations).  The per-iteration access trace of these kernels is
congruent across iterations (the ping-pong buffers are allocated with
identical alignment), so the trace is walked once with ``repeat=iters``.
Every operand is an :class:`~repro.nsc.stream.AffineIndex` (neighbor
offset, clamped at the borders): the executor derives line runs from the
offsets and builds no per-element index arrays.

Functional results use simplified update formulas (plain diffusion
stencils rather than Rodinia's full physics) — the access structure, not
the arithmetic, is what the evaluation measures.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core.api import ArrayHandle
from repro.nsc.engine import EngineMode
from repro.nsc.stream import AffineIndex
from repro.perf.model import RunResult
from repro.workloads.base import RunContext, Workload, make_context, register

__all__ = ["Pathfinder", "Srad", "Hotspot", "Hotspot3D"]


@register
class Pathfinder(Workload):
    """Dynamic-programming path cost: dp[j] = min3(prev[j-1:j+2]) + wall[j]."""

    name = "pathfinder"
    layout_kind = "Affine"
    SCALED_PARAMS = ("cols",)

    def default_params(self) -> Dict:
        return {"cols": 1_500_000, "iters": 8}

    def layout_plan(self, scale: float = 1.0, **overrides):
        from repro.analysis.plan import LayoutPlan
        n = self.params(scale, **overrides)["cols"]
        plan = LayoutPlan(self.name)
        plan.array("wall", 4, n)
        plan.array("prev", 4, n, align_to="wall")
        plan.array("next", 4, n, align_to="wall")
        return plan

    def run(self, mode: EngineMode, config: SystemConfig = DEFAULT_CONFIG,
            policy=None, scale: float = 1.0, seed: int = 0,
            **overrides) -> RunResult:
        p = self.params(scale, **overrides)
        n, iters = p["cols"], p["iters"]
        ctx = make_context(mode, config, policy, seed)
        aff = mode.affinity_aware
        wall = ctx.alloc(4, n, "wall")
        prev = ctx.alloc(4, n, "prev", align_to=wall if aff else None)
        nxt = ctx.alloc(4, n, "next", align_to=wall if aff else None)
        here = AffineIndex(0)
        cores = ctx.cores_for(n)
        ctx.executor.affine_kernel(
            cores,
            [(prev, AffineIndex(-1)), (prev, here), (prev, AffineIndex(1)),
             (wall, here)],
            out=(nxt, here), ops_per_elem=4.0, repeat=iters)
        # functional DP
        rng = np.random.default_rng(seed)
        w = rng.integers(0, 10, n).astype(np.float32)
        dp = w.copy()
        for _ in range(iters):
            shifted_l = np.concatenate([dp[:1], dp[:-1]])
            shifted_r = np.concatenate([dp[1:], dp[-1:]])
            dp = np.minimum(np.minimum(shifted_l, dp), shifted_r) + w
        return ctx.finish(f"pathfinder/{mode.value}", value=dp)


class _Stencil2D(Workload):
    """Shared machinery for 2D 5-point stencils (hotspot, srad passes)."""

    rows: int = 0
    cols: int = 0
    iters: int = 8
    GRID_NAMES: List[str] = []

    def default_params(self) -> Dict:
        return {"rows": self.rows, "cols": self.cols, "iters": self.iters}

    SCALED_PARAMS = ("rows",)

    def layout_plan(self, scale: float = 1.0, **overrides):
        from repro.analysis.plan import LayoutPlan
        p = self.params(scale, **overrides)
        n = p["rows"] * p["cols"]
        plan = LayoutPlan(self.name)
        plan.array(self.GRID_NAMES[0], 4, n, align_x=p["cols"])
        for nm in self.GRID_NAMES[1:]:
            plan.array(nm, 4, n, align_to=self.GRID_NAMES[0])
        return plan

    def _alloc_grids(self, ctx: RunContext, rows: int, cols: int,
                     names: List[str]) -> List[ArrayHandle]:
        """First grid gets intra-array row affinity; the rest align to it."""
        aff = ctx.mode.affinity_aware
        first = ctx.alloc(4, rows * cols, names[0], x=cols if aff else 0)
        out = [first]
        for nm in names[1:]:
            out.append(ctx.alloc(4, rows * cols, nm,
                                 align_to=first if aff else None))
        return out

    @staticmethod
    def _stencil_indices(rows: int, cols: int) -> Tuple[AffineIndex, ...]:
        """Center, north, south, west and east operands of a row-major
        ``rows x cols`` grid."""
        return (AffineIndex(0), AffineIndex(-cols), AffineIndex(cols),
                AffineIndex(-1), AffineIndex(1))

    @staticmethod
    def _functional_diffuse(rows: int, cols: int, iters: int, seed: int,
                            passes: int = 1) -> np.ndarray:
        rng = np.random.default_rng(seed)
        g = rng.random((rows, cols), dtype=np.float32)
        src = rng.random((rows, cols), dtype=np.float32) * 0.01
        for _ in range(iters * passes):
            up = np.vstack([g[:1], g[:-1]])
            down = np.vstack([g[1:], g[-1:]])
            left = np.hstack([g[:, :1], g[:, :-1]])
            right = np.hstack([g[:, 1:], g[:, -1:]])
            g = 0.2 * (g + up + down + left + right) + src
        return g


@register
class Hotspot(_Stencil2D):
    """Thermal simulation: 5-point stencil over temp with a power term."""

    name = "hotspot"
    layout_kind = "Affine"
    rows, cols = 2048, 1024
    GRID_NAMES = ["temp", "power", "temp_out"]

    def run(self, mode: EngineMode, config: SystemConfig = DEFAULT_CONFIG,
            policy=None, scale: float = 1.0, seed: int = 0,
            **overrides) -> RunResult:
        p = self.params(scale, **overrides)
        rows, cols, iters = p["rows"], p["cols"], p["iters"]
        ctx = make_context(mode, config, policy, seed)
        temp, power, temp_out = self._alloc_grids(ctx, rows, cols,
                                                  ["temp", "power", "temp_out"])
        here, north, south, west, east = self._stencil_indices(rows, cols)
        cores = ctx.cores_for(rows * cols)
        ctx.executor.affine_kernel(
            cores,
            [(temp, here), (temp, north), (temp, south), (temp, west),
             (temp, east), (power, here)],
            out=(temp_out, here), ops_per_elem=7.0, repeat=iters)
        value = self._functional_diffuse(rows, cols, iters, seed)
        return ctx.finish(f"hotspot/{mode.value}", value=value)


@register
class Srad(_Stencil2D):
    """Speckle-reducing anisotropic diffusion: two 4-neighbor passes/iter."""

    name = "srad"
    layout_kind = "Affine"
    rows, cols = 1024, 2048
    GRID_NAMES = ["img", "coeff"]

    def run(self, mode: EngineMode, config: SystemConfig = DEFAULT_CONFIG,
            policy=None, scale: float = 1.0, seed: int = 0,
            **overrides) -> RunResult:
        p = self.params(scale, **overrides)
        rows, cols, iters = p["rows"], p["cols"], p["iters"]
        ctx = make_context(mode, config, policy, seed)
        img, coeff = self._alloc_grids(ctx, rows, cols, ["img", "coeff"])
        here, north, south, west, east = self._stencil_indices(rows, cols)
        cores = ctx.cores_for(rows * cols)
        # pass 1: compute diffusion coefficient from image gradients
        ctx.executor.affine_kernel(
            cores,
            [(img, here), (img, north), (img, south), (img, west), (img, east)],
            out=(coeff, here), ops_per_elem=10.0, repeat=iters)
        # pass 2: update image from coefficients (south/east neighbors)
        ctx.executor.affine_kernel(
            cores,
            [(coeff, here), (coeff, south), (coeff, east), (img, here)],
            out=(img, here), ops_per_elem=6.0, repeat=iters)
        value = self._functional_diffuse(rows, cols, iters, seed, passes=2)
        return ctx.finish(f"srad/{mode.value}", value=value)


@register
class Hotspot3D(Workload):
    """7-point 3D stencil (256 x 1k x 8 grid)."""

    name = "hotspot3D"
    layout_kind = "Affine"
    SCALED_PARAMS = ("ny",)

    def default_params(self) -> Dict:
        return {"nx": 256, "ny": 1024, "nz": 8, "iters": 8}

    def layout_plan(self, scale: float = 1.0, **overrides):
        from repro.analysis.plan import LayoutPlan
        p = self.params(scale, **overrides)
        n = p["nx"] * p["ny"] * p["nz"]
        plan = LayoutPlan(self.name)
        plan.array("tIn", 4, n, align_x=p["nx"] * p["ny"])
        plan.array("power", 4, n, align_to="tIn")
        plan.array("tOut", 4, n, align_to="tIn")
        return plan

    def run(self, mode: EngineMode, config: SystemConfig = DEFAULT_CONFIG,
            policy=None, scale: float = 1.0, seed: int = 0,
            **overrides) -> RunResult:
        p = self.params(scale, **overrides)
        nx, ny, nz, iters = p["nx"], p["ny"], p["nz"], p["iters"]
        n = nx * ny * nz
        ctx = make_context(mode, config, policy, seed)
        aff = mode.affinity_aware
        # z-plane stride is the long-distance neighbor: optimize for it
        t_in = ctx.alloc(4, n, "tIn", x=nx * ny if aff else 0)
        power = ctx.alloc(4, n, "power", align_to=t_in if aff else None)
        t_out = ctx.alloc(4, n, "tOut", align_to=t_in if aff else None)
        here = AffineIndex(0)
        offsets = [0, -1, 1, -nx, nx, -nx * ny, nx * ny]
        ins = [(t_in, AffineIndex(off)) for off in offsets]
        ins.append((power, here))
        cores = ctx.cores_for(n)
        ctx.executor.affine_kernel(cores, ins, out=(t_out, here),
                                   ops_per_elem=9.0, repeat=iters)
        # functional 3D diffusion
        rng = np.random.default_rng(seed)
        g = rng.random((nz, ny, nx), dtype=np.float32)
        for _ in range(iters):
            acc = g.copy()
            for axis in range(3):
                acc = acc + np.roll(g, 1, axis=axis) + np.roll(g, -1, axis=axis)
            g = acc / 7.0
        return ctx.finish(f"hotspot3D/{mode.value}", value=g)
