"""Declarative layout plans — the constraint linter's input.

A :class:`LayoutPlan` is the *static* description of what a workload will
ask the allocator for: a sequence of :class:`PlannedArray` specs (with
inter-array alignment expressed by *name*, since no handles exist before
allocation) plus optional bulk irregular demand.  Workloads expose one
via :meth:`repro.workloads.base.Workload.layout_plan`, and the linter
resolves it with the same pure solver (`solve_affine_layout`) the runtime
uses — so a lint verdict is exactly the layout the runtime would pick,
without allocating a byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["PlannedArray", "IrregularDemand", "LayoutPlan", "ResolvedTarget"]


@dataclass(frozen=True)
class PlannedArray:
    """One affine allocation a workload intends to make.

    Mirrors :class:`~repro.core.api.AffineArray`, with ``align_to`` given
    as the *name* of an earlier planned array instead of a handle.
    """

    name: str
    elem_size: int
    num_elem: int
    align_to: Optional[str] = None
    align_p: int = 1
    align_q: int = 1
    align_x: int = 0
    partition: bool = False

    @property
    def total_bytes(self) -> int:
        return self.elem_size * self.num_elem


@dataclass(frozen=True)
class IrregularDemand:
    """Bulk irregular allocation demand (e.g. one graph's nodes)."""

    size: int
    count: int
    label: str = "irregular"


@dataclass
class LayoutPlan:
    """Everything a workload will allocate, statically declared."""

    name: str
    arrays: List[PlannedArray] = field(default_factory=list)
    irregular: List[IrregularDemand] = field(default_factory=list)

    def array(self, name: str, elem_size: int, num_elem: int,
              **kwargs) -> PlannedArray:
        """Append a planned array (builder-style convenience)."""
        pa = PlannedArray(name, elem_size, num_elem, **kwargs)
        self.arrays.append(pa)
        return pa

    def demand(self, size: int, count: int,
               label: str = "irregular") -> IrregularDemand:
        dem = IrregularDemand(size, count, label)
        self.irregular.append(dem)
        return dem


@dataclass
class ResolvedTarget:
    """Stand-in for an allocated handle during static resolution.

    ``solve_affine_layout`` only reads ``.layout`` and ``.stride`` off an
    alignment target, so this is all the linter needs to chain layouts
    without touching the allocator.
    """

    name: str
    layout: object  # AffineLayout (kept untyped to avoid a core import)
    stride: int
