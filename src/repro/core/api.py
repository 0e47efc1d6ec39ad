"""Public allocation interface (paper Fig 8(a) / Fig 10).

``AffineArray`` is the affine specification struct::

    struct AffineArray {
      int   elem_size;  // Element size (byte).
      uint  num_elem;   // Number of elements.
      void* align_to;   // Pointer to the aligned affine array.
      int   align_p, align_q, align_x;  // Alignment parameters.
      bool  partition;  // Partition the array across banks.
    };

with the affinity relationship (Eq. 2)::

    B[i]  aligns to  A[(align_p / align_q) * i + align_x]

``ArrayHandle`` is what an allocation returns: it knows the array's base
virtual address and element *stride* (>= elem_size when the runtime pads
elements to reach a legal interleaving, paper §4.2 "mitigated by padding
the array"), and answers address/bank queries for element indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.diagnostics import LayoutError
from repro.machine import Machine

__all__ = ["AffineArray", "ArrayHandle", "AddressView", "alloc_plain_array"]


@dataclass(frozen=True)
class AffineArray:
    """Affine allocation spec (paper Fig 8(a)).

    Args:
        elem_size: bytes per element.
        num_elem: number of elements.
        align_to: handle of the already-allocated array to align with, or
            ``None``.
        align_p, align_q: rational index ratio — element ``i`` of this
            array aligns to element ``(p/q) * i + x`` of ``align_to``.
        align_x: index offset; with ``align_to is None`` a nonzero
            ``align_x`` requests *intra-array* affinity between elements
            ``i`` and ``i + align_x`` (paper Fig 8(c), e.g. rows of a 2D
            array).
        partition: force an interleaving that spreads the array evenly
            across all banks (paper Fig 9).
    """

    elem_size: int
    num_elem: int
    align_to: Optional["ArrayHandle"] = None
    align_p: int = 1
    align_q: int = 1
    align_x: int = 0
    partition: bool = False

    def __post_init__(self):
        if self.elem_size <= 0:
            raise LayoutError(f"elem_size must be positive, got {self.elem_size}")
        if self.num_elem <= 0:
            raise LayoutError(f"num_elem must be positive, got {self.num_elem}")
        if self.align_p < 1 or self.align_q < 1:
            raise LayoutError("align_p and align_q must be >= 1")
        if self.align_x < 0:
            raise LayoutError("align_x must be non-negative")
        if self.align_to is not None and self.partition:
            raise LayoutError("partition and align_to are mutually exclusive; "
                              "align to the partitioned array instead")
        if self.align_to is None and self.align_x and (self.align_p != 1 or self.align_q != 1):
            # Paper footnote 5: for intra-array affinity p = q = 1,
            # otherwise the alignment is no longer affine.
            raise LayoutError("intra-array affinity requires align_p == align_q == 1")

    @property
    def total_bytes(self) -> int:
        return self.elem_size * self.num_elem


def _checked_index(handle, idx) -> np.ndarray:
    """``idx`` as int64, or ``IndexError`` if any falls outside
    ``[0, handle.num_elem)``: a negative index never wraps."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= handle.num_elem):
        raise IndexError(f"index out of range for {handle.name or 'array'}"
                         f" of {handle.num_elem} elements")
    return idx


@dataclass
class ArrayHandle:
    """Addressing view of one allocated array.

    Data values are *not* stored here (workloads keep them in numpy
    arrays); the handle answers "where does element i live?" which is all
    the simulator needs.
    """

    machine: Machine
    vaddr: int
    elem_size: int
    num_elem: int
    stride: int
    name: str = ""
    layout: object = None  # AffineLayout when affinity-allocated

    def __post_init__(self):
        if self.stride < self.elem_size:
            raise ValueError("stride must be >= elem_size")

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Bytes of address space the array occupies (incl. padding)."""
        return (self.num_elem - 1) * self.stride + self.elem_size

    @property
    def end_vaddr(self) -> int:
        return self.vaddr + self.size_bytes

    # ------------------------------------------------------------------
    def addr_of(self, idx) -> np.ndarray:
        """Virtual address(es) of element index(es)."""
        return self.vaddr + _checked_index(self, idx) * self.stride

    def addr_of_one(self, idx: int) -> int:
        return int(self.addr_of(np.asarray([idx]))[0])

    def banks(self, idx) -> np.ndarray:
        """Owning L3 bank of element index(es) — full HW mapping path."""
        return self.machine.resolve(self, idx)[0]

    def bank_of_one(self, idx: int) -> int:
        return int(self.banks(np.asarray([idx]))[0])

    def all_banks(self) -> np.ndarray:
        return self.banks(np.arange(self.num_elem))

    def lines_of(self, idx) -> np.ndarray:
        """Cache-line ids (virtual) of element index(es)."""
        line = self.machine.config.cache.line_bytes
        return self.addr_of(idx) // line

    def __repr__(self) -> str:
        return (f"ArrayHandle({self.name or '?'}, n={self.num_elem}, "
                f"elem={self.elem_size}, stride={self.stride}, "
                f"vaddr={self.vaddr:#x})")


class AddressView:
    """Handle-like view over explicit per-element addresses.

    Used where elements do not live at a fixed stride — e.g. the edges of
    a Linked CSR graph, whose per-edge address is "its node's slot plus an
    offset".  Quacks like :class:`ArrayHandle` for the executor
    (``addr_of`` / ``banks`` / ``elem_size``).
    """

    def __init__(self, machine: Machine, addrs: np.ndarray, elem_size: int,
                 name: str = ""):
        self.machine = machine
        self._addrs = np.asarray(addrs, dtype=np.int64)
        self.elem_size = elem_size
        self.name = name

    @property
    def num_elem(self) -> int:
        return self._addrs.size

    @property
    def addrs(self) -> np.ndarray:
        """The per-element virtual addresses."""
        return self._addrs

    def addr_of(self, idx) -> np.ndarray:
        """Virtual address(es) of element index(es)."""
        return self._addrs[_checked_index(self, idx)]

    def banks(self, idx) -> np.ndarray:
        return self.machine.resolve(self, idx)[0]

    def all_banks(self) -> np.ndarray:
        return self.machine.resolve(self._addrs)[0]

    def __repr__(self) -> str:
        return f"AddressView({self.name or '?'}, n={self.num_elem})"


def alloc_plain_array(machine: Machine, elem_size: int, num_elem: int,
                      name: str = "", align: int = 64) -> ArrayHandle:
    """Baseline ``malloc`` of a dense array (no affinity information).

    This is what In-Core and Near-L3 configurations use: the array lands
    on the conventional heap and inherits whatever banks the default
    static-NUCA hash gives it.
    """
    vaddr = machine.malloc(elem_size * num_elem, align=align)
    return ArrayHandle(machine, vaddr, elem_size, num_elem, stride=elem_size,
                       name=name)
