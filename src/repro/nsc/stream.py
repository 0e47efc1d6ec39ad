"""Stream descriptors and the stream dependence graph (paper Fig 2).

A *stream* is the long-term access pattern of one memory reference in a
loop nest: affine (``A[i]``), indirect (``A[B[i]]``), pointer-chasing
(``p = p->next``), an atomic read-modify-write, or a reduction.  Streams
form a dependence graph whose edges carry address, value, or predicate
dependences — e.g. in push-BFS (Fig 2c) the CAS stream ``sx`` predicates
the queue-append streams ``st``/``sq``.

These descriptors are *declarative*: workloads build a graph per kernel,
the engine uses it to decide offloading (:func:`repro.nsc.engine.decide_offload`),
and tests/examples use it to describe kernels.  The executor does the
actual accounting.

:class:`AffineIndex` is the operand form of an affine stream that the
executor consumes directly: an offset instead of a per-element index
array.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.api import ArrayHandle

__all__ = ["StreamKind", "DepKind", "StreamDef", "StreamDep", "StreamGraph",
           "AffineIndex"]


@dataclass(frozen=True)
class AffineIndex:
    """Affine operand descriptor: iteration ``i`` touches element
    ``clip(i + offset, 0, num_elem - 1)`` of its array.

    Stands in for the index array of an affine stream in
    :meth:`repro.nsc.executor.StreamExecutor.affine_kernel`, which then
    finds the stream's line runs in closed form instead of walking
    per-element addresses.  The clamp is the border handling of the
    stencils (a row above the first row reads the first row).

    Raises:
        TypeError: ``offset`` is not an integer.
    """

    offset: int = 0

    def __post_init__(self):
        try:
            if isinstance(self.offset, bool):
                raise TypeError
            offset = operator.index(self.offset)
        except TypeError:
            raise TypeError("AffineIndex offset must be an integer, got "
                            f"{type(self.offset).__name__}") from None
        object.__setattr__(self, "offset", offset)

    def elements(self, iterations: np.ndarray, num_elem: int) -> np.ndarray:
        """Element index touched by each of ``iterations`` in a
        ``num_elem``-element array."""
        return np.clip(iterations + self.offset, 0, num_elem - 1)

    def expand(self, n: int, num_elem: int) -> np.ndarray:
        """The element-index array this descriptor stands for over an
        ``n``-iteration trace."""
        return self.elements(np.arange(n, dtype=np.int64), num_elem)


class StreamKind(enum.Enum):
    AFFINE_LOAD = "affine_load"
    AFFINE_STORE = "affine_store"
    INDIRECT_LOAD = "indirect_load"
    INDIRECT_STORE = "indirect_store"
    ATOMIC = "atomic"
    POINTER_CHASE = "pointer_chase"
    REDUCE = "reduce"


class DepKind(enum.Enum):
    ADDRESS = "address"      # consumer's address comes from producer's value
    VALUE = "value"          # consumer's computation uses producer's value
    PREDICATE = "predicate"  # consumer executes only if producer's value says so


@dataclass
class StreamDef:
    """One stream in a kernel.

    Attributes:
        name: short id (``sa``, ``sb`` ... as in Fig 2).
        kind: access-pattern class.
        handle: the array the stream walks (None for pure pointer chases).
        length: trip count (elements the stream will touch).
        elem_bytes: bytes per element access.
        reuse: expected reuses per element in private caches — high-reuse
            short streams stay at the core (paper §2.2).
        ops_per_elem: compute ops associated with the stream's element.
    """

    name: str
    kind: StreamKind
    handle: Optional[ArrayHandle] = None
    length: int = 0
    elem_bytes: int = 4
    reuse: float = 0.0
    ops_per_elem: float = 1.0


@dataclass(frozen=True)
class StreamDep:
    src: str
    dst: str
    kind: DepKind


class StreamGraph:
    """Stream dependence graph for one offloadable loop."""

    def __init__(self):
        self._streams: Dict[str, StreamDef] = {}
        self._deps: List[StreamDep] = []

    def add(self, stream: StreamDef) -> StreamDef:
        if stream.name in self._streams:
            raise ValueError(f"duplicate stream {stream.name!r}")
        self._streams[stream.name] = stream
        return stream

    def depend(self, src: str, dst: str, kind: DepKind) -> None:
        if src not in self._streams or dst not in self._streams:
            raise KeyError(f"unknown stream in dependence {src}->{dst}")
        if src == dst:
            raise ValueError("self-dependence is not allowed")
        self._deps.append(StreamDep(src, dst, kind))

    @property
    def streams(self) -> List[StreamDef]:
        return list(self._streams.values())

    @property
    def deps(self) -> List[StreamDep]:
        return list(self._deps)

    def stream(self, name: str) -> StreamDef:
        return self._streams[name]

    def topo_order(self) -> List[StreamDef]:
        """Streams in dependence order; raises on cycles (other than the
        implicit self-recurrence of pointer chasing, which is not an edge)."""
        indeg = {n: 0 for n in self._streams}
        for d in self._deps:
            indeg[d.dst] += 1
        ready = [n for n, k in indeg.items() if k == 0]
        order: List[StreamDef] = []
        while ready:
            n = ready.pop()
            order.append(self._streams[n])
            for d in self._deps:
                if d.src == n:
                    indeg[d.dst] -= 1
                    if indeg[d.dst] == 0:
                        ready.append(d.dst)
        if len(order) != len(self._streams):
            raise ValueError("stream dependence graph has a cycle")
        return order
