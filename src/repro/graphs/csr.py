"""Compressed sparse row graphs (paper Fig 11, "Orig. CSR").

Vertices ``0..V-1``; ``index[v] : index[v+1]`` delimits vertex ``v``'s
outgoing edges in ``edges`` (sorted by source, which is the "common
practice" the paper's §7.2 degree-sensitivity study relies on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["CSRGraph"]


@dataclass
class CSRGraph:
    """Immutable CSR adjacency."""

    index: np.ndarray            # int64, len V+1
    edges: np.ndarray            # int32, len E (destination vertex ids)
    weights: Optional[np.ndarray] = None  # optional per-edge weights

    def __post_init__(self):
        self.index = np.asarray(self.index, dtype=np.int64)
        self.edges = np.asarray(self.edges, dtype=np.int32)
        if self.index.ndim != 1 or self.index.size < 1:
            raise ValueError("index must be a 1D array of length V+1")
        if self.index[0] != 0 or self.index[-1] != self.edges.size:
            raise ValueError("index must start at 0 and end at |E|")
        if np.any(np.diff(self.index) < 0):
            raise ValueError("index must be non-decreasing")
        if self.edges.size and (self.edges.min() < 0
                                or self.edges.max() >= self.num_vertices):
            raise ValueError("edge endpoint out of range")
        if self.weights is not None and self.weights.size != self.edges.size:
            raise ValueError("weights must match edges")

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.index.size - 1

    @property
    def num_edges(self) -> int:
        return self.edges.size

    @property
    def avg_degree(self) -> float:
        return self.num_edges / max(self.num_vertices, 1)

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.index)

    def sources(self) -> np.ndarray:
        """Source vertex of every edge (len E)."""
        return np.repeat(np.arange(self.num_vertices, dtype=np.int32),
                         self.out_degrees())

    def neighbors(self, v: int) -> np.ndarray:
        return self.edges[self.index[v]:self.index[v + 1]]

    def edge_slices(self, vertices: np.ndarray):
        """(flat edge indices, per-vertex counts) for a set of vertices.

        The flat indices enumerate every outgoing edge of every vertex in
        ``vertices``, in order — the access trace of a frontier scan.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        starts = self.index[vertices]
        counts = self.index[vertices + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), counts
        # ranges [starts[i], starts[i]+counts[i]) concatenated
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts)
        return np.repeat(starts, counts) + within, counts

    # ------------------------------------------------------------------
    @classmethod
    def from_edge_list(cls, num_vertices: int, src: np.ndarray, dst: np.ndarray,
                       weights: Optional[np.ndarray] = None,
                       remove_self_loops: bool = True,
                       symmetrize: bool = False) -> "CSRGraph":
        """Build CSR from an edge list, sorting by source."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if symmetrize:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            if weights is not None:
                weights = np.concatenate([weights, weights])
        if remove_self_loops:
            keep = src != dst
            src, dst = src[keep], dst[keep]
            if weights is not None:
                weights = weights[keep]
        # Sort by (src, dst): adjacency lists sorted by neighbor id is the
        # "common practice" the paper's degree-sensitivity study (§7.2)
        # relies on — consecutive edges of a vertex point to nearby ids.
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        if weights is not None:
            weights = np.asarray(weights)[order]
        index = np.zeros(num_vertices + 1, dtype=np.int64)
        np.add.at(index, src + 1, 1)
        np.cumsum(index, out=index)
        return cls(index, dst.astype(np.int32), weights)

    def transpose(self) -> "CSRGraph":
        """In-edge CSR (for pull-style kernels)."""
        return CSRGraph.from_edge_list(self.num_vertices, self.edges,
                                       self.sources(), self.weights,
                                       remove_self_loops=False)
