"""Graph workloads: PageRank (push/pull), BFS (push/pull/switch), SSSP.

All run on the Table 3 Kronecker input (128k vertices, 4M edges,
A/B/C = 0.57/0.19/0.19; sssp adds weights in [1, 255]) unless a graph is
passed in.  Under ``AFF_ALLOC`` the vertex-property arrays are
partitioned across banks, the edge structure is the co-designed Linked
CSR placed near the pointed-to vertices (paper §5.3), and BFS/SSSP use
the spatially distributed work queue (Fig 9); the other modes use the
original CSR arrays and a global queue, exactly as the paper's
methodology (§6) prescribes.

Every kernel also computes its functional answer (ranks, parents,
distances) so tests can check the traced run against ground truth.
On the default graph, the answers of PageRank and SSSP (with SSSP's
frontier walk) depend on the scale, seed and iteration limits only, so
they are computed once per parameter set through the artifact cache
(:func:`repro.cache.cached_arrays`); every mode replays the same walk
through its own placement.  A caller-supplied ``graph=`` has no cache
key and calls the same functions directly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cache import array_ok, cached_arrays, cached_graph
from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core.api import AddressView, ArrayHandle
from repro.datastructs.dist_queue import GlobalQueue, SpatialQueue
from repro.datastructs.linked_csr import LinkedCSR
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import kronecker
from repro.nsc.engine import EngineMode
from repro.nsc.stream import AffineIndex
from repro.perf.model import RunResult
from repro.workloads.base import RunContext, Workload, make_context, register

__all__ = ["GraphSetup", "PageRankPush", "PageRankPull", "BfsPush", "BfsPull",
           "BfsSwitch", "Sssp", "default_graph", "bfs_iteration_stats"]


def default_graph(scale: float = 1.0, seed: int = 0, weighted: bool = False,
                  symmetrize: bool = False) -> CSRGraph:
    """Table 3 input: Kronecker, 128k vertices, 4M edges.

    The symmetrized variant is cached as its own artifact — the
    edge-list re-sort costs as much as generation at large scales.
    """
    kscale = max(10, 17 + int(round(math.log2(scale))) if scale != 1.0 else 17)

    def build() -> CSRGraph:
        g = kronecker(kscale, 32, seed=seed,
                      weights_range=(1, 255) if weighted else None)
        if symmetrize:
            g = CSRGraph.from_edge_list(g.num_vertices, g.sources(), g.edges,
                                        g.weights, symmetrize=True)
        return g

    if not symmetrize:
        return build()  # kronecker() itself is cached
    return cached_graph("default_graph_sym", build,
                        kscale=kscale, seed=seed, weighted=weighted,
                        symmetrize=symmetrize)


class GraphSetup:
    """Arrays + edge structure for one graph run.

    ``main_prop`` is the vertex property indirect accesses update/read
    (ranks' accumulator, BFS parents, SSSP distances); the Linked CSR
    nodes are placed near *its* entries.
    """

    def __init__(self, ctx: RunContext, graph: CSRGraph,
                 prop_names: List[str], main_prop: str,
                 weighted: bool = False, edge_layout=None,
                 use_linked: bool = True, node_bytes: int = 64):
        """``edge_layout`` (non-affinity modes only) overrides where the
        CSR edge array lives — the Fig 6 limit study:
        ``("chunk", bytes)`` remaps chunks near their destinations,
        ``("ideal",)`` stores every edge on its destination's bank.

        ``use_linked=False`` keeps the original CSR arrays even under
        affinity allocation (the data-structure co-design ablation);
        ``node_bytes`` sets the Linked CSR node size (default one cache
        line, paper §5.3)."""
        self.ctx = ctx
        self.graph = graph
        self.weighted = weighted
        aff = ctx.mode.affinity_aware
        v = graph.num_vertices
        self.props: Dict[str, ArrayHandle] = {}
        first: Optional[ArrayHandle] = None
        for name in prop_names:
            if first is None:
                h = ctx.alloc(8, v, name, partition=aff)
                first = h
            else:
                h = ctx.alloc(8, v, name, align_to=first if aff else None)
            self.props[name] = h
        self.main = self.props[main_prop]

        self.linked: Optional[LinkedCSR] = None
        self.index_h: Optional[ArrayHandle] = None
        self.edges_h: Optional[ArrayHandle] = None
        edge_bytes = 8 if weighted else 4
        if aff and use_linked:
            self.linked = LinkedCSR.build(ctx.machine, graph,
                                          allocator=ctx.allocator,
                                          target=self.main,
                                          node_bytes=node_bytes,
                                          edge_bytes=edge_bytes)
            self._edge_view = self.linked.edge_view()
        else:
            self.index_h = ctx.alloc(8, v + 1, "csr-index")
            self.edges_h = ctx.alloc(edge_bytes, max(graph.num_edges, 1),
                                     "csr-edges")
            self._edge_view = self.edges_h
            if edge_layout is not None and graph.num_edges:
                from repro.graphs.partition import (chunked_edge_layout,
                                                    ideal_edge_layout)
                dst_banks = self.main.banks(graph.edges.astype(np.int64))
                if edge_layout[0] == "chunk":
                    view, _info = chunked_edge_layout(ctx.machine, dst_banks,
                                                      edge_layout[1])
                    self._edge_view = view
                elif edge_layout[0] == "ideal":
                    self._edge_view = ideal_edge_layout(ctx.machine, dst_banks)
                else:
                    raise ValueError(f"unknown edge layout {edge_layout!r}")

    # ------------------------------------------------------------------
    def prop(self, name: str) -> ArrayHandle:
        return self.props[name]

    def edge_base(self) -> AddressView:
        """Where each edge's bits live (executor ``base`` stream)."""
        return self._edge_view

    def scan_edges(self, vertices: np.ndarray, repeat: float = 1.0
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Record the edge-structure read for a frontier scan and return
        (flat edge indices, per-edge owner cores, destination vertices).
        """
        ctx, g = self.ctx, self.graph
        vertices = np.asarray(vertices, dtype=np.int64)
        edge_idx, counts = g.edge_slices(vertices)
        vcores = ctx.cores_of_positions(np.arange(vertices.size), vertices.size)
        ecores = np.repeat(vcores, counts)
        if self.linked is not None:
            node_vaddrs, chain_ids = self.linked.chase_trace(vertices)
            chain_cores = self.linked.chain_owner_cores(
                vertices, ctx.machine.num_cores)
            ctx.executor.pointer_chase(node_vaddrs, chain_ids, chain_cores,
                                       ops_per_node=1.0, repeat=repeat)
        else:
            # index lookups + sequential edge-array read
            ctx.executor.affine_kernel(vcores, [(self.index_h, vertices)],
                                       ops_per_elem=1.0, repeat=repeat)
            if edge_idx.size:
                ctx.executor.affine_kernel(ecores, [(self.edges_h, edge_idx)],
                                           ops_per_elem=0.5, repeat=repeat)
        dsts = g.edges[edge_idx].astype(np.int64)
        return edge_idx, ecores, dsts


# ----------------------------------------------------------------------
# PageRank
# ----------------------------------------------------------------------
def _pagerank_functional(g: CSRGraph, iters: int, damping: float = 0.85
                         ) -> np.ndarray:
    v = g.num_vertices
    deg = np.maximum(g.out_degrees(), 1)
    rank = np.full(v, 1.0 / v)
    src = g.sources().astype(np.int64)
    for _ in range(iters):
        contrib = rank / deg
        nxt = np.zeros(v)
        np.add.at(nxt, g.edges.astype(np.int64), contrib[src])
        rank = (1 - damping) / v + damping * nxt
    return rank


def _pagerank(g: CSRGraph, graph: Optional[CSRGraph], scale: float,
              seed: int, iters: int) -> np.ndarray:
    """PageRank of ``g``: of a caller-supplied ``graph`` directly, of the
    default graph through the artifact cache."""
    if graph is not None:
        return _pagerank_functional(g, iters)
    return cached_arrays(
        "pagerank",
        lambda: {"rank": _pagerank_functional(default_graph(scale, seed),
                                              iters)},
        names=("rank",),
        # ranks are positive and sum to at most 1
        check=lambda a: array_ok(a["rank"], np.float64, (g.num_vertices,),
                                 0.0, 1.0),
        scale=scale, seed=seed, iters=iters)["rank"]


@register
class PageRankPush(Workload):
    """Push-based PageRank: atomic adds to out-neighbors (Fig 2 style)."""

    name = "pr_push"
    layout_kind = "Linked CSR"
    SCALED_PARAMS = ()

    def default_params(self) -> Dict:
        return {"iters": 8}

    def run(self, mode: EngineMode, config: SystemConfig = DEFAULT_CONFIG,
            policy=None, scale: float = 1.0, seed: int = 0,
            graph: Optional[CSRGraph] = None, **overrides) -> RunResult:
        p = self.params(scale, **overrides)
        iters = p["iters"]
        g = graph if graph is not None else default_graph(scale, seed)
        ctx = make_context(mode, config, policy, seed)
        s = GraphSetup(ctx, g, ["next", "rank", "contrib"], "next",
                       edge_layout=p.get("edge_layout"),
                       use_linked=p.get("use_linked", True),
                       node_bytes=p.get("node_bytes", 64))
        all_v = np.arange(g.num_vertices, dtype=np.int64)
        vcores = ctx.cores_for(g.num_vertices)
        here = AffineIndex(0)
        # contrib[u] = rank[u] / deg[u]
        ctx.executor.affine_kernel(vcores, [(s.prop("rank"), here)],
                                   out=(s.prop("contrib"), here),
                                   ops_per_elem=2.0, repeat=iters)
        _, ecores, dsts = s.scan_edges(all_v, repeat=iters)
        edge_idx = np.arange(g.num_edges, dtype=np.int64)
        ctx.executor.indirect_atomic(ecores, (s.edge_base(), edge_idx),
                                     (s.prop("next"), dsts),
                                     ops_per_elem=1.0, repeat=iters)
        # rank = f(next); reset next
        ctx.executor.affine_kernel(vcores, [(s.prop("next"), here)],
                                   out=(s.prop("rank"), here),
                                   ops_per_elem=3.0, repeat=iters)
        value = _pagerank(g, graph, scale, seed, iters)
        return ctx.finish(f"pr_push/{mode.value}", reuse_fraction=0.8,
                          value=value)


@register
class PageRankPull(Workload):
    """Pull-based PageRank: gather contributions from in-neighbors."""

    name = "pr_pull"
    layout_kind = "Linked CSR"

    def default_params(self) -> Dict:
        return {"iters": 8}

    def run(self, mode: EngineMode, config: SystemConfig = DEFAULT_CONFIG,
            policy=None, scale: float = 1.0, seed: int = 0,
            graph: Optional[CSRGraph] = None, **overrides) -> RunResult:
        p = self.params(scale, **overrides)
        iters = p["iters"]
        g = graph if graph is not None else default_graph(scale, seed)
        gt = g.transpose()
        ctx = make_context(mode, config, policy, seed)
        # pull reads contrib[in-neighbor]: edges placed near contrib
        s = GraphSetup(ctx, gt, ["contrib", "rank"], "contrib",
                       edge_layout=p.get("edge_layout"),
                       use_linked=p.get("use_linked", True),
                       node_bytes=p.get("node_bytes", 64))
        all_v = np.arange(gt.num_vertices, dtype=np.int64)
        vcores = ctx.cores_for(gt.num_vertices)
        here = AffineIndex(0)
        ctx.executor.affine_kernel(vcores, [(s.prop("rank"), here)],
                                   out=(s.prop("contrib"), here),
                                   ops_per_elem=2.0, repeat=iters)
        _, ecores, srcs = s.scan_edges(all_v, repeat=iters)
        edge_idx = np.arange(gt.num_edges, dtype=np.int64)
        ctx.executor.indirect_gather(ecores, (s.edge_base(), edge_idx),
                                     (s.prop("contrib"), srcs),
                                     ops_per_elem=1.0, repeat=iters)
        ctx.executor.affine_kernel(vcores, [(s.prop("rank"), here)],
                                   out=(s.prop("rank"), here),
                                   ops_per_elem=3.0, repeat=iters)
        value = _pagerank(g, graph, scale, seed, iters)
        return ctx.finish(f"pr_pull/{mode.value}", reuse_fraction=0.8,
                          value=value)


# ----------------------------------------------------------------------
# BFS
# ----------------------------------------------------------------------
def _pull_scan(gt: CSRGraph, unvisited: np.ndarray, in_frontier: np.ndarray):
    """Bottom-up scan: each unvisited vertex reads in-neighbors until one
    is in the frontier.  Returns (scanned flat edge indices, per-vertex
    scan counts, found-parent per vertex or -1)."""
    edge_idx, counts = gt.edge_slices(unvisited)
    srcs = gt.edges[edge_idx].astype(np.int64)
    hit = in_frontier[srcs]
    # first hit position within each segment
    seg_starts = np.cumsum(counts) - counts
    within = np.arange(edge_idx.size, dtype=np.int64) - np.repeat(seg_starts,
                                                                  counts)
    big = np.int64(1 << 60)
    hit_pos = np.where(hit, within, big)
    first = np.full(unvisited.size, big, dtype=np.int64)
    nonempty = counts > 0
    if edge_idx.size:
        mins = np.minimum.reduceat(hit_pos, np.minimum(seg_starts,
                                                       edge_idx.size - 1))
        first[nonempty] = mins[nonempty]
    found = first < big
    scan_len = np.where(found, first + 1, counts)
    keep = within < np.repeat(scan_len, counts)
    parents = np.full(unvisited.size, -1, dtype=np.int64)
    if edge_idx.size:
        last_scanned = seg_starts + np.maximum(scan_len - 1, 0)
        parents[found] = gt.edges[edge_idx[np.minimum(
            last_scanned, edge_idx.size - 1)]][found]
    return edge_idx[keep], scan_len, parents


def bfs_iteration_stats(g: CSRGraph,
                        source: Optional[int] = None) -> List[Dict[str, float]]:
    """Per-iteration visited/active/scout-edge ratios (paper Fig 17)."""
    v = g.num_vertices
    if source is None:
        source = int(np.argmax(g.out_degrees()))
    parent = np.full(v, -1, dtype=np.int64)
    parent[source] = source
    frontier = np.array([source], dtype=np.int64)
    visited = 1
    out: List[Dict[str, float]] = []
    deg = g.out_degrees()
    total_e = max(g.num_edges, 1)
    while frontier.size:
        _, counts = g.edge_slices(frontier)
        scout = int(deg[frontier].sum())
        edge_idx, _ = g.edge_slices(frontier)
        dsts = g.edges[edge_idx].astype(np.int64)
        new = np.unique(dsts[parent[dsts] == -1])
        parent[new] = 0  # membership only; exact parents don't matter here
        visited += new.size
        out.append({
            "active": frontier.size / v,
            "visited": visited / v,
            "scout_edges": scout / total_e,
        })
        frontier = new
    return out


class _BfsBase(Workload):
    layout_kind = "Linked CSR"
    variant = "push"

    def default_params(self) -> Dict:
        # source None = the max-degree vertex (guaranteed inside the giant
        # component of a Kronecker graph)
        return {"source": None, "max_iters": 64}

    # switch thresholds (paper §7.2)
    NDC_PUSH_TO_PULL_VISITED = 0.40
    NDC_PUSH_TO_PULL_SCOUT = 0.06
    NDC_PULL_TO_PUSH_AWAKE = 0.25
    GAP_ALPHA = 14.0   # push->pull when scout edges > |E| / alpha
    GAP_BETA = 24.0    # pull->push when frontier < |V| / beta

    def _decide_direction(self, mode: EngineMode, current: str,
                          visited_ratio: float, scout_ratio: float,
                          awake_ratio: float, frontier_ratio: float) -> str:
        if self.variant != "switch":
            return self.variant
        if mode.offloads:
            # NDC favors pushing (cheap remote atomics): the paper's
            # extended policy switches to pull only when most vertices are
            # visited AND the scout edges predict many failed CASes.
            if current == "push":
                if (visited_ratio > self.NDC_PUSH_TO_PULL_VISITED
                        and scout_ratio > self.NDC_PUSH_TO_PULL_SCOUT):
                    return "pull"
                return "push"
            return "push" if awake_ratio < self.NDC_PULL_TO_PUSH_AWAKE else "pull"
        # In-core: GAP's direction-optimizing heuristic
        if current == "push":
            return "pull" if scout_ratio > 1.0 / self.GAP_ALPHA else "push"
        return "push" if frontier_ratio < 1.0 / self.GAP_BETA else "pull"

    def run(self, mode: EngineMode, config: SystemConfig = DEFAULT_CONFIG,
            policy=None, scale: float = 1.0, seed: int = 0,
            graph: Optional[CSRGraph] = None, **overrides) -> RunResult:
        p = self.params(scale, **overrides)
        g = graph if graph is not None else default_graph(scale, seed,
                                                          symmetrize=True)
        ctx = make_context(mode, config, policy, seed)
        s = GraphSetup(ctx, g, ["parent"], "parent",
                       edge_layout=p.get("edge_layout"),
                       use_linked=p.get("use_linked", True),
                       node_bytes=p.get("node_bytes", 64))
        aff = mode.affinity_aware
        if aff and p.get("spatial_queue", True):
            # queue_delta deliberately mis-homes the queue storage by a
            # fixed bank distance (autoplace drift scenario; 0 = aligned).
            queue = SpatialQueue(ctx.machine, ctx.allocator, s.prop("parent"),
                                 bank_offset=p.get("queue_delta", 0))
        else:
            queue = GlobalQueue(ctx.machine, g.num_vertices)

        v = g.num_vertices
        parent = np.full(v, -1, dtype=np.int64)
        src = p["source"]
        if src is None:
            src = int(np.argmax(g.out_degrees()))
        parent[src] = src
        frontier = np.array([src], dtype=np.int64)
        visited = 1
        deg = g.out_degrees()
        direction = "push" if self.variant != "pull" else "pull"
        directions: List[str] = []
        it = 0
        while frontier.size and it < p["max_iters"]:
            scout_ratio = float(deg[frontier].sum()) / max(g.num_edges, 1)
            direction = self._decide_direction(
                mode, direction, visited / v, scout_ratio,
                (v - visited) / v, frontier.size / v)
            directions.append(direction)
            if direction == "push":
                frontier, parent, visited = self._push_iter(
                    ctx, s, queue, g, frontier, parent, visited)
            else:
                frontier, parent, visited = self._pull_iter(
                    ctx, s, g, frontier, parent, visited)
            ctx.end_epoch(f"iter{it}:{direction}")
            it += 1
        res = ctx.finish(f"{self.name}/{mode.value}", reuse_fraction=0.5,
                         value=parent)
        res.counters["bfs_iterations"] = it
        res.counters["bfs_visited"] = visited
        res.counters["directions"] = directions  # type: ignore[assignment]
        return res

    # ------------------------------------------------------------------
    def _push_iter(self, ctx, s: GraphSetup, queue, g: CSRGraph,
                   frontier, parent, visited):
        edge_idx, ecores, dsts = s.scan_edges(frontier)
        if edge_idx.size:
            ctx.executor.indirect_atomic(ecores, (s.edge_base(), edge_idx),
                                         (s.prop("parent"), dsts),
                                         ops_per_elem=1.0)
        unseen = parent[dsts] == -1
        srcs = np.repeat(frontier, g.edge_slices(frontier)[1])
        new, first_idx = np.unique(dsts[unseen], return_index=True)
        parent[new] = srcs[unseen][first_idx]
        if new.size:
            # CAS succeeded at the parent entries' banks -> push to queue
            src_banks = s.prop("parent").banks(new)
            tb, sb, _slots = queue.push_trace(new)
            pcores = ctx.cores_of_positions(np.arange(new.size), new.size)
            ctx.executor.queue_push(
                pcores, src_banks, tb, sb,
                tail_handle=getattr(queue, "tails", None),
                slot_handle=queue.storage)
        return new, parent, visited + new.size

    def _pull_iter(self, ctx, s: GraphSetup, g: CSRGraph,
                   frontier, parent, visited):
        v = g.num_vertices
        in_frontier = np.zeros(v, dtype=bool)
        in_frontier[frontier] = True
        unvisited = np.flatnonzero(parent == -1)
        scanned_idx, _scan_len, parents = _pull_scan(g, unvisited, in_frontier)
        if scanned_idx.size:
            ecores = ctx.cores_of_positions(
                np.arange(scanned_idx.size), scanned_idx.size)
            srcs = g.edges[scanned_idx].astype(np.int64)
            ctx.executor.indirect_gather(ecores, (s.edge_base(), scanned_idx),
                                         (s.prop("parent"), srcs),
                                         ops_per_elem=1.0)
        found = parents >= 0
        new = unvisited[found]
        parent[new] = parents[found]
        return new, parent, visited + new.size


@register
class BfsPush(_BfsBase):
    name = "bfs_push"
    variant = "push"


@register
class BfsPull(_BfsBase):
    name = "bfs_pull"
    variant = "pull"


@register
class BfsSwitch(_BfsBase):
    name = "bfs"
    variant = "switch"


# ----------------------------------------------------------------------
# SSSP
# ----------------------------------------------------------------------
@register
class Sssp(Workload):
    """Frontier Bellman-Ford with atomic-min relaxations (weights [1,255])."""

    name = "sssp"
    layout_kind = "Linked CSR"

    def default_params(self) -> Dict:
        return {"source": None, "max_iters": 24}

    def run(self, mode: EngineMode, config: SystemConfig = DEFAULT_CONFIG,
            policy=None, scale: float = 1.0, seed: int = 0,
            graph: Optional[CSRGraph] = None, **overrides) -> RunResult:
        p = self.params(scale, **overrides)
        g = graph if graph is not None else default_graph(scale, seed,
                                                          weighted=True)
        if g.weights is None:
            raise ValueError("sssp needs a weighted graph")
        ctx = make_context(mode, config, policy, seed)
        s = GraphSetup(ctx, g, ["dist"], "dist", weighted=True,
                       edge_layout=p.get("edge_layout"),
                       use_linked=p.get("use_linked", True),
                       node_bytes=p.get("node_bytes", 64))
        aff = mode.affinity_aware
        if aff and p.get("spatial_queue", True):
            queue = SpatialQueue(ctx.machine, ctx.allocator, s.prop("dist"),
                                 bank_offset=p.get("queue_delta", 0))
        else:
            queue = GlobalQueue(ctx.machine, g.num_vertices)

        src = p["source"]
        if src is None:
            src = int(np.argmax(g.out_degrees()))
        max_iters = p["max_iters"]
        if graph is not None:
            walk = _sssp_walk(g, src, max_iters)
        else:
            v = g.num_vertices

            def valid(a: Dict[str, np.ndarray]) -> bool:
                sizes = a["sizes"]
                return (array_ok(sizes, np.int64, None, 0, v + 1)
                        and sizes.size <= max_iters
                        and array_ok(a["frontiers"], np.int64,
                                     (int(sizes.sum()),), 0, v)
                        and array_ok(a["dist"], np.float64, (v,)))

            walk = cached_arrays(
                "sssp_walk",
                lambda: _sssp_walk(default_graph(scale, seed, weighted=True),
                                   src, max_iters),
                names=("frontiers", "sizes", "dist"), check=valid,
                scale=scale, seed=seed, source=src, max_iters=max_iters)
        sizes = walk["sizes"]
        ends = np.cumsum(sizes)
        frontier = np.array([src], dtype=np.int64)
        for it in range(sizes.size):
            edge_idx, ecores, dsts = s.scan_edges(frontier)
            if edge_idx.size:
                ctx.executor.indirect_atomic(
                    ecores, (s.edge_base(), edge_idx),
                    (s.prop("dist"), dsts), ops_per_elem=2.0)
            new = walk["frontiers"][ends[it] - sizes[it]:ends[it]]
            if new.size:
                src_banks = s.prop("dist").banks(new)
                tb, sb, _slots = queue.push_trace(new)
                pcores = ctx.cores_of_positions(np.arange(new.size), new.size)
                ctx.executor.queue_push(
                    pcores, src_banks, tb, sb,
                    tail_handle=getattr(queue, "tails", None),
                    slot_handle=queue.storage)
            frontier = new
            ctx.end_epoch(f"iter{it}")
        dist = walk["dist"]
        res = ctx.finish(f"sssp/{mode.value}", reuse_fraction=0.5, value=dist)
        res.counters["sssp_iterations"] = sizes.size
        return res


def _sssp_walk(g: CSRGraph, source: int, max_iters: int
               ) -> Dict[str, np.ndarray]:
    """SSSP's frontier Bellman-Ford from ``source``, placement-free.

    Returns each iteration's new frontier (``frontiers`` concatenated,
    ``sizes`` per iteration) and the final ``dist``; the run replays the
    frontiers through its own placement.
    """
    dist = np.full(g.num_vertices, np.inf)
    dist[source] = 0.0
    frontier = np.array([source], dtype=np.int64)
    news: List[np.ndarray] = []
    while frontier.size and len(news) < max_iters:
        edge_idx, counts = g.edge_slices(frontier)
        dsts = g.edges[edge_idx].astype(np.int64)
        srcs = np.repeat(frontier, counts)
        cand = dist[srcs] + g.weights[edge_idx]
        improved_mask = cand < dist[dsts]
        # apply relaxations (atomic-min semantics)
        np.minimum.at(dist, dsts, cand)
        frontier = np.unique(dsts[improved_mask])
        news.append(frontier)
    return {"frontiers": np.concatenate([np.empty(0, np.int64), *news]),
            "sizes": np.array([f.size for f in news], dtype=np.int64),
            "dist": dist}
