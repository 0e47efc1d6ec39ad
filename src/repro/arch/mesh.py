"""Mesh topology and X-Y (dimension-ordered) routing.

Tiles are numbered row-major: tile ``t`` sits at column ``t % width`` and
row ``t // width``.  Each tile hosts one core and one L3 bank, so "bank id"
and "tile id" share the same coordinate space (paper Fig 1(d)).

All hop computations are vectorized over numpy arrays because the trace
executor feeds millions of (src, dst) pairs through them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

import numpy as np

from repro.analysis.diagnostics import TopologyError

__all__ = ["Mesh", "RoutingIncidence"]


@dataclass(frozen=True)
class RoutingIncidence:
    """Sparse pair->channel incidence of one mesh geometry (CSR-style).

    X-Y routing is deterministic, so the set of directed links a
    (src, dst) pair traverses is a pure function of the geometry.  This
    structure precomputes it for *all* ``num_tiles**2`` pairs once, so
    expanding per-pair flit counts onto channels becomes a single
    weighted scatter-add (see :func:`repro.arch.noc.pair_channel_loads`)
    instead of a per-pair Python loop.

    Arrays (all int64, pair ids ascending = ``src * n + dst``):

    * ``link_ids`` — concatenated route links of every pair, pair-major;
      ``route_counts`` plays the role of CSR row lengths (diagonal pairs
      contribute zero entries).
    * ``route_counts`` — hops per pair (length ``n**2``); doubles as the
      repeat count that expands a pair-weight vector onto ``link_ids``.
    * ``pair_src`` / ``pair_dst`` — src and dst tile per pair id, for
      injection/ejection port accounting.
    * ``diagonal`` — pair ids with ``src == dst`` (no NoC traversal).
    """

    link_ids: np.ndarray
    route_counts: np.ndarray
    pair_src: np.ndarray
    pair_dst: np.ndarray
    diagonal: np.ndarray


#: Process-wide incidence memo, keyed by the full topology — geometry
#: plus the (usually empty) set of dead links.  Pristine meshes are
#: immutable value objects, so every Mesh/TrafficAccountant of the same
#: geometry (including the per-phase loads of every run in a sweep)
#: shares one structure; a degraded mesh keys a separate entry, so link
#: removal can never serve stale routes (the PR 3 memo had no
#: invalidation hook at all).
_INCIDENCE_CACHE: Dict[Tuple[int, int, FrozenSet[int]], RoutingIncidence] = {}

#: Process-wide all-pairs hop tables, one per topology, keyed like
#: :data:`_INCIDENCE_CACHE`.  Every mesh of one geometry, and every run
#: under one fault plan's dead links, reads the same table; the tables
#: are read-only, so sharing one can never leak a write between meshes.
_DISTANCE_CACHE: Dict[Tuple[int, int, FrozenSet[int]], np.ndarray] = {}


class Mesh:
    """An ``width x height`` 2D mesh with X-Y routing.

    X-Y routing moves a message fully along the X dimension first, then
    along Y.  It is deterministic, which lets us attribute every message to
    an exact set of directed links and expose bisection bottlenecks
    (paper Fig 3(b)).
    """

    def __init__(self, width: int, height: int):
        if width <= 0 or height <= 0:
            raise ValueError(f"mesh dimensions must be positive, got {width}x{height}")
        self.width = width
        self.height = height
        self.num_tiles = width * height
        # Directed links: (x-links) + (y-links). A link id encodes
        # (from_tile, direction); see _link_id below.
        self.num_links = self.num_tiles * 4  # E, W, N, S per tile (edge links unused)
        # Degraded-topology state (chaos fault injection).  A pristine
        # mesh has an empty dead set and epoch 0 and takes exactly the
        # original Manhattan / X-Y code paths, bit for bit.
        self._dead_links: FrozenSet[int] = frozenset()
        self.topology_epoch = 0
        self._route_memo: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Topology (degraded routing around dead links)
    # ------------------------------------------------------------------
    @property
    def dead_links(self) -> FrozenSet[int]:
        return self._dead_links

    @property
    def topology_key(self) -> Tuple[int, int, FrozenSet[int]]:
        """Hashable key identifying this exact topology (geometry + dead
        links) — the cache key for every process-wide routing memo."""
        return (self.width, self.height, self._dead_links)

    def _neighbor(self, tile: int, direction: int) -> int:
        """Neighbor tile in ``direction``, or -1 at the mesh edge."""
        x, y = tile % self.width, tile // self.width
        if direction == self._EAST:
            return tile + 1 if x + 1 < self.width else -1
        if direction == self._WEST:
            return tile - 1 if x > 0 else -1
        if direction == self._NORTH:
            return tile - self.width if y > 0 else -1
        return tile + self.width if y + 1 < self.height else -1

    def undirected_interior_links(self) -> List[Tuple[int, int]]:
        """Every physical (bidirectional) link as an ``(a, b)`` tile pair
        with ``a < b``, in deterministic ascending order.  This is the
        sample space for link-failure fault generation."""
        pairs: List[Tuple[int, int]] = []
        for t in range(self.num_tiles):
            e = self._neighbor(t, self._EAST)
            if e >= 0:
                pairs.append((t, e))
            s = self._neighbor(t, self._SOUTH)
            if s >= 0:
                pairs.append((t, s))
        pairs.sort()
        return pairs

    def _directed_pair_links(self, a: int, b: int) -> Tuple[int, int]:
        """The two directed link ids joining adjacent tiles ``a`` and ``b``."""
        for direction in (self._EAST, self._WEST, self._NORTH, self._SOUTH):
            if self._neighbor(a, direction) == b:
                back = {self._EAST: self._WEST, self._WEST: self._EAST,
                        self._NORTH: self._SOUTH, self._SOUTH: self._NORTH}[direction]
                return self._link_id(a, direction), self._link_id(b, back)
        raise TopologyError(f"tiles {a} and {b} are not mesh neighbors")

    def remove_link_between(self, a: int, b: int) -> None:
        """Kill the bidirectional link between adjacent tiles ``a``, ``b``.

        Changes :attr:`topology_key`, which selects the incidence and hop
        table, and bumps :attr:`topology_epoch`, on which accountants
        refresh their channel loads and pair hops.
        Refuses removals that would disconnect the mesh — the degraded
        machine must still be able to route every pair.
        """
        fwd, rev = self._directed_pair_links(a, b)
        if fwd in self._dead_links:
            return  # already dead; idempotent
        candidate = self._dead_links | {fwd, rev}
        if not self._connected(candidate):
            raise TopologyError(
                f"removing link {a}<->{b} would disconnect the mesh")
        self._dead_links = candidate
        self.topology_epoch += 1
        self._route_memo.clear()

    def _connected(self, dead: FrozenSet[int]) -> bool:
        """True if every tile is reachable from tile 0 over live links.

        Links die in bidirectional pairs, so the live graph is symmetric
        and plain reachability equals strong connectivity.
        """
        seen = np.zeros(self.num_tiles, dtype=bool)
        seen[0] = True
        queue = deque([0])
        while queue:
            t = queue.popleft()
            for direction in (self._EAST, self._WEST, self._NORTH, self._SOUTH):
                nb = self._neighbor(t, direction)
                if nb < 0 or seen[nb] or self._link_id(t, direction) in dead:
                    continue
                seen[nb] = True
                queue.append(nb)
        return bool(seen.all())

    def _bfs_from(self, src: int) -> Tuple[np.ndarray, np.ndarray]:
        """BFS shortest-path tree from ``src`` over live links.

        Returns ``(dist, parent_link)`` arrays; ``parent_link[t]`` is the
        directed link taken *into* ``t`` on the tree path (-1 at src).
        Neighbor expansion order is fixed (E, W, N, S), so ties break the
        same way in every process — degraded routes are deterministic.
        """
        memo = self._route_memo.get(src)
        if memo is not None:
            return memo
        dist = np.full(self.num_tiles, -1, dtype=np.int64)
        parent_link = np.full(self.num_tiles, -1, dtype=np.int64)
        parent_tile = np.full(self.num_tiles, -1, dtype=np.int64)
        dist[src] = 0
        queue = deque([src])
        while queue:
            t = queue.popleft()
            for direction in (self._EAST, self._WEST, self._NORTH, self._SOUTH):
                nb = self._neighbor(t, direction)
                link = self._link_id(t, direction)
                if nb < 0 or dist[nb] >= 0 or link in self._dead_links:
                    continue
                dist[nb] = dist[t] + 1
                parent_link[nb] = link
                parent_tile[nb] = t
                queue.append(nb)
        self._route_memo[src] = (dist, np.stack([parent_link, parent_tile]))
        return self._route_memo[src]

    # ------------------------------------------------------------------
    # Coordinates
    # ------------------------------------------------------------------
    def coords(self, tile: "np.ndarray | int"):
        """Return (x, y) coordinates for tile id(s)."""
        tile = np.asarray(tile)
        return tile % self.width, tile // self.width

    def tile_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"coordinate ({x},{y}) outside {self.width}x{self.height} mesh")
        return y * self.width + x

    def validate_tiles(self, tiles: np.ndarray) -> None:
        tiles = np.asarray(tiles)
        if tiles.size and (tiles.min() < 0 or tiles.max() >= self.num_tiles):
            raise ValueError("tile id out of range")

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def hops(self, src, dst) -> np.ndarray:
        """Distance between tiles in link traversals (vectorized).

        Pristine mesh: Manhattan distance (route length equals Manhattan
        distance under X-Y routing).  With dead links: BFS distance over
        live links.  Both are one gather from :meth:`hops_table`.
        """
        return self.hops_table()[np.asarray(src), np.asarray(dst)]

    def hops_table(self) -> np.ndarray:
        """Full ``(num_tiles, num_tiles)`` hop table, **read-only**, one
        per :attr:`topology_key` process-wide.

        ``table[b, d]`` = hops from ``b`` to ``d``: Manhattan distance on
        a pristine mesh, BFS distance over live links otherwise.  The
        allocator hands its transpose to the bank-select policy as the
        Eq. 4 hop rows, one row per affinity bank, and the traffic
        accountant dots its pair flits with the flattened table.
        """
        key = self.topology_key
        table = _DISTANCE_CACHE.get(key)
        if table is None:
            if self._dead_links:
                table = np.stack([self._bfs_from(s)[0]
                                  for s in range(self.num_tiles)])
            else:
                bx, by = self.coords(np.arange(self.num_tiles))
                table = (np.abs(bx[:, None] - bx[None, :])
                         + np.abs(by[:, None] - by[None, :]))
            table.setflags(write=False)
            _DISTANCE_CACHE[key] = table
        return table

    def hops_to_all(self, targets: np.ndarray) -> np.ndarray:
        """Matrix ``M[b, i]`` = hops from every tile ``b`` to ``targets[i]``.

        A column slice of :meth:`hops_table` (graph partitioning and the
        interference analysis read the whole table through it).
        """
        return self.hops_table()[:, np.asarray(targets)]

    # ------------------------------------------------------------------
    # Link-level routing
    # ------------------------------------------------------------------
    # Directions for link ids.
    _EAST, _WEST, _NORTH, _SOUTH = 0, 1, 2, 3

    def _link_id(self, tile: int, direction: int) -> int:
        return tile * 4 + direction

    def route_links(self, src: int, dst: int) -> List[int]:
        """Directed link ids on the route from ``src`` to ``dst``.

        Pristine mesh: the X-Y route.  With dead links: the BFS
        shortest path over live links (deterministic tie-breaking).
        """
        if self._dead_links:
            return self._route_links_degraded(src, dst)
        links: List[int] = []
        sx, sy = src % self.width, src // self.width
        dx, dy = dst % self.width, dst // self.width
        x, y = sx, sy
        while x != dx:
            step = 1 if dx > x else -1
            direction = self._EAST if step > 0 else self._WEST
            links.append(self._link_id(self.tile_at(x, y), direction))
            x += step
        while y != dy:
            step = 1 if dy > y else -1
            direction = self._SOUTH if step > 0 else self._NORTH
            links.append(self._link_id(self.tile_at(x, y), direction))
            y += step
        return links

    def _route_links_degraded(self, src: int, dst: int) -> List[int]:
        dist, parents = self._bfs_from(src)
        if dist[dst] < 0:
            raise TopologyError(f"no route from {src} to {dst}")
        parent_link, parent_tile = parents
        links: List[int] = []
        t = dst
        while t != src:
            links.append(int(parent_link[t]))
            t = int(parent_tile[t])
        links.reverse()
        return links

    def routing_incidence(self) -> RoutingIncidence:
        """The pair->channel incidence for this geometry (memoized).

        Built once per (width, height) by walking :meth:`route_links` for
        every ordered pair, then shared process-wide; consumers expand
        pair-weight vectors onto channels with ``np.repeat`` +
        ``np.bincount`` (see :func:`repro.arch.noc.pair_channel_loads`,
        the single consumer of the link-route part).
        """
        key = self.topology_key
        inc = _INCIDENCE_CACHE.get(key)
        if inc is None:
            inc = self._build_incidence()
            _INCIDENCE_CACHE[key] = inc
        return inc

    def _build_incidence(self) -> RoutingIncidence:
        n = self.num_tiles
        counts = np.zeros(n * n, dtype=np.int64)
        links: List[int] = []
        for s in range(n):
            for d in range(n):
                if s == d:
                    continue
                route = self.route_links(s, d)
                counts[s * n + d] = len(route)
                links.extend(route)
        pair_ids = np.arange(n * n, dtype=np.int64)
        arrays = (
            np.asarray(links, dtype=np.int64),
            counts,
            pair_ids // n,
            pair_ids % n,
            np.arange(n, dtype=np.int64) * (n + 1),
        )
        for a in arrays:
            a.setflags(write=False)  # shared process-wide
        return RoutingIncidence(*arrays)

    def link_loads(self, src: np.ndarray, dst: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Accumulate per-link load for weighted (src, dst) message batches.

        ``weight`` is typically flits (or bytes).  Because the number of
        distinct (src, dst) pairs is bounded by ``num_tiles**2`` (4096 on
        the 8x8 mesh), we first collapse the batch onto pair ids with
        ``bincount``; the pair->link expansion is the shared scatter-add
        in :func:`repro.arch.noc.pair_channel_loads` (this method keeps
        only the router-to-router slice, not the inject/eject ports).

        Returns an array of length ``num_links`` with accumulated weight.
        """
        from repro.arch.noc import pair_channel_loads  # local: avoid cycle

        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        weight = np.broadcast_to(np.asarray(weight, dtype=np.float64), src.shape)
        pair = src * self.num_tiles + dst
        pair_weight = np.bincount(pair, weights=weight, minlength=self.num_tiles ** 2)
        return pair_channel_loads(self, pair_weight)[:self.num_links]

    def __repr__(self) -> str:
        return f"Mesh({self.width}x{self.height})"
