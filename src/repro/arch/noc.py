"""NoC traffic accounting.

The trace executor does not simulate individual packets; it records
*message batches* — vectors of (src tile, dst tile, payload bytes, class).
The accountant collapses every batch onto the (src, dst) pair space, so
memory stays O(num_tiles^2) per message class no matter how long the trace
is, while still preserving enough structure to compute:

* total flit-hops per message class (the paper's "NoC Hops" metric,
  Figs 4/6/12/13/20),
* per-link flit loads under X-Y routing (bisection pathologies, Fig 3b),
* average NoC utilization (Fig 12's "NoC Util." markers).

Message classes follow the paper's figure legends:

* ``DATA``    — operand forwarding, line fills, write-backs, indirect
  responses: payload-carrying messages.
* ``CONTROL`` — requests, indirect requests, credits, coherence control:
  header-only messages.
* ``OFFLOAD`` — stream configuration and stream migration messages.
"""

from __future__ import annotations

import enum
from typing import Dict, NamedTuple, Optional

import numpy as np

from repro.arch.mesh import Mesh
from repro.config import NocConfig

__all__ = ["MessageClass", "SealedTraffic", "TrafficAccountant",
           "pair_channel_loads"]


class MessageClass(enum.Enum):
    DATA = "data"
    CONTROL = "control"
    OFFLOAD = "offload"


def pair_channel_loads(mesh: Mesh, pair_flits: np.ndarray) -> np.ndarray:
    """Expand (src, dst)-pair flit counts onto NoC channels.

    Channels = directed router-to-router links (X-Y routes) plus each
    tile's injection and ejection ports (1 flit/cycle each).  The ports
    matter: every message destined for one bank funnels through that
    bank's single ejection channel, so a hot bank (a high-degree vertex's
    atomics, a global queue's tail) is a bandwidth bottleneck even when
    no single mesh link saturates — and colocating the producers with the
    bank (affinity alloc) removes those messages entirely.

    Layout of the returned vector: ``[links..., inject per tile...,
    eject per tile...]``.

    Implementation: one weighted scatter-add over the mesh's precomputed
    pair->link incidence (:meth:`repro.arch.mesh.Mesh.routing_incidence`)
    plus two ``bincount`` reductions for the ports.  ``bincount``
    accumulates weights in input order, pair-major ascending — the exact
    addition order of the per-pair loop this replaced — so results are
    byte-identical, not merely close.
    """
    n = mesh.num_tiles
    pair_flits = np.asarray(pair_flits, dtype=np.float64)
    if pair_flits.shape != (n * n,):
        raise ValueError(f"pair_flits must have shape ({n * n},), "
                         f"got {pair_flits.shape}")
    inc = mesh.routing_incidence()
    loads = np.empty(mesh.num_links + 2 * n, dtype=np.float64)
    loads[:mesh.num_links] = np.bincount(
        inc.link_ids, weights=np.repeat(pair_flits, inc.route_counts),
        minlength=mesh.num_links)
    ported = pair_flits.copy()
    ported[inc.diagonal] = 0.0  # self-pairs never touch the NoC
    inj = mesh.num_links
    loads[inj:inj + n] = np.bincount(inc.pair_src, weights=ported, minlength=n)
    loads[inj + n:] = np.bincount(inc.pair_dst, weights=ported, minlength=n)
    return loads


class SealedTraffic(NamedTuple):
    """One phase's traffic, reduced from its per-class pair deltas to
    O(links + tiles) values:

    * ``channel_loads`` — :func:`pair_channel_loads` of the class deltas
      summed in :class:`MessageClass` order;
    * ``flits`` — total flits per class;
    * ``flit_hops`` — flits x hops per class;
    * ``arrivals`` — flits per destination tile per class.
    """

    channel_loads: np.ndarray
    flits: Dict[MessageClass, float]
    flit_hops: Dict[MessageClass, float]
    arrivals: Dict[MessageClass, np.ndarray]


class TrafficAccountant:
    """Accumulates message batches into per-(pair, class) flit counts."""

    def __init__(self, mesh: Mesh, noc: NocConfig):
        self.mesh = mesh
        self.noc = noc
        npairs = mesh.num_tiles ** 2
        self._pair_flits: Dict[MessageClass, np.ndarray] = {
            cls: np.zeros(npairs, dtype=np.float64) for cls in MessageClass
        }
        self._messages: Dict[MessageClass, float] = {cls: 0.0 for cls in MessageClass}
        # Pair counts at the last phase seal; the open phase's traffic
        # is the difference (see :meth:`seal`).
        self._mark: Dict[MessageClass, np.ndarray] = {
            cls: np.zeros(npairs, dtype=np.float64) for cls in MessageClass
        }
        # Hop distance for every (src, dst) pair as float64: the mesh's
        # hop table, flattened, taken once per topology epoch.
        self._pair_hops: Optional[np.ndarray] = None
        self._hops_epoch = mesh.topology_epoch
        # Channel-load cache: expanding the pair matrix onto channels is
        # the accountant's one non-trivial computation, and the metric
        # getters (max/mean/utilization) all need it.  ``record`` bumps
        # the dirty flag; the expansion runs once per dirty epoch, and a
        # mesh topology-epoch bump (chaos link failure) also invalidates.
        self._channel_cache: Optional[np.ndarray] = None
        self._cache_epoch = mesh.topology_epoch
        self._dirty = True

    # ------------------------------------------------------------------
    def _flits_for(self, payload_bytes) -> np.ndarray:
        """Flits for message(s) with the given payload size.

        Every message carries one header; payload is packed into
        ``link_bytes_per_cycle``-byte flits.
        """
        total = np.asarray(payload_bytes, dtype=np.float64) + self.noc.header_bytes
        return np.ceil(total / self.noc.link_bytes_per_cycle)

    def record(self, src, dst, payload_bytes, cls: MessageClass, count=1) -> None:
        """Record message batch(es).

        Args:
            src, dst: tile ids (scalars or equal-length arrays).
            payload_bytes: payload per message (scalar or array).
            cls: message class.
            count: multiplicity per entry (scalar or array) — e.g. a batch
                entry may represent ``count`` identical messages.
        """
        src = np.atleast_1d(np.asarray(src, dtype=np.int64))
        dst = np.atleast_1d(np.asarray(dst, dtype=np.int64))
        if src.shape != dst.shape:
            src, dst = np.broadcast_arrays(src, dst)
        n = self.mesh.num_tiles
        if src.size == 0:
            return
        cnt = np.asarray(count, dtype=np.float64)
        flits = self._flits_for(payload_bytes) * cnt
        flits = np.broadcast_to(flits, src.shape)
        pair = src * n + dst
        # With dst validated, a bad src surfaces from the histogram
        # itself (negative pair raises inside bincount, over-range pair
        # yields a histogram longer than the pair matrix) — replacing
        # src's two min/max validation passes on this very hot path.
        self.mesh.validate_tiles(dst)
        try:
            binned = np.bincount(pair, weights=flits, minlength=n * n)
        except ValueError:
            raise ValueError("tile id out of range") from None
        if binned.size > n * n:
            raise ValueError("tile id out of range")
        self._pair_flits[cls] += binned
        if cnt.ndim == 0:
            self._messages[cls] += float(cnt) * src.size
        else:
            self._messages[cls] += float(np.sum(np.broadcast_to(cnt, src.shape)))
        self._dirty = True

    # ------------------------------------------------------------------
    def _hops_per_pair(self) -> np.ndarray:
        if self._pair_hops is None or self._hops_epoch != self.mesh.topology_epoch:
            self._pair_hops = self.mesh.hops_table().ravel().astype(
                np.float64)
            self._hops_epoch = self.mesh.topology_epoch
        return self._pair_hops

    def flit_hops(self, cls: Optional[MessageClass] = None) -> float:
        """Total flits x hops — the paper's NoC traffic metric."""
        hops = self._hops_per_pair()
        if cls is not None:
            return float(np.dot(self._pair_flits[cls], hops))
        return float(sum(np.dot(v, hops) for v in self._pair_flits.values()))

    def flit_hops_by_class(self) -> Dict[MessageClass, float]:
        hops = self._hops_per_pair()
        return {cls: float(np.dot(v, hops)) for cls, v in self._pair_flits.items()}

    def total_flits(self, cls: Optional[MessageClass] = None) -> float:
        if cls is not None:
            return float(self._pair_flits[cls].sum())
        return float(sum(v.sum() for v in self._pair_flits.values()))

    def message_count(self, cls: Optional[MessageClass] = None) -> float:
        if cls is not None:
            return self._messages[cls]
        return sum(self._messages.values())

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def has_open_traffic(self) -> bool:
        """True if flits were recorded since the last :meth:`seal`."""
        return any(not np.array_equal(self._pair_flits[cls], self._mark[cls])
                   for cls in MessageClass)

    def seal(self) -> SealedTraffic:
        """Close the open phase: reduce the per-class pair deltas since
        the last seal to a :class:`SealedTraffic`, then move the mark.

        Channel loads and hop counts use the topology as it is now, so
        a phase is timed on the routes its traffic ran on, even if a
        link fails later in the run.
        """
        n = self.mesh.num_tiles
        hops = self._hops_per_pair()
        deltas = {cls: self._pair_flits[cls] - self._mark[cls]
                  for cls in MessageClass}
        sealed = SealedTraffic(
            channel_loads=pair_channel_loads(self.mesh, sum(deltas.values())),
            flits={cls: float(d.sum()) for cls, d in deltas.items()},
            flit_hops={cls: float(np.dot(d, hops)) for cls, d in deltas.items()},
            arrivals={cls: d.reshape(n, n).sum(axis=0)
                      for cls, d in deltas.items()},
        )
        for cls in MessageClass:
            self._mark[cls][:] = self._pair_flits[cls]
        return sealed

    # ------------------------------------------------------------------
    def _channel_loads(self) -> np.ndarray:
        """Per-channel loads, recomputed at most once per dirty epoch.

        Internal callers treat the returned array as read-only; the
        public :meth:`link_loads` hands out a copy.
        """
        if (self._dirty or self._channel_cache is None
                or self._cache_epoch != self.mesh.topology_epoch):
            total_pairs = sum(self._pair_flits.values())
            self._channel_cache = pair_channel_loads(self.mesh, total_pairs)
            self._dirty = False
            self._cache_epoch = self.mesh.topology_epoch
        return self._channel_cache

    def link_loads(self) -> np.ndarray:
        """Per-channel flit load (links + inject/eject ports, all classes)."""
        return self._channel_loads().copy()

    def eject_loads(self) -> np.ndarray:
        """Per-tile ejection-port flit load (all classes).

        Slot ``b`` is the flits funneling into tile/bank ``b``'s single
        ejection channel — the per-bank bandwidth figure the interference
        analysis compares against injected host traffic.
        """
        n = self.mesh.num_tiles
        return self._channel_loads()[self.mesh.num_links + n:].copy()

    def max_link_load(self) -> float:
        """Flits on the most-loaded directed link (the NoC bottleneck)."""
        loads = self._channel_loads()
        return float(loads.max()) if loads.size else 0.0

    def mean_link_load(self) -> float:
        loads = self._channel_loads()
        # Interior links only in spirit; edge link slots stay zero, so
        # normalize by the count of links that could carry traffic.
        usable = self._usable_link_count()
        return float(loads.sum() / usable) if usable else 0.0

    def _usable_link_count(self) -> int:
        w, h = self.mesh.width, self.mesh.height
        # mesh links (both directions) plus inject/eject ports per tile,
        # minus any links killed by fault injection (dead links are
        # always chosen among the physical interior links)
        return (2 * ((w - 1) * h + (h - 1) * w) + 2 * w * h
                - len(self.mesh.dead_links))

    def utilization(self, cycles: float) -> float:
        """Average fraction of link-cycles carrying flits over ``cycles``."""
        if cycles <= 0:
            return 0.0
        return min(1.0, self._channel_loads().sum()
                   / (self._usable_link_count() * cycles))

    def reset(self) -> None:
        """Zero every counter and the phase mark, and invalidate the
        channel-load cache.

        Epoch-based consumers (the relayout telemetry aggregator) reset
        between epochs; the dirty flag guarantees the next metric query
        recomputes channel loads instead of serving the pre-reset cache,
        even when no ``record`` call lands in between.
        """
        for cls in MessageClass:
            self._pair_flits[cls][:] = 0.0
            self._mark[cls][:] = 0.0
            self._messages[cls] = 0.0
        self._dirty = True

    def merged_with(self, other: "TrafficAccountant") -> "TrafficAccountant":
        """Return a new accountant with both traffic sets combined."""
        out = TrafficAccountant(self.mesh, self.noc)
        for cls in MessageClass:
            out._pair_flits[cls] = self._pair_flits[cls] + other._pair_flits[cls]
            out._messages[cls] = self._messages[cls] + other._messages[cls]
        return out
