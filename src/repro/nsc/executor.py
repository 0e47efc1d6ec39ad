"""Vectorized trace executor for in-core and near-stream execution.

Workload kernels call these primitives with *element traces* (arrays of
element indices in iteration order, plus the owning core of each
iteration; an affine operand may instead be an
:class:`~repro.nsc.stream.AffineIndex` descriptor).  The executor turns
them into the events the perf model needs, with the message conventions
of the paper's Figs 1/3/5:

==================  ==============================================  =========
primitive           IN_CORE                                          offloaded
==================  ==============================================  =========
affine_kernel       lines fetched to the core (req + line resp,      streams read/write at their banks;
                    write-allocate + write-back for stores)          operands *forwarded* between banks
                                                                     (zero messages when colocated);
                                                                     stream migration between banks
indirect_gather     per-core line fetches of the pointed data        request to the target bank, value
                    (deduplicated: private-cache reuse)              response back (pull reduction)
indirect_atomic     coherence ping-pong per atomic (req + line +     one small request bank-to-bank,
                    hand-off)                                        atomic executes at the target bank
pointer_chase       serialized round trips core<->bank per node,     stream migrates bank-to-bank,
                    limited MLP                                      deep run-ahead (paper §5.3)
queue_push          tail-line coherence + slot store                 atomic at the tail's bank; free when
                                                                     the push source is colocated
==================  ==============================================  =========

Iterative kernels whose per-iteration trace is identical (stencils,
PageRank's edge scan) pass ``repeat=k`` instead of re-tracing: all event
*counts* scale by ``k`` while the trace is walked once.

All primitives accept numpy arrays and aggregate with ``bincount`` /
``unique``; per-element Python loops never happen.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.arch.noc import MessageClass
from repro.core.api import ArrayHandle
from repro.machine import Machine
from repro.nsc.engine import EngineMode
from repro.nsc.stream import AffineIndex
from repro.perf.kernels import pybackend
from repro.perf.stats import RunRecorder

__all__ = ["StreamExecutor"]

# Message payload conventions (bytes).
_CONFIG_BYTES = 32    # stream configuration (paper: one packet to SEL3)
_MIGRATE_BYTES = 16   # stream migration state hand-off
_IND_REQ_BYTES = 8    # indirect request: target address
_CREDIT_BYTES = 0     # flow-control credit (header-only)

# Memory-level parallelism for pointer chasing: a core's run-ahead is
# ROB-limited (paper §5.3); decoupled SEL3 streams run far ahead.
_CORE_CHASE_MLP = 4.0
_NSC_CHASE_MLP = 12.0
_L2_LATENCY = 16.0


# The executor's dedup/accounting kernels (one implementation each, in
# the python backend).  Module-level names so the equivalence tests can
# swap in their ``np.unique`` oracles (``tests/oracles.py``).

#: Bias the key to its minimum and narrow to int32 when it fits — a
#: strictly monotone map, so ``np.unique``'s order is unchanged.
_shrink_key = pybackend.shrink_key

#: ``np.unique(key, return_index=True)[1]``: index of the first
#: occurrence of each distinct key, ordered by ascending key.
_first_unique = pybackend.first_unique

#: Like :func:`_first_unique` but also returns the multiplicity of each
#: distinct key (``np.unique(..., return_counts=True)``).
_first_unique_counts = pybackend.first_unique_counts

#: Mask of entries starting a new run of equal ``values`` within the
#: same ``groups`` entry (both arrays in iteration order).
_consecutive_dedup = pybackend.consecutive_dedup


def _pair_key(groups: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Composite (group, value) sort key, lexicographic group-major.

    Values are biased to their minimum so the key's spread is
    ``num_groups * value_range`` instead of ``num_groups << 48`` — small
    enough for :func:`_shrink_key` to narrow the unsorted-input sort to
    int32.  Equivalent ordering to ``groups * 2**48 + values``."""
    if values.size == 0:
        return np.zeros(0, dtype=np.int64)
    lo = values.min()
    span = np.int64(int(values.max()) - int(lo) + 1)
    return groups * span + (values - lo)


def _weighted_counts(key: np.ndarray, first: np.ndarray,
                     weights: np.ndarray) -> np.ndarray:
    """Total integer ``weights`` per distinct key, in ``first``'s
    ascending-key order — :func:`_first_unique_counts` over line runs.

    Run lengths are integers far below 2**53, so the float64 sums are
    exact."""
    slot = np.searchsorted(key[first], key)
    return np.bincount(slot, weights=weights,
                       minlength=first.size).astype(np.intp)


def _per_elem(idx: np.ndarray, lens: np.ndarray, w: float, n: int):
    """``(idx, weights)`` for a recorder sink so that it adds ``w`` once
    per element of every line run, bit for bit (``n`` elements in all).

    Summing an integer-valued ``w`` element by element is exact while
    every total stays below 2**52, so a run then contributes
    ``len * w`` in one term.  Any other ``w`` (0.1, 1/3) rounds per
    addition; those runs are expanded back to elements so the sink
    repeats the exact per-element addition sequence."""
    w = float(w)
    if w.is_integer() and n * abs(w) < 2.0 ** 52:
        return idx, lens * w
    return np.repeat(idx, lens), w


def _granule_crossings(handle: ArrayHandle, offset: int, n: int,
                       g: int) -> np.ndarray:
    """Iterations ``i`` in ``[1, n)`` at which an ``AffineIndex(offset)``
    stream over ``handle`` enters a new ``2**g``-byte granule, in closed
    form and ascending order.

    Iteration ``i`` reads element ``j = clip(i + offset, 0, N - 1)``.  The
    clamped ends repeat one element and never cross, so crossings fall in
    the interior span ``j`` in ``[max(1, offset + 1), min(N - 1, n - 1 +
    offset)]``.  With ``stride >= 2**g`` every interior step crosses;
    otherwise each granule boundary ``m << g`` inside the span is crossed
    exactly once, at the first element at or past it,
    ``j = ceil(((m << g) - vaddr) / stride)``.
    """
    lo = max(1, offset + 1)
    hi = min(handle.num_elem - 1, n - 1 + offset)
    if lo > hi:
        return np.empty(0, dtype=np.int64)
    base, stride = handle.vaddr, handle.stride
    if stride >= 1 << g:
        return np.arange(lo - offset, hi + 1 - offset, dtype=np.int64)
    m = np.arange(((base + stride * (lo - 1)) >> g) + 1,
                  ((base + stride * hi) >> g) + 1, dtype=np.int64)
    return -((base - (m << g)) // stride) - offset


class StreamExecutor:
    """Execution primitives for one run."""

    def __init__(self, machine: Machine, recorder: RunRecorder, mode: EngineMode):
        self.machine = machine
        self.rec = recorder
        self.mode = mode
        self.line = machine.config.cache.line_bytes
        self.perf = machine.config.perf
        self.l3_latency = float(machine.config.cache.access_latency)
        self.hop_latency = float(machine.config.noc.hop_latency)

    # ------------------------------------------------------------------
    # Fault-injection hooks (no-ops on the healthy path)
    # ------------------------------------------------------------------
    def _faults(self):
        """Arm run-phase faults (first primitive wins) and return the
        machine's FaultState, or None when no chaos session is active."""
        st = self.machine.faults
        if st is not None:
            st.activate_run_phase(self.machine)
        return st

    def _offloads(self, st, *banks_arrays) -> bool:
        """Effective offload decision for one primitive: the engine mode,
        degraded by host fallback when an operand stream touches a
        failed, non-re-homed bank (bounded retries are charged)."""
        if not self.mode.offloads:
            return False
        if st is None or not st.no_rehome:
            return True
        return not st.blocks_offload(banks_arrays, self.rec,
                                     self.machine.num_cores)

    # ------------------------------------------------------------------
    # Small shared helpers
    # ------------------------------------------------------------------
    def _banks_and_lines(self, where, idx=None, lines: bool = True):
        """(bank, physical line) of each element (:meth:`Machine.resolve`
        of ``where`` and ``idx``); the line is None when not asked."""
        st = self.machine.faults
        touch = (st is not None and bool(st.pending_touch)
                 and self.mode.offloads)
        banks, line_ids, raw = self.machine.resolve(where, idx, lines=lines,
                                                    raw=touch)
        if st is not None and touch:
            # Raw (pre-remap) banks still show the failed ids; the first
            # offloaded touch of each re-homed bank pays the retry storm.
            st.check_first_touch(raw, self.rec, self.machine.num_cores)
        return banks, line_ids

    def _line_runs(self, cores: np.ndarray, streams):
        """Split an affine trace into line runs.

        A line run is a maximal span of iterations with one owning core
        in which every stream's virtual address stays inside one
        bank-mapping granule (:meth:`InterleaveOverrideTable.granule_shift`).
        The granule divides the line and the page, and translation maps
        pages to page-aligned frames, so every element of a run shares
        its head's physical line, bank and pre-fault bank.

        An index-array stream finds its granule steps from per-element
        addresses; an :class:`AffineIndex` stream gets them in closed form
        (:func:`_granule_crossings`) and computes addresses for the run
        heads only.  Both mark one mask of run starts.

        Returns (run heads, run lengths, each stream's head addresses).
        """
        g = self.machine.iot.granule_shift()
        n = cores.size
        change = np.empty(n, dtype=bool)
        change[0] = True
        np.not_equal(cores[1:], cores[:-1], out=change[1:])
        gran = step = None
        vaddrs = []
        for h, i in streams:
            if isinstance(i, AffineIndex):
                change[_granule_crossings(h, i.offset, n, g)] = True
                vaddrs.append(None)
                continue
            v = h.addr_of(np.asarray(i))
            if gran is None:
                gran = np.empty(n, dtype=np.int64)
                step = np.empty(n - 1, dtype=bool)
            np.right_shift(v, g, out=gran)
            np.not_equal(gran[1:], gran[:-1], out=step)
            change[1:] |= step
            vaddrs.append(v)
        heads = np.flatnonzero(change)
        head_addrs = [
            h.vaddr + h.stride * i.elements(heads, h.num_elem)
            if v is None else v[heads]
            for (h, i), v in zip(streams, vaddrs)]
        return heads, np.diff(heads, append=n), head_addrs

    def _fetch_lines_to_core(self, cores, banks, lines, store: bool = False,
                             repeat: float = 1.0) -> None:
        """In-core line movement: request out, line back (and write-back)."""
        new = _consecutive_dedup(lines, cores)
        c, b = cores[new], banks[new]
        self.rec.traffic.record(c, b, 0, MessageClass.CONTROL, count=repeat)
        self.rec.traffic.record(b, c, self.line, MessageClass.DATA, count=repeat)
        self.rec.add_bank_accesses(b, repeat)
        if store:
            self.rec.traffic.record(c, b, self.line, MessageClass.DATA, count=repeat)
            self.rec.add_bank_accesses(b, repeat)

    def _offload_config(self, cores: np.ndarray, first_banks: np.ndarray,
                        repeat: float = 1.0) -> None:
        """One stream-configuration packet per (core, stream chunk)."""
        self.rec.traffic.record(cores, first_banks, _CONFIG_BYTES,
                                MessageClass.OFFLOAD, count=repeat)

    def _capacity_filter(self, cores: np.ndarray, lines: np.ndarray):
        """Finite-private-cache reuse filter for random accesses.

        Dedups (core, line) pairs, then scales the fetch count back up for
        the fraction of re-references that no longer fit the per-core
        private cache (Table 2: 256 KB L2): a core whose touched footprint
        exceeds capacity re-fetches ``(1 - capacity/footprint)`` of its
        repeats.

        Returns (indices of unique entries, per-entry fetch multiplicity,
        per-core miss rate among all accesses).
        """
        nc = self.machine.num_cores
        cap = float(self.machine.config.cache.private_cache_bytes)
        key = _pair_key(cores, lines)
        first = _first_unique(key)
        u_per_core = np.bincount(cores[first], minlength=nc).astype(np.float64)
        a_per_core = np.bincount(cores, minlength=nc).astype(np.float64)
        footprint = u_per_core * self.line
        p_hit = np.minimum(1.0, cap / np.maximum(footprint, 1.0))
        fetches = u_per_core + (a_per_core - u_per_core) * (1.0 - p_hit)
        factor = fetches / np.maximum(u_per_core, 1.0)
        miss_rate = fetches / np.maximum(a_per_core, 1.0)
        return first, factor[cores[first]], miss_rate

    def _config_pairs(self, cores, banks):
        """For each active core, (core, bank of its first element)."""
        first = _first_unique(cores)
        return cores[first], banks[first]

    def _migrations(self, banks: np.ndarray, lines: np.ndarray,
                    groups: np.ndarray, repeat: float = 1.0) -> None:
        """Stream migration messages between consecutive distinct lines."""
        new = _consecutive_dedup(lines, groups)
        b, g = banks[new], groups[new]
        if b.size < 2:
            return
        src, dst = pybackend.migration_pairs(b, g)
        self.rec.traffic.record(src, dst, _MIGRATE_BYTES,
                                MessageClass.OFFLOAD, count=repeat)

    def _credits(self, cores: np.ndarray, banks: np.ndarray,
                 repeat: float = 1.0, lens: Optional[np.ndarray] = None) -> None:
        """Coarse-grained flow control: one credit round trip per
        ``credit_iters`` iterations per core (paper §2.2).

        ``lens`` gives each entry's iteration count (line runs); None
        means one iteration per entry."""
        k = self.perf.credit_iters
        if lens is None:
            first, counts = _first_unique_counts(cores)
        else:
            first = _first_unique(cores)
            counts = _weighted_counts(cores, first, lens)
        if first.size == 0:
            return
        active = cores[first]
        n_credits = pybackend.credit_roundtrips(counts, k) * repeat
        peer = banks[first]  # each core's first bank is the credit peer
        self.rec.traffic.record(active, peer, _CREDIT_BYTES,
                                MessageClass.CONTROL, count=n_credits)
        self.rec.traffic.record(peer, active, _CREDIT_BYTES,
                                MessageClass.CONTROL, count=n_credits)

    # ------------------------------------------------------------------
    # Affine kernels
    # ------------------------------------------------------------------
    def affine_kernel(self, cores, ins: Sequence[Tuple[ArrayHandle, np.ndarray]],
                      out: Optional[Tuple[ArrayHandle, np.ndarray]] = None,
                      ops_per_elem: float = 1.0, repeat: float = 1.0) -> None:
        """Elementwise kernel ``out[i] = f(ins[0][i], ins[1][i], ...)``.

        The trace is walked as line runs (:meth:`_line_runs`): only run
        heads are translated and bank-mapped, and every event count
        weighs a run by its length, so the recorded events are exactly
        those of a per-element walk.

        Args:
            cores: core owning each iteration (array, iteration order).
            ins: input streams as (handle, element index) pairs; the index
                is a per-iteration array or an :class:`AffineIndex`.
            out: optional output stream, in the same form.
            ops_per_elem: compute ops per iteration.
            repeat: number of identical iterations this trace stands for.

        Raises:
            TypeError: an :class:`AffineIndex` paired with a handle that
                has no fixed stride (an ``AddressView``).
        """
        streams = list(ins) + ([out] if out else [])
        for h, i in streams:
            if isinstance(i, AffineIndex) and not isinstance(h, ArrayHandle):
                raise TypeError(f"AffineIndex needs a fixed-stride ArrayHandle,"
                                f" got {type(h).__name__}")
        cores = np.asarray(cores, dtype=np.int64)
        n = cores.size
        if n == 0:
            return
        st = self._faults()
        heads, lens, head_addrs = self._line_runs(cores, streams)
        cores = cores[heads]
        in_bl = [self._banks_and_lines(a) for a in head_addrs[:len(ins)]]
        out_bl = self._banks_and_lines(head_addrs[-1]) if out else None

        off = self._offloads(st, *(bl[0] for bl in in_bl),
                             out_bl[0] if out_bl else None)
        tr = self.machine.tracer
        if tr is not None:
            tr.instant("affine_kernel", "stream",
                       {"offloaded": off, "n": int(n), "inputs": len(ins),
                        "store": out is not None, "repeat": float(repeat)})
        if not off:
            # Private caches keep lines shared between input streams of the
            # same array hot (e.g. the three row-offset streams of a
            # stencil): fetch each distinct (core, handle, line) once.
            seen = {}
            for (h, _i), (banks, lines) in zip(ins, in_bl):
                seen.setdefault(id(h), []).append((banks, lines))
            for group in seen.values():
                if len(group) == 1:  # skip the no-op concatenate copies
                    banks, lines = group[0]
                    gcores = cores
                else:
                    banks = np.concatenate([b for b, _ in group])
                    lines = np.concatenate([l for _, l in group])
                    gcores = np.concatenate([cores] * len(group))
                key = _pair_key(gcores, lines)
                first = _first_unique(key)
                c, b = gcores[first], banks[first]
                self.rec.traffic.record(c, b, 0, MessageClass.CONTROL,
                                        count=repeat)
                self.rec.traffic.record(b, c, self.line, MessageClass.DATA,
                                        count=repeat)
                self.rec.add_bank_accesses(b, repeat)
            if out_bl:
                self._fetch_lines_to_core(cores, out_bl[0], out_bl[1],
                                          store=True, repeat=repeat)
            self.rec.add_core_ops(*_per_elem(cores, lens,
                                             (ops_per_elem + 1.0) * repeat, n))
            self.rec.add_private_accesses(n * (len(ins) + (1 if out else 0)) * repeat)
            return

        # Offloaded: compute happens at the consumer (out) bank, or at the
        # first input's bank for a pure read.  Streams over the *same*
        # array (a stencil's offset streams) are coalesced the way the NSC
        # stream engine serves them: one bank read per line, one forwarded
        # message per distinct (source line, consumer bank), one migrating
        # walk per array.
        consumer_banks = out_bl[0] if out_bl else in_bl[0][0]
        groups = {}
        for (h, _idx), bl in zip(ins, in_bl):
            groups.setdefault(id(h), (h, []))[1].append(bl)
        for h, bls in groups.values():
            if len(bls) == 1:  # skip the no-op concatenate copies
                banks, lines = bls[0]
                glens = lens
            else:
                banks = np.concatenate([b for b, _ in bls])
                lines = np.concatenate([l for _, l in bls])
                glens = np.tile(lens, len(bls))
            self._offload_config(*self._config_pairs(cores, bls[0][0]),
                                 repeat=repeat)
            # one bank read per distinct line of this array
            first = _first_unique(lines)
            self.rec.add_bank_accesses(banks[first], repeat)
            # forward operands to the consumer where not colocated,
            # aggregated per (source line, consumer bank)
            if out_bl is not None:
                cb = (consumer_banks if len(bls) == 1
                      else np.concatenate([consumer_banks] * len(bls)))
                need = banks != cb
                self.rec.add_stream_locality(n * len(bls) * repeat,
                                             float(glens[need].sum()) * repeat)
                self._observe(h, banks, cb, repeat, lens=glens)
                if need.any():
                    src_b, dst_b, counts = self._group_pairs(
                        lines[need], banks[need], cb[need], glens[need])
                    self.rec.traffic.record(
                        src_b, dst_b,
                        np.minimum(counts * h.elem_size, self.line),
                        MessageClass.DATA, count=repeat)
            else:
                # pure read: the stream computes at its own banks
                self.rec.add_stream_locality(n * len(bls) * repeat, 0.0)
            self._migrations(bls[0][0], bls[0][1], cores, repeat)
        if out_bl is not None:
            obanks, olines = out_bl
            new = _consecutive_dedup(olines, cores)
            self.rec.add_bank_accesses(obanks[new], repeat)
            self.rec.add_stream_locality(n * repeat, 0.0)
            self._migrations(obanks, olines, cores, repeat)
            self._offload_config(*self._config_pairs(cores, obanks), repeat=repeat)
        self.rec.add_near_ops(*_per_elem(consumer_banks, lens,
                                         ops_per_elem * repeat, n))
        self._credits(cores, consumer_banks, repeat, lens)

    def _observe(self, handle, data_banks, desired_banks,
                 count: float = 1.0, lens: Optional[np.ndarray] = None) -> None:
        """Feed a drift observation to an attached relayout state.

        Gated on ``machine.relayout`` being None so static runs pay one
        attribute load per offloaded stream and nothing else.  Line runs
        (``lens``) are expanded back to the per-element bank arrays the
        state observes.
        """
        state = self.machine.relayout
        if state is not None:
            if lens is not None:
                data_banks = np.repeat(data_banks, lens)
                desired_banks = np.repeat(desired_banks, lens)
            state.observe_stream(handle, data_banks, desired_banks, count)

    def _group_pairs(self, lines, src_banks, dst_banks, lens: np.ndarray):
        """Aggregate (source line -> dest bank) forwarding messages;
        ``lens`` gives each entry's element count (line runs)."""
        key = lines * np.int64(self.machine.num_banks) + dst_banks
        first = _first_unique(key)
        counts = _weighted_counts(key, first, lens)
        return src_banks[first], dst_banks[first], counts

    # ------------------------------------------------------------------
    # Indirect access
    # ------------------------------------------------------------------
    def indirect_gather(self, cores, base: Tuple[ArrayHandle, np.ndarray],
                        target: Tuple[ArrayHandle, np.ndarray],
                        ops_per_elem: float = 1.0, value_bytes: int = 8,
                        repeat: float = 1.0) -> None:
        """Pull-style ``acc += target[f(base[i])]`` — values come back.

        ``base`` is where address generation happens (the stream walking
        the index structure); ``target`` is the pointed-to data.
        """
        cores = np.asarray(cores, dtype=np.int64)
        st = self._faults()
        b_banks, _ = self._banks_and_lines(*base, lines=False)
        t_banks, t_lines = self._banks_and_lines(*target)
        off = self._offloads(st, b_banks, t_banks)
        tr = self.machine.tracer
        if tr is not None:
            tr.instant("indirect_gather", "stream",
                       {"offloaded": off, "n": int(cores.size),
                        "repeat": float(repeat)})
        if not off:
            # Private caches keep hot target lines, limited by capacity.
            first, mult, _miss = self._capacity_filter(cores, t_lines)
            c, b = cores[first], t_banks[first]
            self.rec.traffic.record(c, b, 0, MessageClass.CONTROL,
                                    count=mult * repeat)
            self.rec.traffic.record(b, c, self.line, MessageClass.DATA,
                                    count=mult * repeat)
            self.rec.add_bank_accesses(b, mult * repeat)
            self.rec.add_core_ops(cores, (ops_per_elem + 1.0) * repeat)
            self.rec.add_private_accesses(cores.size * repeat)
            return
        # Offloaded: request out, value back to the requesting bank.
        remote = b_banks != t_banks
        self.rec.add_stream_locality(b_banks.size * repeat,
                                     float(remote.sum()) * repeat)
        self._observe(target[0], t_banks, b_banks, repeat)
        self.rec.traffic.record(b_banks[remote], t_banks[remote], _IND_REQ_BYTES,
                                MessageClass.CONTROL, count=repeat)
        self.rec.traffic.record(t_banks[remote], b_banks[remote], value_bytes,
                                MessageClass.DATA, count=repeat)
        self.rec.add_bank_accesses(t_banks, repeat)
        self.rec.add_remote_reqs(t_banks[remote], repeat)
        self.rec.add_near_ops(b_banks, ops_per_elem * repeat)
        self._credits(cores, b_banks, repeat)

    def indirect_atomic(self, cores, base: Tuple[ArrayHandle, np.ndarray],
                        target: Tuple[ArrayHandle, np.ndarray],
                        ops_per_elem: float = 1.0, repeat: float = 1.0) -> None:
        """Push-style ``atomic_op(target[f(base[i])])`` — no value returns."""
        cores = np.asarray(cores, dtype=np.int64)
        st = self._faults()
        b_banks, _ = self._banks_and_lines(*base, lines=False)
        t_banks, _ = self._banks_and_lines(*target, lines=False)
        off = self._offloads(st, b_banks, t_banks)
        tr = self.machine.tracer
        if tr is not None:
            tr.instant("indirect_atomic", "stream",
                       {"offloaded": off, "n": int(cores.size),
                        "repeat": float(repeat)})
        if not off:
            # Coherence ping-pong: every atomic pulls the line exclusive
            # (request + line) and hands it off again (line out).
            self.rec.traffic.record(cores, t_banks, 0, MessageClass.CONTROL,
                                    count=repeat)
            self.rec.traffic.record(t_banks, cores, self.line, MessageClass.DATA,
                                    count=repeat)
            self.rec.traffic.record(cores, t_banks, self.line, MessageClass.DATA,
                                    count=repeat)
            self.rec.add_bank_accesses(t_banks, repeat)
            self.rec.add_core_ops(cores, (ops_per_elem + 2.0) * repeat)
            self.rec.add_private_accesses(cores.size * repeat)
            return
        remote = b_banks != t_banks
        self.rec.add_stream_locality(b_banks.size * repeat,
                                     float(remote.sum()) * repeat)
        self._observe(target[0], t_banks, b_banks, repeat)
        self.rec.traffic.record(b_banks[remote], t_banks[remote], _IND_REQ_BYTES,
                                MessageClass.CONTROL, count=repeat)
        self.rec.add_bank_atomics(t_banks, repeat)
        self.rec.add_remote_reqs(t_banks[remote], repeat)
        self.rec.add_near_ops(t_banks, ops_per_elem * repeat)
        self._credits(cores, b_banks, repeat)

    # ------------------------------------------------------------------
    # Pointer chasing
    # ------------------------------------------------------------------
    def pointer_chase(self, node_vaddrs, chain_ids, chain_cores,
                      ops_per_node: float = 1.0, value_bytes: int = 8,
                      repeat: float = 1.0) -> None:
        """Walk linked chains of nodes.

        Args:
            node_vaddrs: node addresses, concatenated chain by chain, each
                chain in traversal order.
            chain_ids: chain id per node (non-decreasing, dense from 0).
            chain_cores: owning core per *chain* (indexed by chain id).
        """
        node_vaddrs = np.asarray(node_vaddrs, dtype=np.int64)
        chain_ids = np.asarray(chain_ids, dtype=np.int64)
        chain_cores = np.asarray(chain_cores, dtype=np.int64)
        if node_vaddrs.size == 0:
            return
        st = self._faults()
        banks, lines = self._banks_and_lines(node_vaddrs,
                                             lines=not self.mode.offloads)
        cores = chain_cores[chain_ids]
        nchains = chain_cores.size
        all_cores = np.arange(self.machine.num_cores)

        off = self._offloads(st, banks)
        tr = self.machine.tracer
        if tr is not None:
            tr.instant("pointer_chase", "stream",
                       {"offloaded": off, "nodes": int(node_vaddrs.size),
                        "chains": int(nchains), "repeat": float(repeat)})
        if not off:
            # Every node is a dependent round trip core <-> bank, except
            # the hot top of the structure (tree roots, list heads) that
            # the private cache retains across chains.
            if lines is None:  # offloading mode, fallen back to the host
                lines = self.machine.resolve(node_vaddrs, lines=True)[1]
            first, mult, miss_rate = self._capacity_filter(cores, lines)
            c, b = cores[first], banks[first]
            self.rec.traffic.record(c, b, 0, MessageClass.CONTROL,
                                    count=mult * repeat)
            self.rec.traffic.record(b, c, self.line, MessageClass.DATA,
                                    count=mult * repeat)
            self.rec.add_bank_accesses(b, mult * repeat)
            self.rec.add_core_ops(cores, (ops_per_node + 2.0) * repeat)
            self.rec.add_private_accesses(node_vaddrs.size * repeat)
            hops = self.machine.mesh.hops(cores, banks)
            miss_step = (2.0 * hops * self.hop_latency + self.l3_latency
                         + _L2_LATENCY)
            mr = miss_rate[cores]
            step_lat = mr * miss_step + (1.0 - mr) * _L2_LATENCY
            per_chain = np.bincount(chain_ids, weights=step_lat, minlength=nchains)
            per_core = np.bincount(chain_cores, weights=per_chain,
                                   minlength=self.machine.num_cores)
            self.rec.add_serial_cycles(all_cores,
                                       per_core * repeat / _CORE_CHASE_MLP)
            return

        # Offloaded: one config per chain, migration between banks,
        # local access per node, final value back to the core.
        first = _consecutive_dedup(chain_ids, chain_ids)  # first node per chain
        self._offload_config(cores[first], banks[first], repeat)
        same_chain = chain_ids[1:] == chain_ids[:-1]
        moved = (banks[1:] != banks[:-1]) & same_chain
        self.rec.add_stream_locality(banks.size * repeat,
                                     float(moved.sum()) * repeat)
        self.rec.traffic.record(banks[:-1][moved], banks[1:][moved],
                                _MIGRATE_BYTES, MessageClass.OFFLOAD,
                                count=repeat)
        self.rec.add_bank_accesses(banks, repeat)
        self.rec.add_near_ops(banks, ops_per_node * repeat)
        # final response per chain
        last = np.zeros(node_vaddrs.size, dtype=bool)
        last[:-1] = ~same_chain
        last[-1] = True
        self.rec.traffic.record(banks[last], cores[last], value_bytes,
                                MessageClass.CONTROL, count=repeat)
        # Serial latency: migration hops plus the bank access per node.
        step_lat = np.full(node_vaddrs.size, self.l3_latency)
        hop_cost = self.machine.mesh.hops(banks[:-1], banks[1:]) * self.hop_latency
        step_lat[1:] += np.where(same_chain, hop_cost, 0.0)
        per_chain = np.bincount(chain_ids, weights=step_lat, minlength=nchains)
        per_core = np.bincount(chain_cores, weights=per_chain,
                               minlength=self.machine.num_cores)
        self.rec.add_serial_cycles(all_cores,
                                   per_core * repeat / _NSC_CHASE_MLP)

    # ------------------------------------------------------------------
    # Work queues
    # ------------------------------------------------------------------
    def queue_push(self, cores, src_banks, tail_banks, slot_banks,
                   payload_bytes: int = 4, tail_handle=None,
                   slot_handle=None) -> None:
        """Push values into a queue: atomic tail bump + slot store.

        ``src_banks`` is where each push originates (the bank that decided
        to push, e.g. where the CAS succeeded); with a spatially
        distributed queue these match ``tail_banks``/``slot_banks`` and the
        push is free of NoC traffic (paper Fig 9).

        ``tail_handle``/``slot_handle`` optionally name the backing
        arrays so an attached relayout state can track queue drift.
        """
        cores = np.asarray(cores, dtype=np.int64)
        src_banks = np.asarray(src_banks, dtype=np.int64)
        tail_banks = np.asarray(tail_banks, dtype=np.int64)
        slot_banks = np.asarray(slot_banks, dtype=np.int64)
        st = self._faults()
        off = self._offloads(st, src_banks, tail_banks, slot_banks)
        tr = self.machine.tracer
        if tr is not None:
            tr.instant("queue_push", "stream",
                       {"offloaded": off, "n": int(cores.size)})
        if not off:
            # tail counter: coherence atomic; slot store: write-allocate
            self.rec.traffic.record(cores, tail_banks, 0, MessageClass.CONTROL)
            self.rec.traffic.record(tail_banks, cores, self.line, MessageClass.DATA)
            self.rec.traffic.record(cores, tail_banks, self.line, MessageClass.DATA)
            self.rec.add_bank_accesses(tail_banks)
            self.rec.traffic.record(cores, slot_banks, 0, MessageClass.CONTROL)
            self.rec.traffic.record(slot_banks, cores, self.line, MessageClass.DATA)
            self.rec.traffic.record(cores, slot_banks, self.line, MessageClass.DATA)
            self.rec.add_bank_accesses(slot_banks)
            self.rec.add_core_ops(cores, 4.0)
            self.rec.add_private_accesses(2 * cores.size)
            return
        rt = src_banks != tail_banks
        rs_count = float((src_banks != slot_banks).sum())
        self.rec.add_stream_locality(2.0 * src_banks.size,
                                     float(rt.sum()) + rs_count)
        self._observe(tail_handle, tail_banks, src_banks)
        self._observe(slot_handle, slot_banks, src_banks)
        self.rec.traffic.record(src_banks[rt], tail_banks[rt], _IND_REQ_BYTES,
                                MessageClass.CONTROL)
        self.rec.add_bank_atomics(tail_banks)
        self.rec.add_remote_reqs(tail_banks[rt])
        rs = src_banks != slot_banks
        self.rec.traffic.record(src_banks[rs], slot_banks[rs], payload_bytes,
                                MessageClass.DATA)
        self.rec.add_bank_accesses(slot_banks)
        self.rec.add_remote_reqs(slot_banks[rs])
        self.rec.add_near_ops(src_banks, 1.0)

    # ------------------------------------------------------------------
    def core_compute(self, cores, ops) -> None:
        """Miscellaneous core-side work (setup, scalar reductions)."""
        self.rec.add_core_ops(np.asarray(cores, dtype=np.int64),
                              np.asarray(ops, dtype=np.float64))
