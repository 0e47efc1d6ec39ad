"""Pre-vectorization originals of the simulator hot paths: test oracles.

The per-pair/per-region/per-entry Python loops in NoC routing, address
translation, IOT bank lookup, footprint registration, and batched
affinity scoring were replaced with precomputed incidence structures and
``searchsorted``/``bincount`` scatter-adds, and the affine stream kernel
moved from per-element to per-line-run accounting.  The originals live
on here, verbatim, as equivalence oracles:

* the hypothesis property suites
  (``tests/test_vectorized_equivalence.py``,
  ``tests/test_affine_equivalence.py``) check the vectorized paths
  against these on randomized inputs, and the vectorized paths must be
  *byte-identical* (same float bit patterns), not merely close;
* ``tests/test_oracle_fig12.py`` runs fig12 once shipped and once with
  every oracle installed by :func:`install` and requires equal rows.

If an equivalence test fails, the vectorized code is wrong — fix it,
don't reroute through this module.
"""

from __future__ import annotations

import types

import numpy as np

__all__ = [
    "pair_channel_loads_reference",
    "mesh_link_loads_reference",
    "translate_reference",
    "iot_banks_reference",
    "register_heap_footprint_reference",
    "affinity_hop_sums_reference",
    "affinity_hybrid_reference",
    "hybrid_select_batch_reference",
    "chained_hybrid_reference",
    "eq4_reference",
    "first_unique_reference",
    "first_unique_counts_reference",
    "affine_kernel_reference",
    "phase_resources_reference",
    "install_dense_phases",
    "install",
]


# ----------------------------------------------------------------------
# NoC routing
# ----------------------------------------------------------------------
def pair_channel_loads_reference(mesh, pair_flits: np.ndarray) -> np.ndarray:
    """Original per-pair loop of :func:`repro.arch.noc.pair_channel_loads`."""
    n = mesh.num_tiles
    loads = np.zeros(mesh.num_links + 2 * n, dtype=np.float64)
    inj = mesh.num_links
    ej = mesh.num_links + n
    for p in np.nonzero(pair_flits)[0]:
        s, d = divmod(int(p), n)
        if s == d:
            continue
        w = pair_flits[p]
        loads[inj + s] += w
        loads[ej + d] += w
        for link in mesh.route_links(s, d):
            loads[link] += w
    return loads


def mesh_link_loads_reference(mesh, src: np.ndarray, dst: np.ndarray,
                              weight: np.ndarray) -> np.ndarray:
    """Original route-walking loop of :meth:`repro.arch.mesh.Mesh.link_loads`."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weight = np.broadcast_to(np.asarray(weight, dtype=np.float64), src.shape)
    pair = src * mesh.num_tiles + dst
    pair_weight = np.bincount(pair, weights=weight,
                              minlength=mesh.num_tiles ** 2)
    loads = np.zeros(mesh.num_links, dtype=np.float64)
    nonzero = np.nonzero(pair_weight)[0]
    for p in nonzero:
        s, d = divmod(int(p), mesh.num_tiles)
        if s == d:
            continue
        for link in mesh.route_links(s, d):
            loads[link] += pair_weight[p]
    return loads


# ----------------------------------------------------------------------
# Address translation
# ----------------------------------------------------------------------
def translate_reference(space, vaddrs) -> np.ndarray:
    """Original per-unique-region loop of
    :meth:`repro.vm.layout.AddressSpace.translate`."""
    vaddrs = np.atleast_1d(np.asarray(vaddrs, dtype=np.int64))
    out = np.empty_like(vaddrs)
    idx = np.searchsorted(space._starts, vaddrs, side="right") - 1
    if (idx < 0).any():
        bad = vaddrs[idx < 0][0]
        raise RuntimeError(f"unmapped virtual address {int(bad):#x}")
    for rid in np.unique(idx):
        region = space._regions[rid]
        mask = idx == rid
        addrs = vaddrs[mask]
        if (addrs >= space._ends[rid]).any():
            bad = addrs[addrs >= space._ends[rid]][0]
            raise RuntimeError(f"unmapped virtual address {int(bad):#x}")
        out[mask] = region.translate(addrs)
    return out


# ----------------------------------------------------------------------
# IOT bank lookup
# ----------------------------------------------------------------------
def iot_banks_reference(iot, addrs: np.ndarray,
                        default_shift: int) -> np.ndarray:
    """Original per-entry mask loop of
    :meth:`repro.arch.iot.InterleaveOverrideTable.banks`."""
    addrs = np.asarray(addrs, dtype=np.int64)
    banks = (addrs >> default_shift) % iot.num_banks
    for start, end, shift in zip(iot._starts, iot._ends, iot._shifts):
        mask = (addrs >= start) & (addrs < end)
        if mask.any():
            banks[mask] = ((addrs[mask] - start) >> shift) % iot.num_banks
    return banks


# ----------------------------------------------------------------------
# Heap footprint registration
# ----------------------------------------------------------------------
def register_heap_footprint_reference(machine, vaddr: int, size: int) -> None:
    """Original per-page loop of ``Machine._register_heap_footprint``."""
    from repro.arch.address import align_up

    if size <= 0:
        return
    page = machine.config.page_size
    pos = vaddr
    end = vaddr + size
    while pos < end:
        page_end = min(end, align_up(pos + 1, page))
        machine.llc.register_range(machine.space.translate_one(pos),
                                   page_end - pos)
        pos = page_end


# ----------------------------------------------------------------------
# Batched affinity scoring
# ----------------------------------------------------------------------
def affinity_hop_sums_reference(alloc_ids: np.ndarray, banks: np.ndarray,
                                dist: np.ndarray, n: int) -> np.ndarray:
    """Original ``np.add.at`` row scatter of ``malloc_irregular_batch``:
    summed hop distance from every candidate bank to each allocation's
    affinity banks."""
    nb = dist.shape[0]
    hop_sums = np.zeros((n, nb), dtype=np.float64)
    np.add.at(hop_sums, alloc_ids, dist[:, banks].T)
    return hop_sums


# ----------------------------------------------------------------------
# Sequential bank-select loops (original bodies: fresh temporaries and a
# full ``loads.sum()`` every iteration)
# ----------------------------------------------------------------------
def hybrid_select_batch_reference(self, mean_hops, load, mesh) -> np.ndarray:
    """Original loop body of :meth:`HybridPolicy.select_batch`."""
    n, nb = mean_hops.shape
    loads = load.loads  # private working copy
    out = np.empty(n, dtype=np.int64)
    h = self.h
    total = loads.sum()
    for i in range(n):
        if h > 0 and total > 0:
            score = mean_hops[i] + h * (loads / (total / nb) - 1.0)
        else:
            score = mean_hops[i]
        b = int(np.argmin(score))
        out[i] = b
        loads[b] += 1.0
        total += 1.0
    for b, c in zip(*np.unique(out, return_counts=True)):
        load.record(int(b), float(c))
    return out


def affinity_hybrid_reference(self, alloc_ids: np.ndarray,
                              banks: np.ndarray, n: int) -> np.ndarray:
    """Original dense Eq. 4 select of ``malloc_irregular_batch``: the
    full ``(n, nb)`` mean-hop matrix from the ``np.add.at`` scatter,
    then the scalar select loop."""
    mean_hops = affinity_hop_sums_reference(
        alloc_ids, banks, self.mesh.hops_table(), n)
    counts = np.bincount(alloc_ids, minlength=n).astype(np.float64)
    counts[counts == 0] = 1.0
    mean_hops /= counts[:, None]
    return hybrid_select_batch_reference(self.policy, mean_hops, self.load,
                                         self.mesh)


def chained_hybrid_reference(self, prev_ids: np.ndarray,
                             head_banks: np.ndarray,
                             n: int, nb: int) -> np.ndarray:
    """Original loop body of ``malloc_irregular_chained``'s select."""
    dist = self.mesh.hops_to_all(np.arange(nb)).astype(np.float64)
    loads = self.load.loads  # working copy
    h = self.policy.h
    chosen = np.empty(n, dtype=np.int64)
    zeros = np.zeros(nb, dtype=np.float64)
    for i in range(n):
        p = prev_ids[i]
        if p >= 0:
            hops_row = dist[:, chosen[p]]
        elif head_banks[i] >= 0:
            hops_row = dist[:, head_banks[i]]
        else:
            hops_row = zeros
        if h > 0:
            total = loads.sum()
            if total > 0:
                score = hops_row + h * (loads / (total / nb) - 1.0)
            else:
                score = hops_row
        else:
            score = hops_row
        b = int(np.argmin(score))
        chosen[i] = b
        loads[b] += 1.0
    for b, c in zip(*np.unique(chosen, return_counts=True)):
        self.load.record(int(b), float(c))
    return chosen


def eq4_reference(sizes, refs, rows, loads, h, penalty):
    """Scalar Eq. 4 over affinity groups, the contract of the kernels'
    ``eq4``: step ``i`` sums the rows its group names in order from a
    zero row (a negative ref ``-(p + 1)`` reads the row of the bank
    chosen at step ``p``), divides once by the group size (1 for an
    empty group) and scores the mean with the original select loop
    body.  Returns the choices and the final loads."""
    nb = loads.size
    loads = loads.copy()
    out = np.empty(len(sizes), dtype=np.int64)
    total = loads.sum()
    pos = 0
    for i, k in enumerate(sizes):
        row = np.zeros(nb, dtype=np.float64)
        for r in refs[pos:pos + k]:
            row = row + rows[out[-r - 1] if r < 0 else r]
        pos += k
        row = row / max(k, 1)
        if h > 0 and total > 0:
            score = row + h * (loads / (total / nb) - 1.0)
        else:
            score = row
        if penalty is not None:
            score = score + penalty
        b = int(np.argmin(score))
        out[i] = b
        loads[b] += 1.0
        total += 1.0
    return out, loads


# ----------------------------------------------------------------------
# Executor dedup keys (original: unconditional np.unique sort)
# ----------------------------------------------------------------------
def first_unique_reference(key: np.ndarray) -> np.ndarray:
    """Original ``np.unique(key, return_index=True)`` of the executor's
    (core, line) dedup, without the sorted-input boundary scan."""
    if key.size == 0:
        return np.empty(0, dtype=np.intp)
    return np.unique(key, return_index=True)[1]


def first_unique_counts_reference(key: np.ndarray):
    if key.size == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty.copy()
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    return first, counts


# ----------------------------------------------------------------------
# Affine stream kernel (original: per-element translate/bank-map/dedup)
# ----------------------------------------------------------------------
def affine_kernel_reference(self, cores, ins, out=None,
                            ops_per_elem: float = 1.0,
                            repeat: float = 1.0) -> None:
    """Original per-element body of
    :meth:`repro.nsc.executor.StreamExecutor.affine_kernel`: every
    element of every stream is translated, bank-mapped and deduped.  The
    shipped kernel works on line runs and must match this bit for bit.

    Elementwise kernel ``out[i] = f(ins[0][i], ins[1][i], ...)``.

    Args:
        cores: core owning each iteration (array, iteration order).
        ins: input streams as (handle, element index) pairs; an
            ``AffineIndex`` is expanded to its index array first.
        out: optional output stream.
        ops_per_elem: compute ops per iteration.
        repeat: number of identical iterations this trace stands for.
    """
    from repro.arch.noc import MessageClass
    from repro.nsc.executor import _consecutive_dedup, _first_unique, _pair_key
    from repro.nsc.stream import AffineIndex

    cores = np.asarray(cores, dtype=np.int64)
    n = cores.size
    if n == 0:
        return

    def elems(h, i):
        if isinstance(i, AffineIndex):
            return i.expand(n, h.num_elem)
        return np.asarray(i)

    st = self._faults()
    in_bl = [self._banks_and_lines(h, elems(h, i)) for h, i in ins]
    out_bl = self._banks_and_lines(out[0], elems(*out)) if out else None

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
        self.rec.add_core_ops(cores, (ops_per_elem + 1.0) * repeat)
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
        else:
            banks = np.concatenate([b for b, _ in bls])
            lines = np.concatenate([l for _, l in bls])
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
            self.rec.add_stream_locality(banks.size * repeat,
                                         float(need.sum()) * repeat)
            self._observe(h, banks, cb, repeat)
            if need.any():
                src_b, dst_b, counts = self._group_pairs(
                    lines[need], banks[need], cb[need],
                    np.ones(int(need.sum()), dtype=np.int64))
                self.rec.traffic.record(
                    src_b, dst_b,
                    np.minimum(counts * h.elem_size, self.line),
                    MessageClass.DATA, count=repeat)
        else:
            # pure read: the stream computes at its own banks
            self.rec.add_stream_locality(banks.size * repeat, 0.0)
        self._migrations(bls[0][0], bls[0][1], cores, repeat)
    if out_bl is not None:
        obanks, olines = out_bl
        new = _consecutive_dedup(olines, cores)
        self.rec.add_bank_accesses(obanks[new], repeat)
        self.rec.add_stream_locality(obanks.size * repeat, 0.0)
        self._migrations(obanks, olines, cores, repeat)
        self._offload_config(*self._config_pairs(cores, obanks), repeat=repeat)
        self.rec.add_near_ops(obanks, ops_per_elem * repeat)
    else:
        self.rec.add_near_ops(in_bl[0][0], ops_per_elem * repeat)
    self._credits(cores, consumer_banks, repeat)


# ----------------------------------------------------------------------
# Phase timing on dense pair deltas
# ----------------------------------------------------------------------
def phase_resources_reference(model, phase, pair_flits) -> dict:
    """Original :meth:`repro.perf.model.PerfModel._phase_resources`,
    from the days a phase record held its dense per-class pair deltas:
    the link term expands their sum on the model's mesh as it stands
    when the run is evaluated."""
    from repro.arch.noc import pair_channel_loads

    p = model.perf
    t_core = float(phase.core_ops.max()) / p.core_ops_per_cycle if phase.core_ops.size else 0.0
    bank_busy = (phase.bank_line_accesses * p.bank_access_cycles
                 + phase.bank_atomics * p.atomic_access_cycles
                 + phase.bank_remote_reqs * p.remote_req_cycles
                 + phase.bank_near_ops / p.bank_ops_per_cycle)
    t_bank = float(bank_busy.max()) if bank_busy.size else 0.0
    total_pair = sum(pair_flits.values())
    t_link = float(pair_channel_loads(model.machine.mesh, total_pair).max())
    t_serial = float(phase.core_serial_cycles.max()) if phase.core_serial_cycles.size else 0.0
    return {"core": t_core, "bank": t_bank,
            "link": t_link, "serial": t_serial}


def install_dense_phases(monkeypatch) -> None:
    """Rebuild every phase's dense per-class pair deltas from snapshots
    of the accountant's cumulative pair counts, taken after each
    ``end_phase``, and time them as the model once did.

    Each :class:`~repro.perf.model.RunResult` then carries
    ``dense_phase_resources`` and ``dense_phase_cycles``, the
    reference counterparts of ``phase_resources`` and ``phase_cycles``.
    """
    from repro.arch.noc import MessageClass
    from repro.perf.model import PerfModel
    from repro.perf.stats import RunRecorder

    end_phase = RunRecorder.end_phase
    evaluate = PerfModel.evaluate

    def end_phase_and_snapshot(self, label):
        phase = end_phase(self, label)
        cumulative = self.__dict__.setdefault("dense_cumulative", [])
        cumulative.append({cls: self.traffic._pair_flits[cls].copy()
                           for cls in MessageClass})
        return phase

    def evaluate_and_retime(self, recorder, **kwargs):
        result = evaluate(self, recorder, **kwargs)
        cumulative = recorder.__dict__.get("dense_cumulative", [])
        assert len(cumulative) == len(recorder.phases)
        npairs = recorder.traffic._pair_flits[MessageClass.DATA].size
        prev = {cls: np.zeros(npairs, dtype=np.float64)
                for cls in MessageClass}
        resources = []
        for phase, now in zip(recorder.phases, cumulative):
            dense = {cls: now[cls] - prev[cls] for cls in MessageClass}
            resources.append((phase.label,
                              phase_resources_reference(self, phase, dense)))
            prev = now
        result.dense_phase_resources = resources
        result.dense_phase_cycles = [(lbl, max(res.values()))
                                     for lbl, res in resources]
        return result

    monkeypatch.setattr(RunRecorder, "end_phase", end_phase_and_snapshot)
    monkeypatch.setattr(PerfModel, "evaluate", evaluate_and_retime)


# ----------------------------------------------------------------------
# Installing every oracle at once
# ----------------------------------------------------------------------
def install(monkeypatch) -> None:
    """Route every vectorized hot path through its original, using
    pytest's ``monkeypatch`` (undone at the end of the test).

    Clean runs only: the Eq. 4 originals predate fault masks and raise
    ``NotImplementedError`` when handed one.
    """
    from repro.arch import iot as iot_mod
    from repro.arch import mesh as mesh_mod
    from repro.arch import noc as noc_mod
    from repro.core import policy as policy_mod
    from repro.nsc import executor as executor_mod
    from repro.vm import layout as layout_mod
    from repro import machine as machine_mod

    def _uncached_channel_loads(self):
        return noc_mod.pair_channel_loads(
            self.mesh, sum(self._pair_flits.values()))

    def _per_instance_hops(self):
        if self._pair_hops is None:
            n = self.mesh.num_tiles
            idx = np.arange(n * n)
            self._pair_hops = self.mesh.hops(idx // n, idx % n).astype(np.float64)
        return self._pair_hops

    # The shipped signatures grew fault masks and raw-bank lookups after
    # these originals were frozen.  The wrappers below keep the original
    # loops verbatim while accepting the newer call shapes.
    def _iot_banks_compat(self, addrs, default_shift, apply_remap=True):
        addrs = np.asarray(addrs, dtype=np.int64)
        banks = iot_banks_reference(self, addrs, default_shift)
        if self._mig:
            banks = self._apply_migrations(addrs, banks)
        if apply_remap and self._remap is not None:
            return self._remap[banks]
        return banks

    def _clean_only(mask):
        if mask is not None:
            raise NotImplementedError(
                "the Eq. 4 originals predate fault masks")

    class _RowsMesh:
        """The hop table the originals read, rebuilt from the kernel's
        rows (``rows[b]`` is every bank's distance to ``b``)."""

        def __init__(self, rows):
            self._table = np.asarray(rows).T

        def hops_table(self):
            return self._table

        def hops_to_all(self, targets):
            return self._table[:, np.asarray(targets)]

    def _select_batch_compat(self, sizes, refs, rows, load, mask=None):
        """The one shipped selection, routed to the original that
        covers the batch: the chained loop when a ref names an earlier
        choice, else the CSR-grouped dense path (which runs the original
        select loop on its mean-hop matrix)."""
        _clean_only(mask)
        sizes = np.asarray(sizes, dtype=np.int64)
        refs = np.asarray(refs, dtype=np.int64)
        n = sizes.size
        alloc = types.SimpleNamespace(policy=self, load=load,
                                      mesh=_RowsMesh(rows))
        if not (refs < 0).any():
            alloc_ids = np.repeat(np.arange(n), sizes)
            return affinity_hybrid_reference(alloc, alloc_ids, refs, n)
        if sizes.size and int(sizes.max()) > 1:
            raise NotImplementedError(
                "the chained original takes one-ref groups only")
        prev_ids = np.full(n, -1, dtype=np.int64)
        head_banks = np.full(n, -1, dtype=np.int64)
        ones = sizes == 1
        prev_ids[ones] = np.where(refs < 0, -refs - 1, -1)
        head_banks[ones] = np.where(refs < 0, -1, refs)
        return chained_hybrid_reference(alloc, prev_ids, head_banks, n,
                                        load.num_banks)

    patch = monkeypatch.setattr
    patch(noc_mod, "pair_channel_loads", pair_channel_loads_reference)
    patch(noc_mod.TrafficAccountant, "_channel_loads", _uncached_channel_loads)
    patch(noc_mod.TrafficAccountant, "_hops_per_pair", _per_instance_hops)
    patch(mesh_mod.Mesh, "link_loads", mesh_link_loads_reference)
    patch(layout_mod.AddressSpace, "translate", translate_reference)
    patch(iot_mod.InterleaveOverrideTable, "banks", _iot_banks_compat)
    patch(machine_mod.Machine, "_register_heap_footprint",
          register_heap_footprint_reference)
    # The compiled resolver would bypass the two originals above.
    patch(machine_mod.Machine, "resolve", machine_mod.Machine._resolve_chain)
    patch(policy_mod.HybridPolicy, "select_batch", _select_batch_compat)
    patch(executor_mod, "_first_unique", first_unique_reference)
    patch(executor_mod, "_first_unique_counts", first_unique_counts_reference)
    patch(executor_mod.StreamExecutor, "affine_kernel", affine_kernel_reference)
