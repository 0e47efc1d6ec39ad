"""Numpy-only kernel backend (always available; the default oracle).

Eq. 4's loop is sequential by construction — each choice bumps the
chosen bank's load, shifting the balance term every later step sees.
:func:`eq4` runs it through one loop, :func:`_eq4`, fed one hop row
per step: a block of precomputed group means, or, when the batch's
affinity names its own earlier choices, a row built as the step runs.

:func:`_eq4` scores *incrementally through a division table*, and it is
exact, not approximate.  Loads only ever change by ``+= 1.0`` inside
the loop, so while they stay integer-valued the load term
``fl(fl(fl(L / t_i) - 1) * h)`` can only take ``band × K`` distinct
values per chunk of K steps: one per (integer load value L, step
divisor ``t_i = (total0 + i) / nb``) pair.  That table is built with
three vectorized ufunc passes in the *same in-place op order* as the
scalar loop, so every element carries the bits the scalar chain would
produce.  Each step then collapses to a gather of the current loads'
column, one add of the hop row (plus the optional penalty row, in the
same order) and an ``argmin``.

Exactness needs ``total`` and the loads to stay integer-valued
(< 2**52) so ``total0 + i`` and the band indices carry no rounding.
The guards are checked, and anything else (fractional loads, ``h <
0``, a load band wider than ``_MAX_BAND``) finishes on the original
scalar loop.  See DESIGN §12 for the full argument.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.perf.kernels.inputs import check_inputs

NAME = "python"

__all__ = ["NAME", "eq4", "first_unique", "first_unique_counts",
           "consecutive_dedup", "migration_pairs", "credit_roundtrips",
           "shrink_key"]


# ----------------------------------------------------------------------
# Eq. 4 bank-select
# ----------------------------------------------------------------------

#: Division-table chunk length.  Larger chunks amortize the table
#: build over more steps but widen the load band the table must cover;
#: 128 is the measured knee for the paper's 64-bank mesh.
_CHUNK = 128

#: Widest integer load band (max load − min load + chunk) the table is
#: built for.  Balanced Eq. 4 batches stay within a few hundred; a
#: pathologically skewed tracker falls back to the sequential loop
#: rather than allocating a huge table.
_MAX_BAND = 4096


#: Rows of the mean-hop matrix :func:`eq4` holds at once
#: (a multiple of ``_CHUNK``): 8192 x 64 banks x 8 B = 4 MiB, where the
#: whole matrix of a paper-scale Linked CSR build is 337 MB.
_BLOCK_CHUNKS = 64


def _eq4(n: int, hops_of: Callable[[int], np.ndarray], loads: np.ndarray,
         total: float, h: float, penalty: Optional[np.ndarray],
         out: np.ndarray) -> float:
    """Sequential Eq. 4 over ``n`` steps; step ``i`` scores the hop row
    ``hops_of(i)`` (plus ``penalty``, when given) against the running
    loads.  Fills ``out``, mutates ``loads`` in place exactly as the
    scalar loop would and returns the running total after the last
    step, so a batch can continue in a later call with the same bits.

    ``hops_of(i)`` is called once per step, in step order, after every
    earlier choice is in ``out``."""
    nb = loads.size
    i = 0
    # The division table needs the running divisors t_i = (total0 + i)
    # / nb to carry the exact bits of `total += 1.0` and the loads to
    # index an integer band; that holds only for integer values below
    # 2**52 and h > 0 (h < 0 flips the scalar loop onto its hops-only
    # branch).  Anything else takes the scalar loop below unchanged.
    if (h > 0 and np.isfinite(h) and total == np.floor(total)
            and total + n < 2.0 ** 52
            and bool(np.all(loads == np.floor(loads)))):
        # The scalar loop scores by hops alone until the first
        # allocation lands (total == 0); replay that before any table.
        while total == 0.0 and i < n:
            row = hops_of(i)
            if penalty is not None:
                row = row + penalty
            b = int(row.argmin())
            out[i] = b
            loads[b] += 1.0
            total += 1.0
            i += 1
        loads_i = loads.astype(np.int64)
        while i < n:
            k = min(_CHUNK, n - i)
            lmin = int(loads_i.min())
            band = int(loads_i.max()) - lmin + k + 1
            if band > _MAX_BAND:
                break  # skewed load band: finish on the scalar loop
            # table[j, L - lmin] is the load term a bank holding L
            # allocations scores at step i + j — the same divide / -1.0
            # / *h chain as the scalar body, rounded per element exactly
            # like the scalar ops, so the gathered values are
            # bit-identical.
            t_col = (total + np.arange(k, dtype=np.float64)) / nb
            table = np.divide(
                np.arange(lmin, lmin + band, dtype=np.float64)[None, :],
                t_col[:, None])
            table -= 1.0
            table *= h
            idx = loads_i - lmin
            for j in range(k):
                row = table[j][idx]
                row += hops_of(i + j)
                if penalty is not None:
                    row += penalty
                b = int(row.argmin())
                out[i + j] = b
                idx[b] += 1
            np.add(idx, lmin, out=loads_i)
            total += float(k)
            i += k
        loads[:] = loads_i

    # The original scalar loop, verbatim op order (the exact oracle).
    score = np.empty(nb, dtype=np.float64)
    for i in range(i, n):
        hops = hops_of(i)
        if h > 0 and total > 0:
            np.divide(loads, total / nb, out=score)
            score -= 1.0
            score *= h
            score += hops
            if penalty is not None:
                score += penalty
            b = int(score.argmin())
        elif penalty is not None:
            b = int((hops + penalty).argmin())
        else:
            b = int(hops.argmin())
        out[i] = b
        loads[b] += 1.0
        total += 1.0
    return total


def _select_rows(mean_hops: np.ndarray, loads: np.ndarray, total: float,
                 h: float, penalty: Optional[np.ndarray],
                 out: np.ndarray) -> float:
    """:func:`_eq4` over the rows of ``mean_hops`` from a given running
    ``total`` (the scalar loop's ``total``, which equals ``loads.sum()``
    only while the loads are integers); returns the new total."""
    n = mean_hops.shape[0]
    if h == 0 and n:
        # Min-Hop: scores never read the loads, so the whole batch
        # collapses to one row-wise argmin (first-index ties preserved).
        out[:] = (mean_hops if penalty is None
                  else mean_hops + penalty).argmin(axis=1)
        np.add.at(loads, out, 1.0)
        return total + n
    return _eq4(n, mean_hops.__getitem__, loads, total, h, penalty, out)


def _group_means(offsets: np.ndarray, refs: np.ndarray,
                 rows: np.ndarray) -> np.ndarray:
    """Mean of ``rows[refs[offsets[i]:offsets[i + 1]]]`` per group, a
    zero row for an empty group.

    Each group's rows are summed in group order starting from 0.0, one
    group position per pass over all groups, so every sum carries the C
    loop's bits whatever the rows hold; then one division by the group
    size (1.0 for an empty group)."""
    sizes = np.diff(offsets)
    # Largest groups first, so the groups with a j-th ref are a prefix.
    order = np.argsort(-sizes, kind="stable")
    desc, starts = sizes[order], offsets[:-1][order]
    acc = np.zeros((sizes.size, rows.shape[1]), dtype=np.float64)
    for j in range(int(desc[0]) if desc.size else 0):
        c = int(np.count_nonzero(desc > j))
        acc[:c] += rows[refs[starts[:c] + j]]
    acc /= np.maximum(desc, 1).astype(np.float64)[:, None]
    means = np.empty_like(acc)
    means[order] = acc
    return means


def eq4(sizes: np.ndarray, refs: np.ndarray, rows: np.ndarray,
        loads: np.ndarray, h: float,
        penalty: Optional[np.ndarray]) -> np.ndarray:
    """Sequential Eq. 4 over a batch of ``n = sizes.size`` allocations.

    Allocation ``i`` scores every bank by the mean of ``rows[r]`` over
    its group, the next ``sizes[i]`` entries ``r`` of ``refs`` (a zero
    row when the group is empty).  A negative ref ``-(p + 1)`` stands
    for the bank chosen for allocation ``p < i``, so ``rows`` must then
    be bank-indexed.

    Args:
        sizes: ``(n,)`` group sizes, summing to ``refs.size``.
        refs: ``(k,)`` row indices, group after group.
        rows: ``(r, nb)`` float64 hop rows (for the runtime, the
            transposed hop table: ``rows[b]`` is every bank's distance
            to bank ``b``).
        loads: the caller's working copy of the per-bank loads; mutated
            in place exactly as the scalar loop would.
        h: the policy's load weight (finite, >= 0).
        penalty: optional ``(nb,)`` additive row (0.0 healthy / inf
            failed) for the chaos-degraded path, or None.

    Without negative refs the mean rows are built one block of
    ``_BLOCK_CHUNKS * _CHUNK`` allocations at a time, with ``loads``
    and the running total carried across blocks, so no ``(n, nb)``
    matrix is held and the bits are those of one pass.  With them, each
    step builds its row once the choices it names are made.

    Returns the chosen bank per allocation, bit-identical to the scalar
    loop (the oracles in ``tests/oracles.py``)."""
    sizes = np.asarray(sizes, dtype=np.int64)
    refs = np.asarray(refs, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.float64)
    check_inputs(sizes, refs, rows, loads, penalty)
    n = sizes.size
    out = np.empty(n, dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    total = float(loads.sum())
    if refs.size and int(refs.min()) < 0:
        _eq4(n, _chained_rows(offsets, refs, rows, out), loads, total, h,
             penalty, out)
        return out
    block = _BLOCK_CHUNKS * _CHUNK
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        total = _select_rows(_group_means(offsets[lo:hi + 1], refs, rows),
                             loads, total, h, penalty, out[lo:hi])
    return out


def _chained_rows(offsets: np.ndarray, refs: np.ndarray, rows: np.ndarray,
                  chosen: np.ndarray) -> Callable[[int], np.ndarray]:
    """``hops_of`` for :func:`_eq4` when refs name earlier choices: step
    ``i`` resolves its negative refs through ``chosen``, which holds
    every earlier step's bank by then.  A one-ref group reads its row
    directly (the mean of one row is the row, exactly)."""
    offs, refl = offsets.tolist(), refs.tolist()
    zeros = np.zeros(rows.shape[1], dtype=np.float64)

    def bank(r: int) -> int:
        return int(chosen[-r - 1]) if r < 0 else r

    def hops_of(i: int) -> np.ndarray:
        lo, hi = offs[i], offs[i + 1]
        if hi - lo == 1:
            return rows[bank(refl[lo])]
        if hi == lo:
            return zeros
        return rows[[bank(r) for r in refl[lo:hi]]].sum(axis=0) / (hi - lo)

    return hops_of


# ----------------------------------------------------------------------
# Executor dedup / accounting kernels (one implementation; the executor
# calls them directly, whichever backend runs Eq. 4)
# ----------------------------------------------------------------------

def shrink_key(key: np.ndarray) -> np.ndarray:
    """Bias the key to its minimum and narrow to int32 when it fits.

    Subtracting a constant and narrowing the dtype are strictly
    monotone, so ``np.unique``'s sort order — and therefore the
    first-occurrence indices the callers consume — is unchanged, while
    the radix sort runs half the passes over half the bytes."""
    lo = key.min()
    if int(key.max()) - int(lo) < (1 << 31):
        return (key - lo).astype(np.int32)
    return key


#: Use the O(n + span) scatter table instead of ``np.unique``'s sort
#: when the key span is at most this multiple of n (plus slack for
#: tiny inputs).  Beyond it the table's memory traffic loses to the
#: int32 radix sort.
_SCATTER_SLACK = 1024


def _scatter_table(key: np.ndarray, n: int) -> Optional[np.ndarray]:
    """First-occurrence index per key value (or None when too sparse).

    ``table[v - lo]`` is the index of the first occurrence of value
    ``v``, or -1 when absent.  Built with one reversed fancy
    assignment: numpy scatter keeps the *last* write per duplicate
    target, so writing indices in reverse order leaves the first."""
    lo = int(key.min())
    span = int(key.max()) - lo + 1
    if span > 4 * n + _SCATTER_SLACK:
        return None
    table = np.full(span, -1, dtype=np.intp)
    table[(key - lo)[::-1]] = np.arange(n - 1, -1, -1, dtype=np.intp)
    return table


def _is_sorted(key: np.ndarray) -> bool:
    """Non-decreasing test with a cheap 64-element head reject: unsorted
    inputs (the ones about to pay an argsort) almost always betray
    themselves immediately, so the full O(n) comparison pass is only
    spent on inputs that are still candidates for the O(n) scan path."""
    if key.size > 65 and not bool((key[1:65] >= key[:64]).all()):
        return False
    return bool((key[1:] >= key[:-1]).all())


def first_unique(key: np.ndarray) -> np.ndarray:
    """``np.unique(key, return_index=True)[1]``: index of the first
    occurrence of each distinct key, ordered by ascending key.

    Sorted inputs (traces mostly walk arrays in address order) take an
    O(n) boundary scan; dense unsorted keys take the O(n + span)
    scatter table — both identical to the ``np.unique`` sort, which
    remains the sparse-key fallback."""
    n = key.size
    if n == 0:
        return np.empty(0, dtype=np.intp)
    if _is_sorted(key):
        change = np.empty(n, dtype=bool)
        change[0] = True
        np.not_equal(key[1:], key[:-1], out=change[1:])
        return np.flatnonzero(change)
    table = _scatter_table(key, n)
    if table is not None:
        return table[table >= 0]
    starts = _collapse_runs(key, n)
    if starts is None:
        return _argsort_first(shrink_key(key))[0]
    first, _ = _argsort_first(shrink_key(key[starts]))
    return starts[first]


def _collapse_runs(key: np.ndarray, n: int) -> Optional[np.ndarray]:
    """Indices of consecutive-duplicate run starts, or None when runs
    are too short to pay for themselves.

    Executor line walks repeat each cache line ``line/elem_size`` times
    back to back, so the sparse unsorted keys about to pay an argsort
    typically shrink ~an order of magnitude under run collapse.  Every
    run start carries its run's original position, and the *first* run
    of a key starts at that key's first occurrence — so deduping the
    run starts and mapping through them is exactly deduping ``key``."""
    mask = np.empty(n, dtype=bool)
    mask[0] = True
    np.not_equal(key[1:], key[:-1], out=mask[1:])
    if 2 * int(np.count_nonzero(mask)) > n:
        return None
    return np.flatnonzero(mask)


def _argsort_first(key: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """First-occurrence indices and run boundaries via one stable sort.

    A stable argsort puts equal keys in original order, so the index at
    each run boundary of the sorted keys *is* the first occurrence —
    exactly what ``np.unique(key, return_index=True)`` computes, minus
    its second pass over the values."""
    order = np.argsort(key, kind="stable")
    sk = key[order]
    change = np.empty(key.size, dtype=bool)
    change[0] = True
    np.not_equal(sk[1:], sk[:-1], out=change[1:])
    return order[change], np.flatnonzero(change)


def first_unique_counts(key: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Like :func:`first_unique` but also returns the multiplicity of
    each distinct key (``np.unique(..., return_counts=True)``).

    The executor's per-core credit keys arrive sorted, so the O(n)
    boundary scan is the path that runs; anything else takes
    ``np.unique`` itself."""
    n = key.size
    if n and _is_sorted(key):
        change = np.empty(n, dtype=bool)
        change[0] = True
        np.not_equal(key[1:], key[:-1], out=change[1:])
        first = np.flatnonzero(change)
        counts = np.empty(first.size, dtype=np.intp)
        counts[:-1] = np.diff(first)
        counts[-1] = n - first[-1]
        return first, counts
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    return first, counts


def consecutive_dedup(values: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Mask of entries starting a new run of equal ``values`` within the
    same ``groups`` entry (both arrays in iteration order)."""
    if values.size == 0:
        return np.zeros(0, dtype=bool)
    first = np.ones(values.size, dtype=bool)
    first[1:] = (values[1:] != values[:-1]) | (groups[1:] != groups[:-1])
    return first


def migration_pairs(banks: np.ndarray,
                    groups: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(src, dst) bank pairs where a stream migrates between
    consecutive deduped touches of the same group."""
    moved = (banks[1:] != banks[:-1]) & (groups[1:] == groups[:-1])
    return banks[:-1][moved], banks[1:][moved]


def credit_roundtrips(counts: np.ndarray, credit_iters: float) -> np.ndarray:
    """Per-core credit round trips: one per ``credit_iters`` iterations."""
    return np.ceil(counts / credit_iters)
