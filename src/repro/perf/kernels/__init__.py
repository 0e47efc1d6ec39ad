"""The sequential Eq. 4 loop and the address resolver, on one kernel
path per platform.

The simulator's batch paths are vectorized, but the Eq. 4 bank-select
loop is sequential — every choice shifts the load the next choice sees
— and DESIGN §7 called it the Amdahl wall of fig12.  This package runs
that loop on one of two backends:

* ``c`` — the loops compiled from a shipped C source by the *system*
  compiler at first use (cached .so, loaded via ctypes,
  ``-ffp-contract=off``); or
* ``python`` — numpy-only incremental Eq. 4 scoring through a per-chunk
  *division table* (exact — every table element carries the same IEEE
  roundings as the scalar chain; see
  :mod:`repro.perf.kernels.pybackend` and DESIGN §12).

The registry resolves once, by observation: ``c`` when the shipped C
kernels built, else ``python``.  Both are bit-identical to the scalar
originals in ``tests/oracles.py`` by contract
(tests/test_kernels_equivalence.py), so the choice moves throughput,
never a result.  :func:`set_backend` switches in-process for the
equivalence tests, which compare the two.

The backend surface:

``eq4(sizes, refs, rows, loads, h, penalty)``
    Sequential Eq. 4 over ``n = sizes.size`` allocations; mutates the
    ``loads`` working copy.  Allocation ``i`` scores the mean of
    ``rows[r]`` over its group, the next ``sizes[i]`` entries of
    ``refs`` (a zero row for an empty group); a negative ref ``-(p +
    1)`` stands for the bank chosen for allocation ``p < i``, with
    bank-indexed ``rows``.  The runtime passes the transposed hop table
    as ``rows`` (CSR groups of affinity banks, one group per call for
    ``malloc_irregular``, one-ref groups naming predecessors for lists
    and trees); INT003 passes per-tenant hop rows.  No whole ``(n,
    nb)`` matrix is held: the C loop builds one row at a time, the
    python one a block of rows.
``resolve(...)`` (``c`` only)
    Element index or virtual address -> L3 bank, physical line and
    pre-remap bank in one pass: :meth:`repro.machine.Machine.resolve`
    calls it when the active backend has it.  Its python implementation
    is the numpy chain ``Machine._resolve_chain``, which also answers
    for every element the loop rejects, so errors carry the chain's
    exception.

Both backends run :func:`repro.perf.kernels.inputs.check_inputs` before
the loop, so a malformed batch raises :class:`ValueError` with
``loads`` untouched.  The executor's dedup/accounting kernels have one
implementation and live in :mod:`repro.perf.kernels.pybackend`.
"""

from __future__ import annotations

from types import ModuleType
from typing import Dict, Optional, Tuple

from repro.perf.kernels import pybackend

__all__ = [
    "available_backends",
    "backend_info",
    "get_backend",
    "set_backend",
]

_active: Optional[ModuleType] = None


def _c_backend() -> Optional[ModuleType]:
    """The C backend when it compiled (imports — and builds — lazily)."""
    from repro.perf.kernels import cbackend
    return cbackend if cbackend.AVAILABLE else None


def available_backends() -> Tuple[str, ...]:
    """Backends that can execute in this interpreter, python first."""
    return ("python", "c") if _c_backend() is not None else ("python",)


def set_backend(name: str) -> str:
    """Switch the active backend in-process; returns its name.

    Accepts ``"python"`` or ``"c"`` and raises :class:`ValueError` for
    anything else, including ``"c"`` where no compiler built it."""
    global _active
    backend = {"python": pybackend, "c": _c_backend()}.get(name)
    if backend is None:
        raise ValueError(f"kernel backend {name!r} is not available here; "
                         f"choose from {available_backends()}")
    _active = backend
    return backend.NAME


def get_backend() -> ModuleType:
    """The active backend module: ``c`` when it built, else ``python``."""
    global _active
    if _active is None:
        _active = _c_backend() or pybackend
    return _active


def backend_info() -> Dict[str, Optional[str]]:
    """Attribution block for BENCH_*.json, perfbench and ``repro info``."""
    active = get_backend()
    return {"kernels": active.NAME,
            "cc": getattr(active, "COMPILER", None)}
