"""Kernel backend compiled from C at first use (no wheel required).

Depending on a compiled-extension *wheel* would be a new dependency
while depending on the system ``cc`` is free: ``_ckernels.c`` (a page
of scalar loops mirroring the numpy op chain statement by statement)
is compiled once into a cached shared object and loaded through
ctypes.  The build is keyed by a hash of the source and the compiler
banner, so editing the C file or switching compilers rebuilds
automatically; any failure — no compiler, read-only tree and no
tempdir, cc dying — just flips ``AVAILABLE`` off and the registry
resolves to the python backend instead (bit-identical results, lower
throughput; never silent numeric drift).

Two things live in C: the sequential Eq. 4 loop — the Amdahl wall
DESIGN §12 profiles — and the address resolver behind
:meth:`repro.machine.Machine.resolve` (element or virtual address ->
L3 bank and physical line), which replaces a chain of numpy passes
with one pass per block of elements.  The executor's dedup kernels
stay in :mod:`repro.perf.kernels.pybackend`, whose vectorized forms
are already memory-bound (a C radix-sort dedup was tried and measured
slower than numpy's stable argsort on the workload's real sparse
keys, so it was dropped).

Exactness: compiled with ``-ffp-contract=off -fno-fast-math`` so the
Eq. 4 chain performs the same IEEE-754 binary64 roundings in the same
order as the numpy scalar ops (x86-64 SSE2 doubles carry no excess
precision), and the caller passes ``total`` from numpy's pairwise sum
so even the one reduction in the contract keeps numpy's bits.  The
resolver is integer-only, and wraps, shifts and floors like numpy's
int64 ops.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

from repro.perf.kernels.inputs import check_inputs

NAME = "c"

_SOURCE = Path(__file__).with_name("_ckernels.c")

_lib: Optional[ctypes.CDLL] = None
COMPILER: Optional[str] = None


def _compiler() -> Optional[str]:
    import shutil
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _build_dirs() -> list:
    dirs = [Path(__file__).parent / "_build"]
    try:
        dirs.append(Path(tempfile.gettempdir())
                    / f"repro-kernels-{os.getuid()}")
    except AttributeError:  # pragma: no cover - non-posix
        dirs.append(Path(tempfile.gettempdir()) / "repro-kernels")
    return dirs


def _compile() -> Optional[ctypes.CDLL]:
    global COMPILER
    cc = _compiler()
    if cc is None or not _SOURCE.is_file():
        return None
    source = _SOURCE.read_bytes()
    try:
        banner = subprocess.run(
            [cc, "--version"], capture_output=True, timeout=30,
        ).stdout.splitlines()[:1]
    except (OSError, subprocess.SubprocessError, IndexError):
        return None
    COMPILER = (banner[0].decode("utf-8", "replace").strip()
                if banner else cc)
    tag = hashlib.sha256(source + b"\0" + COMPILER.encode()).hexdigest()[:16]
    flags = ["-O2", "-fPIC", "-shared", "-ffp-contract=off",
             "-fno-fast-math"]
    for build_dir in _build_dirs():
        so_path = build_dir / f"_ckernels-{tag}.so"
        if so_path.is_file():
            try:
                return ctypes.CDLL(str(so_path))
            except OSError:
                pass
        try:
            build_dir.mkdir(parents=True, exist_ok=True)
            tmp = so_path.with_name(f".{so_path.name}.{os.getpid()}.tmp")
            subprocess.run(
                [cc, *flags, "-o", str(tmp), str(_SOURCE)],
                capture_output=True, timeout=120, check=True)
            os.replace(tmp, so_path)  # atomic vs concurrent builders
            return ctypes.CDLL(str(so_path))
        except (OSError, subprocess.SubprocessError):
            continue
    return None


_D = ctypes.POINTER(ctypes.c_double)
_I = ctypes.POINTER(ctypes.c_int64)
_P = ctypes.c_void_p


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.repro_eq4.restype = None
    lib.repro_eq4.argtypes = [
        _I, _I, _D, _D, ctypes.c_double, _D, _D, _I, ctypes.c_double,
        ctypes.c_int64, ctypes.c_int64, _I]
    # Addresses go in as plain integers; the resolver's tables cache
    # theirs.
    lib.repro_resolve.restype = ctypes.c_int64
    lib.repro_resolve.argtypes = [
        _P, _P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _P,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        _P, _P, _P, _P]
    return lib


_lib = _compile()
if _lib is not None:
    _bind(_lib)

AVAILABLE = _lib is not None


def _ptr(a: np.ndarray):
    return a.ctypes.data_as(_D if a.dtype == np.float64 else _I)


def _f64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def eq4(sizes, refs, rows, loads, h, penalty):
    """``repro_eq4`` over checked, contiguous inputs; see
    :func:`repro.perf.kernels.pybackend.eq4` for the contract.

    ``loads`` is staged through a float64 C-contiguous buffer when it is
    not one already and copied back after the loop, preserving the
    mutate-in-place contract; ``total`` is numpy's pairwise sum of it."""
    sz = np.ascontiguousarray(sizes, dtype=np.int64)
    rf = np.ascontiguousarray(refs, dtype=np.int64)
    rw = _f64(rows)
    check_inputs(sz, rf, rw, loads, penalty)
    n = sz.size
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    pen = None if penalty is None else _f64(penalty)
    buf = (loads if loads.dtype == np.float64 and loads.flags.c_contiguous
           else _f64(loads))
    idx = np.empty(max(int(sz.max()), 1), dtype=np.int64)
    _lib.repro_eq4(_ptr(sz), _ptr(rf), _ptr(rw), _ptr(buf), float(h),
                   None if pen is None else _ptr(pen),
                   _ptr(np.empty(buf.size)), _ptr(idx), float(buf.sum()), n,
                   buf.size, _ptr(out))
    if buf is not loads:
        loads[...] = buf
    return out


def resolve(space: int, iot: int, default_shift: int, line: int,
            kind: int, src: np.ndarray, base: int = 0, stride: int = 0,
            count: int = 0, table: Optional[np.ndarray] = None,
            lines: bool = False, raw: bool = False):
    """One pass of ``repro_resolve`` over the contiguous int64 ``src``:
    ``(banks, lines, raw)`` with None for what was not asked, or None
    when an element fails (the caller re-runs the numpy chain for its
    exception).  ``space`` and ``iot`` are the tables' addresses
    (:meth:`repro.vm.layout.AddressSpace.resolver_table`,
    :meth:`repro.arch.iot.InterleaveOverrideTable.resolver_table`);
    ``kind`` and the rest are as in ``_ckernels.c``."""
    n = src.size
    out = np.empty((1 + lines + raw, n), dtype=np.int64)
    if n:
        p = out.ctypes.data
        row = 8 * n
        bad = _lib.repro_resolve(
            space, iot, default_shift, line, kind, src.ctypes.data, n,
            base, stride, count,
            table.ctypes.data if table is not None else None,
            p, p + row if lines else None,
            p + row * (1 + lines) if raw else None)
        if bad >= 0:
            return None
    rows = iter(out)
    return (next(rows), next(rows) if lines else None,
            next(rows) if raw else None)
