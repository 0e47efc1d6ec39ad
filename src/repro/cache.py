"""Content-addressed on-disk artifact cache.

The harness regenerates the same Kronecker/power-law graphs and the same
experiment metric tables over and over — across figures, across benchmark
files, across CLI invocations.  This module trades a little disk for all
of that recomputation, the same co-locate-vs-recompute tradeoff the
source paper optimizes in hardware.

Keys are SHA-256 digests of a canonical JSON encoding of
``(kind, generator version, numpy version, parameters)``; values are
uncompressed ``.npz`` blobs (graph arrays and seeded workload inputs)
or ``.json`` blobs (experiment metric summaries).  The numpy version is
keyed because cached arrays are ``Generator`` draws, and numpy does not
promise the same streams across versions (NEP 19): a cache filled under
another numpy must miss, not serve inputs a fresh run would not draw.  The
cache is safe under concurrent writers: every write goes to a tempfile in
the cache directory followed by an atomic :func:`os.replace`, so readers
only ever see complete entries and the last concurrent writer of one key
wins with an identical payload (keys are content-addressed — two writers
of the same key are writing the same bytes).

Knobs (all optional):

* ``REPRO_CACHE_DIR``      — cache directory (default ``~/.cache/repro``).
* ``REPRO_CACHE_MAX_BYTES``— LRU size cap (default 2 GiB).
* ``REPRO_NO_CACHE``       — ``1``/``true`` disable the cache
  process-wide; ``0``/``false``/empty leave it on.
* :meth:`ArtifactCache.disabled` / ``configure(enabled=False)`` — the
  programmatic / ``--no-cache`` escape hatch.

A cache directory that is (or sits under) a regular file, a byte count
that is not a non-negative integer, or any other ``REPRO_NO_CACHE``
value raises :class:`CacheConfigError` when the cache is built.

Corrupted entries (truncated ``.npz`` after a crash, hand-edited JSON)
are treated as misses: the entry is deleted and regenerated, never
raised to the caller.  Every hit reads its file (there is no in-process
copy), so damage is seen on the next read.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Collection, Dict, Optional

import numpy as np

__all__ = [
    "GENERATOR_VERSION",
    "ArtifactCache",
    "CacheConfigError",
    "get_cache",
    "configure",
    "cache_key",
    "array_ok",
    "cached_arrays",
    "cached_graph",
]

#: Bump whenever a generator/experiment changes its output for the same
#: parameters — every old cache entry is invalidated at once.
GENERATOR_VERSION = 1

DEFAULT_MAX_BYTES = 2 << 30  # 2 GiB

#: ``REPRO_NO_CACHE`` values and whether each disables the cache.
_NO_CACHE_VALUES = {"": False, "0": False, "false": False,
                    "1": True, "true": True}


def _canonical(obj):
    """Reduce parameters to a deterministic JSON-encodable form."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, float):
        # repr round-trips exactly; 0.1 and 0.1000...01 stay distinct
        return float(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, os.PathLike):
        return os.fspath(obj)
    raise TypeError(f"unhashable cache parameter {obj!r} ({type(obj).__name__})")


def cache_key(kind: str, **params) -> str:
    """SHA-256 content address of ``(kind, GENERATOR_VERSION, numpy
    version, params)``."""
    payload = json.dumps(
        {"kind": kind, "version": GENERATOR_VERSION,
         "numpy": np.__version__, "params": _canonical(params)},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class CacheConfigError(ValueError):
    """A cache location, ``REPRO_CACHE_*`` or ``REPRO_NO_CACHE`` value
    that cannot work; the CLI reports it as a usage error (exit 2)."""


def _env_bytes(name: str, default: int) -> int:
    """A non-negative byte count from environment variable ``name``."""
    raw = os.environ.get(name, "")
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = -1  # reported below, like a negative count
    if value < 0:
        raise CacheConfigError(
            f"{name}={raw!r}: expected a non-negative byte count")
    return value


def _env_no_cache() -> bool:
    """Whether ``REPRO_NO_CACHE`` disables the cache."""
    raw = os.environ.get("REPRO_NO_CACHE", "")
    if raw not in _NO_CACHE_VALUES:
        raise CacheConfigError(
            f"REPRO_NO_CACHE={raw!r}: expected one of "
            + ", ".join(repr(v) for v in _NO_CACHE_VALUES))
    return _NO_CACHE_VALUES[raw]


def _check_root(root: Path) -> None:
    """Reject a cache root that is, or sits under, a non-directory."""
    for path in (root, *root.parents):
        if path.exists():
            if not path.is_dir():
                raise CacheConfigError(
                    f"cache directory {str(root)!r} is unusable: "
                    f"{str(path)!r} is not a directory")
            return


class ArtifactCache:
    """A directory of content-addressed ``.npz``/``.json`` artifacts."""

    def __init__(self, root: Optional[os.PathLike] = None,
                 max_bytes: Optional[int] = None,
                 enabled: Optional[bool] = None):
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or (
                Path.home() / ".cache" / "repro")
        self.root = Path(root)
        _check_root(self.root)
        if max_bytes is None:
            max_bytes = _env_bytes("REPRO_CACHE_MAX_BYTES", DEFAULT_MAX_BYTES)
        self.max_bytes = max_bytes
        if enabled is None:
            enabled = not _env_no_cache()
        self.enabled = enabled
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def path_for(self, key: str, suffix: str) -> Path:
        return self.root / f"{key}{suffix}"

    def _touch(self, path: Path) -> None:
        """Refresh mtime so LRU eviction sees the entry as recently used."""
        with contextlib.suppress(OSError):
            os.utime(path, None)

    def _atomic_write(self, path: Path, writer: Callable[[object], None],
                      mode: str = "wb") -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, mode) as fh:
                writer(fh)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def _drop(self, path: Path) -> None:
        with contextlib.suppress(OSError):
            path.unlink()

    # ----------------------------- npz --------------------------------
    def get_arrays(self, key: str) -> Optional[Dict[str, np.ndarray]]:
        """Load an ``.npz`` entry; any read error is a miss (and deletes)."""
        if not self.enabled:
            return None
        path = self.path_for(key, ".npz")
        try:
            with np.load(path, allow_pickle=False) as zf:
                out = {name: zf[name] for name in zf.files}
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:  # truncated/corrupt — regenerate, don't crash
            self._drop(path)
            self.misses += 1
            return None
        self.hits += 1
        self._touch(path)
        return out

    def drop_arrays(self, key: str) -> None:
        """Forget an ``.npz`` entry."""
        self._drop(self.path_for(key, ".npz"))

    def put_arrays(self, key: str, arrays: Dict[str, np.ndarray]) -> None:
        if not self.enabled:
            return
        path = self.path_for(key, ".npz")
        # Uncompressed: zlib dominated every load (and every cold write)
        # for a few MB of disk per entry; np.load reads either format.
        self._atomic_write(path, lambda fh: np.savez(fh, **arrays))
        self.evict()

    # ----------------------------- json -------------------------------
    def get_json(self, key: str):
        if not self.enabled:
            return None
        path = self.path_for(key, ".json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                out = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            self._drop(path)
            self.misses += 1
            return None
        self.hits += 1
        self._touch(path)
        return out

    def put_json(self, key: str, obj) -> None:
        if not self.enabled:
            return
        path = self.path_for(key, ".json")
        data = json.dumps(obj, sort_keys=True, indent=1)
        self._atomic_write(
            path, lambda fh: fh.write(data), mode="w")
        self.evict()

    # --------------------------- eviction ------------------------------
    def size_bytes(self) -> int:
        return sum(p.stat().st_size for p in self._entries())

    def _entries(self):
        if not self.root.is_dir():
            return []
        out = []
        for p in sorted(self.root.iterdir()):
            if p.suffix in (".npz", ".json"):
                with contextlib.suppress(OSError):
                    p.stat()
                    out.append(p)
        return out

    def evict(self, max_bytes: Optional[int] = None) -> int:
        """Delete least-recently-used entries until under the size cap.

        Returns the number of entries removed.
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        entries = []
        for p in self._entries():
            with contextlib.suppress(OSError):
                st = p.stat()
                entries.append((st.st_mtime, st.st_size, p))
        total = sum(sz for _, sz, _ in entries)
        removed = 0
        entries.sort()  # oldest mtime first
        for _, sz, p in entries:
            if total <= cap:
                break
            self._drop(p)
            total -= sz
            removed += 1
        return removed

    def clear(self) -> None:
        for p in self._entries():
            self._drop(p)

    # --------------------------- control -------------------------------
    @contextlib.contextmanager
    def disabled(self):
        """Temporarily bypass the cache (the ``--no-cache`` path)."""
        prev, self.enabled = self.enabled, False
        try:
            yield self
        finally:
            self.enabled = prev

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (f"ArtifactCache({self.root}, {state}, "
                f"hits={self.hits}, misses={self.misses})")


# ----------------------------------------------------------------------
# Process-wide singleton
# ----------------------------------------------------------------------
_CACHE: Optional[ArtifactCache] = None


def get_cache() -> ArtifactCache:
    global _CACHE
    if _CACHE is None:
        _CACHE = ArtifactCache()
    return _CACHE


def configure(root: Optional[os.PathLike] = None,
              max_bytes: Optional[int] = None,
              enabled: Optional[bool] = None) -> ArtifactCache:
    """Replace the process-wide cache (tests, CLI ``--no-cache``, workers)."""
    global _CACHE
    _CACHE = ArtifactCache(root=root, max_bytes=max_bytes, enabled=enabled)
    return _CACHE


# ----------------------------------------------------------------------
# High-level helpers
# ----------------------------------------------------------------------
def _read_only(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` that refuses writes."""
    view = a.view()
    view.flags.writeable = False
    return view


def cached_arrays(kind: str,
                  builder: Callable[[], Dict[str, np.ndarray]], *,
                  names: Optional[Collection[str]] = None,
                  check: Optional[Callable[[Dict[str, np.ndarray]], bool]]
                  = None,
                  **params) -> Dict[str, np.ndarray]:
    """Memoize a dict of arrays on disk, keyed by ``(kind, params)``.

    ``builder`` must be deterministic in ``params``.  A hit reads the
    ``.npz`` entry; the arrays are the exact dtypes and values the
    builder returned, so a hit reads what a fresh build would give.  A
    missing or corrupt entry is rebuilt, and so is one whose array names
    differ from ``names`` (the names the builder returns; None accepts
    any) or that ``check`` rejects (called on every read of an entry
    with the right names; see :func:`array_ok`).  With the cache
    disabled the builder runs every time.

    The arrays are read-only views in every cache state (built or read
    from disk), so a caller that writes to one fails the same way cold
    and warm; a caller that must write copies first.
    """
    cache = get_cache()
    key = cache_key(kind, **params)
    arrays = cache.get_arrays(key)
    if arrays is not None:
        if ((names is None or set(arrays) == set(names))
                and (check is None or check(arrays))):
            return {name: _read_only(a) for name, a in arrays.items()}
        cache.drop_arrays(key)
    arrays = builder()
    if names is not None and set(arrays) != set(names):
        raise ValueError(f"{kind} builder returned arrays {sorted(arrays)}, "
                         f"expected {sorted(names)}")
    cache.put_arrays(key, arrays)
    return {name: _read_only(a) for name, a in arrays.items()}


def array_ok(a: np.ndarray, dtype, shape: Optional[tuple] = None,
             lo=None, hi=None) -> bool:
    """True when ``a`` has ``dtype`` and ``shape`` (None: any 1-D shape)
    and every value lies in ``[lo, hi)`` (either bound None: unbounded).

    The building block of :func:`cached_arrays` checks: a stored entry
    that fails it is rebuilt, so that a stale or hand-written payload
    can neither index out of range nor feed a run other numbers."""
    if a.dtype != np.dtype(dtype) or (
            a.ndim != 1 if shape is None else a.shape != tuple(shape)):
        return False
    if a.size == 0:
        return True
    return ((lo is None or bool(a.min() >= lo))
            and (hi is None or bool(a.max() < hi)))


def cached_graph(kind: str, builder: Callable[[], "object"], **params):
    """Memoize a CSR graph build on disk, keyed by its parameters.

    ``builder`` must be deterministic in ``params``; the graph is stored
    as its ``index``/``edges``(/``weights``) arrays through
    :func:`cached_arrays`.  A stored payload that does not form a valid
    CSR graph is dropped and rebuilt.
    """
    from repro.graphs.csr import CSRGraph

    def build() -> Dict[str, np.ndarray]:
        graph = builder()
        payload = {"index": graph.index, "edges": graph.edges}
        if graph.weights is not None:
            payload["weights"] = graph.weights
        return payload

    def graph(arrays: Dict[str, np.ndarray]) -> CSRGraph:
        return CSRGraph(arrays["index"], arrays["edges"],
                        arrays.get("weights"))

    try:
        return graph(cached_arrays(kind, build, **params))
    except (KeyError, ValueError):  # stale/corrupt payload: rebuild it
        get_cache().drop_arrays(cache_key(kind, **params))
    return graph(cached_arrays(kind, build, **params))
