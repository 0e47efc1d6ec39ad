"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public functions of each simulator layer from the
outside: it replaces class attributes (and a few module functions) with
timing wrappers, records one span per call, and puts every original
back on exit.  Nothing inside ``src/`` knows it is being traced.

A span is ``(layer, name, start, end, parent, sim)``: ``parent`` is the
index of the enclosing span (-1 for a root) and ``sim`` numbers the
simulation the span belongs to, so all spans of one ``run_workload``
call share an id.  A layer's self time is the summed duration of its
spans minus the part covered by their direct children.  The root span
of each simulation belongs to the ``workloads`` layer, so its self time
is the wall time no wrapped layer claimed.

Compiled Eq. 4 kernels are reached through ``repro.perf.kernels`` from
inside the policy and executor layers; they are deliberately not wrapped
and their time stays in the calling layer.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["LAYERS", "ROOT_LAYER", "SpanRecorder", "layer_metric_names"]

#: Layer of each simulation's root span; its self time is the remainder.
ROOT_LAYER = "workloads"

#: Boundary counts of one wrapped call: (metric suffix, fn(args, kwargs,
#: result) -> increment) pairs.
Counter = Tuple[Tuple[str, Callable], ...]


def _first_size(args, kwargs, result) -> float:
    return float(np.size(args[1]))


def _messages(args, kwargs, result) -> float:
    """Messages in one ``TrafficAccountant.record`` batch (same rule as the
    accountant's own ``message_count``)."""
    n = max(np.size(args[1]), np.size(args[2]))
    count = kwargs.get("count", 1)
    if np.ndim(count) == 0:
        return float(count) * n
    return float(np.sum(np.broadcast_to(count, (n,))))


def _one(args, kwargs, result) -> float:
    return 1.0


def _batch_rows(args, kwargs, result) -> float:
    return float(np.shape(args[1])[0])


def _hit(args, kwargs, result) -> float:
    return 0.0 if result is None else 1.0


#: Attribute list meaning "every public function the class defines".
PUBLIC = ("*",)

#: (layer, module, class, attributes, counters).  The class is None for
#: module functions and ``"*"`` for every class of the module that
#: defines the attribute itself; attributes ``PUBLIC`` wrap every
#: function, classmethod and staticmethod whose name has no leading
#: underscore, in the class' own namespace.
LAYERS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...], Counter], ...] = (
    ("nsc.affine", "repro.nsc.executor", "StreamExecutor",
     ("affine_kernel",), (("elems", _first_size),)),
    ("nsc.indirect", "repro.nsc.executor", "StreamExecutor",
     ("indirect_gather", "indirect_atomic", "queue_push"),
     (("elems", _first_size),)),
    ("nsc.indirect", "repro.nsc.executor", "StreamExecutor",
     ("pointer_chase",), (("elems", _first_size),)),
    ("vm", "repro.vm.layout", "AddressSpace",
     ("translate",), (("addrs", _first_size),)),
    ("arch.iot", "repro.arch.iot", "InterleaveOverrideTable",
     ("banks",), (("addrs", _first_size),)),
    ("arch.llc", "repro.arch.llc", "LlcModel",
     ("register_range", "register_spans", "register_by_banks",
      "miss_fraction_for_banks"), ()),
    ("arch.mesh", "repro.arch.mesh", "Mesh", PUBLIC, ()),
    ("arch.noc", "repro.arch.noc", "TrafficAccountant",
     ("record",), (("messages", _messages),)),
    ("arch.noc", "repro.arch.noc", "TrafficAccountant",
     ("link_loads", "eject_loads", "max_link_load", "mean_link_load",
      "utilization"), ()),
    ("core.runtime", "repro.core.runtime", "AffinityAllocator",
     ("__init__", "malloc_affine", "malloc_offset", "malloc_irregular",
      "malloc_irregular_batch", "malloc_irregular_chained", "malloc_aff",
      "free_aff", "realloc_aff"), ()),
    ("core.api", "repro.core.api", "ArrayHandle",
     ("addr_of", "addr_of_one", "banks", "bank_of_one", "all_banks",
      "lines_of"), ()),
    ("core.api", "repro.core.api", "AddressView",
     ("addr_of", "banks", "all_banks"), ()),
    ("core.policy", "repro.core.policy", "*",
     ("select",), (("selections", _one),)),
    ("core.policy", "repro.core.policy", "*",
     ("select_batch",), (("selections", _batch_rows),)),
    ("datastructs", "repro.datastructs.binary_tree", "BinaryTree", PUBLIC, ()),
    ("datastructs", "repro.datastructs.dist_queue", "*", PUBLIC, ()),
    ("datastructs", "repro.datastructs.dynamic_graph", "DynamicGraph",
     PUBLIC, ()),
    ("datastructs", "repro.datastructs.hash_table", "HashTable", PUBLIC, ()),
    ("datastructs", "repro.datastructs.linked_csr", "LinkedCSR", PUBLIC, ()),
    ("datastructs", "repro.datastructs.linked_list", "LinkedListSet",
     PUBLIC, ()),
    ("datastructs", "repro.datastructs.multiqueue", "MultiQueue", PUBLIC, ()),
    ("perf.stats", "repro.perf.stats", "RunRecorder",
     ("__init__",) + PUBLIC, ()),
    ("perf.model", "repro.perf.model", "PerfModel", ("evaluate",), ()),
    ("machine", "repro.machine", "Machine",
     ("__init__", "malloc", "paged_reserve", "paged_map", "translate",
      "banks_of", "bank_of"), ()),
    ("faults", "repro.faults.plan", "FaultPlan", ("generate",), ()),
    ("faults", "repro.faults.injector", "FaultState",
     ("note", "activate_run_phase", "take_alloc_fault", "any_failed",
      "policy_mask", "check_first_touch", "blocks_offload", "finalize"),
     ()),
    ("relayout", "repro.relayout.engine", "RelayoutState",
     ("observe_stream", "on_epoch_boundary"), ()),
    ("interfere", "repro.interfere.plan", "HostTrafficPlan",
     ("generate",), ()),
    ("interfere", "repro.interfere.engine", "InterferenceState",
     ("on_epoch",), ()),
    ("obs", "repro.obs.tracer", "TraceState",
     ("instant", "on_phase_end", "on_run_end", "on_alloc_stats"), ()),
    ("cache", "repro.cache", "ArtifactCache",
     ("get_arrays", "get_json"), (("gets", _one), ("hits", _hit))),
    ("cache", "repro.cache", "ArtifactCache",
     ("put_arrays", "put_json"), ()),
    # The workloads' functional model where it is a function of its own:
    # input generation and reference values.  Inline workload code stays
    # in the unattributed remainder.
    ("workloads.functional", "repro.workloads.affine_kernels", "_Stencil2D",
     ("_stencil_indices", "_functional_diffuse"), ()),
    ("workloads.functional", "repro.workloads.graph_kernels", None,
     ("_pagerank_functional", "_pull_scan", "bfs_iteration_stats"), ()),
    ("workloads.functional", "repro.workloads.vecadd", None,
     ("_functional_vecadd",), ()),
    ("workloads.functional", "repro.workloads.adversarial", None,
     ("_zipf_indices",), ()),
    ("workloads.context", "repro.workloads.base", "RunContext", PUBLIC, ()),
    ("workloads.graph_setup", "repro.workloads.graph_kernels", "GraphSetup",
     ("__init__",) + PUBLIC, ()),
    ("graphs", "repro.graphs.generators", None,
     ("_kronecker_build", "_powerlaw_build", "_uniform_build"), ()),
    ("graphs", "repro.graphs.datasets", None, ("_synthesize",), ()),
    ("graphs", "repro.graphs.csr", "CSRGraph", PUBLIC, ()),
)

#: Work counts per layer beyond ``self_s`` and ``calls`` (derived ratios
#: included), in report order.
EXTRA_METRICS: Dict[str, Tuple[str, ...]] = {
    "nsc.affine": ("elems",),
    "nsc.indirect": ("elems",),
    "vm": ("addrs",),
    "arch.iot": ("addrs",),
    "arch.noc": ("messages",),
    "core.runtime": ("allocs", "fallback_ratio"),
    "core.policy": ("selections",),
    "cache": ("hit_ratio",),
}


def layer_names() -> List[str]:
    seen: List[str] = []
    for layer, *_ in LAYERS:
        if layer not in seen:
            seen.append(layer)
    return seen


def layer_metric_names() -> List[str]:
    """Every per-layer metric the recorder reports, in report order."""
    names: List[str] = []
    for layer in layer_names():
        names += [f"{layer}.self_s", f"{layer}.calls"]
        names += [f"{layer}.{m}" for m in EXTRA_METRICS.get(layer, ())]
    names.append(f"{ROOT_LAYER}.self_s")
    return names


def _targets(module, cls_name: Optional[str],
             attrs: Tuple[str, ...]) -> List[Tuple[object, str]]:
    """(owner, attribute) pairs to wrap for one :data:`LAYERS` row."""
    if cls_name is None:
        return [(module, a) for a in attrs]
    if cls_name == "*":
        owners = [obj for _, obj in sorted(vars(module).items())
                  if inspect.isclass(obj)
                  and obj.__module__ == module.__name__]
    else:
        owners = [getattr(module, cls_name)]
    out = []
    for owner in owners:
        own = vars(owner)
        names = [a for a in attrs if a in own]
        if PUBLIC[0] in attrs:
            names += [n for n, v in own.items() if not n.startswith("_")
                      and (inspect.isfunction(v)
                           or isinstance(v, (classmethod, staticmethod)))]
        out += [(owner, n) for n in names]
    return out


class SpanRecorder:
    """Collects spans and boundary counts while installed.

    Use as a context manager: entering wraps every attribute in
    :data:`LAYERS`, leaving restores the originals even on error.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, str, float, float, int, int]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._sim = -1
        self._allocators: list = []

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, name: str, fn: Callable,
              counter: Counter) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        calls_key = f"{layer}.calls"
        counters = [(f"{layer}.{suffix}", count) for suffix, count in counter]
        is_alloc_init = layer == "core.runtime" and name.endswith(".__init__")
        allocators = self._allocators
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)  # placeholder keeps parent indices stable
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (layer, name, t0, t1, parent, self._sim)
            counts[calls_key] += 1.0
            for key, count_fn in counters:
                counts[key] += count_fn(args, kwargs, result)
            if is_alloc_init:
                allocators.append(args[0])
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def install(self) -> None:
        try:
            for layer, modname, cls_name, attrs, counter in LAYERS:
                module = importlib.import_module(modname)
                for owner, attr in _targets(module, cls_name, attrs):
                    raw = inspect.getattr_static(owner, attr)
                    name = f"{getattr(owner, '__name__', modname)}.{attr}"
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(self._wrap(
                            layer, name, raw.__func__, counter))
                    else:
                        wrapped = self._wrap(layer, name, raw, counter)
                    self._saved.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put back every original attribute, newest first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------
    @contextmanager
    def simulation(self, label: str) -> Iterator[None]:
        """Root span of one simulation; opens a new span id."""
        self._sim += 1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (ROOT_LAYER, label, t0, t1, -1, self._sim)
            self._harvest_alloc_stats()

    def _harvest_alloc_stats(self) -> None:
        """Fold the AllocStats of this simulation's allocators into the
        counts, then drop them so no machine outlives its run."""
        for alloc in self._allocators:
            st = alloc.stats
            self.counts["core.runtime.allocs"] += (
                st.affine_allocs + st.irregular_allocs + st.paged_allocs)
            self.counts["core.runtime.fallbacks"] += (
                st.fallbacks + st.degraded_allocs)
        self._allocators.clear()

    def reset(self) -> None:
        """Forget recorded spans and counts; installed wrappers stay."""
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()
        self._allocators.clear()
        self._sim = -1

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Per-layer self time: span durations minus direct-child cover."""
        covered = [0.0] * len(self.spans)
        for layer, _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: Dict[str, float] = defaultdict(float)
        for i, (layer, _, t0, t1, _, _) in enumerate(self.spans):
            out[layer] += (t1 - t0) - covered[i]
        return out

    def metrics(self) -> Dict[str, float]:
        """Every name of :func:`layer_metric_names`, zero where unused."""
        selfs = self.self_times()
        c = self.counts
        out: Dict[str, float] = {}
        for name in layer_metric_names():
            layer, _, metric = name.rpartition(".")
            if metric == "self_s":
                out[name] = selfs.get(layer, 0.0)
            elif metric == "fallback_ratio":
                allocs = c.get("core.runtime.allocs", 0.0)
                out[name] = (c.get("core.runtime.fallbacks", 0.0) / allocs
                             if allocs else 0.0)
            elif metric == "hit_ratio":
                gets = c.get("cache.gets", 0.0)
                out[name] = c.get("cache.hits", 0.0) / gets if gets else 0.0
            else:
                out[name] = c.get(name, 0.0)
        return out

    def write(self, path: Path) -> None:
        """Write the recorded spans as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
