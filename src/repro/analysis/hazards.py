"""Stream-graph hazard detection (``RACE0xx``).

Offloaded streams of one kernel run concurrently at their banks; only
the dependence edges of the :class:`~repro.nsc.stream.StreamGraph` order
them (paper Fig 2).  Two streams touching the same array with at least
one plain writer and no ordering path between them therefore race:

* RACE001 — a remote atomic and a plain store overlap on one array
  (atomics only commute with other atomics; a concurrent plain store
  makes the combined result order-dependent),
* RACE002 — a read-after-write pair with no dependence edge,
* RACE003 — two plain writers with no dependence edge.

Overlap is judged by handle identity or virtual-range intersection, so
two windows into one array are caught even through distinct handles.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Severity,
    Site,
)
from repro.nsc.stream import StreamDef, StreamGraph, StreamKind

__all__ = ["check_graph", "check_kernel"]

_PLAIN_WRITERS = {StreamKind.AFFINE_STORE, StreamKind.INDIRECT_STORE}
_WRITERS = _PLAIN_WRITERS | {StreamKind.ATOMIC}
_READERS = {StreamKind.AFFINE_LOAD, StreamKind.INDIRECT_LOAD,
            StreamKind.REDUCE, StreamKind.POINTER_CHASE}


def _reachability(graph: StreamGraph) -> Dict[str, Set[str]]:
    """Transitive closure: name -> set of stream names reachable from it."""
    succ: Dict[str, List[str]] = {s.name: [] for s in graph.streams}
    for dep in graph.deps:
        succ[dep.src].append(dep.dst)
    closure: Dict[str, Set[str]] = {}
    for name in succ:
        seen: Set[str] = set()
        stack = list(succ[name])
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            stack.extend(succ[n])
        closure[name] = seen
    return closure


def _overlaps(a: StreamDef, b: StreamDef) -> bool:
    ha, hb = a.handle, b.handle
    if ha is None or hb is None:
        return False
    if ha is hb:
        return True
    try:
        return (max(ha.vaddr, hb.vaddr)
                < min(ha.end_vaddr, hb.end_vaddr))
    except AttributeError:
        return False  # AddressView-style handles: identity only


def _ordered(closure: Dict[str, Set[str]], a: str, b: str) -> bool:
    return b in closure[a] or a in closure[b]


def check_graph(graph: StreamGraph, kernel_name: str = "") -> DiagnosticReport:
    """Diagnose RACE0xx hazards in one kernel's stream graph."""
    report = DiagnosticReport()
    closure = _reachability(graph)
    streams = graph.streams

    def site(a: StreamDef, b: StreamDef) -> Site:
        return Site("stream", f"{a.name}/{b.name}",
                    detail=f"kernel {kernel_name}" if kernel_name else "")

    for i, a in enumerate(streams):
        for b in streams[i + 1:]:
            if not _overlaps(a, b):
                continue
            a_w, b_w = a.kind in _WRITERS, b.kind in _WRITERS
            if not (a_w or b_w):
                continue  # two readers never conflict
            ordered = _ordered(closure, a.name, b.name)
            array = getattr(a.handle, "name", "") or "array"

            kinds = {a.kind, b.kind}
            if StreamKind.ATOMIC in kinds and kinds & _PLAIN_WRITERS:
                report.add(Diagnostic(
                    "RACE001",
                    Severity.WARNING if ordered else Severity.ERROR,
                    site(a, b),
                    f"remote atomic and plain store both target "
                    f"{array!r}"
                    + ("" if ordered else " with no ordering edge"),
                    fix_hint="make both streams atomic, or add a "
                             "dependence edge serializing them"))
            elif a_w and b_w:
                if kinds == {StreamKind.ATOMIC}:
                    continue  # atomics commute with atomics
                if not ordered:
                    report.add(Diagnostic(
                        "RACE003", Severity.WARNING, site(a, b),
                        f"two writers target {array!r} with no "
                        "ordering edge",
                        fix_hint="add a dependence edge, or split the "
                                 "writes across disjoint ranges"))
            else:
                if not ordered:
                    writer, reader = (a, b) if a_w else (b, a)
                    report.add(Diagnostic(
                        "RACE002", Severity.ERROR, site(a, b),
                        f"{reader.name!r} reads {array!r} while "
                        f"{writer.name!r} writes it, with no dependence "
                        "edge between them",
                        fix_hint=f"add a value/address dependence "
                                 f"{writer.name} -> {reader.name} (or "
                                 "split the kernel)"))
    return report


def check_kernel(compiled) -> DiagnosticReport:
    """Convenience wrapper over a :class:`~repro.nsc.compiler.CompiledKernel`."""
    return check_graph(compiled.graph, compiled.name)
