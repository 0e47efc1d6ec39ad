"""One value naming every optional scenario layer of a run.

:class:`Scenario` is the one place that derives a scenario's cache-key
fields and enters its sessions.  Its field order is the attach order
(faults first: boot-phase faults must shape the machine before any other
layer sees it).  A fifth layer is one :class:`~repro.session.Session`
subclass plus one field here.  See DESIGN.md §14.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterator, Optional, Tuple, Type

from repro.faults.injector import FaultSession
from repro.faults.plan import FaultPlan
from repro.interfere.engine import InterferenceSession
from repro.interfere.plan import HostTrafficPlan
from repro.obs.tracer import TraceConfig, TraceSession
from repro.relayout.engine import RelayoutSession
from repro.relayout.policy import RelayoutConfig
from repro.session import Session, active, scoped

__all__ = ["Scenario", "SESSION_KINDS", "attach_active"]


def _part(kind: Type[Session]) -> Any:
    return field(default=None, metadata={"session": kind})


@dataclass(frozen=True)
class Scenario:
    """Optional scenario parts; ``Scenario()`` is a plain run.

    Only *active* parts count (see :meth:`Session.is_active`): an empty
    host plan neither keys the cache nor enters a session, so it shares
    the plain run's cache entry and every byte of its output.
    """

    faults: Optional[FaultPlan] = _part(FaultSession)
    relayout: Optional[RelayoutConfig] = _part(RelayoutSession)
    trace: Optional[TraceConfig] = _part(TraceSession)
    interfere: Optional[HostTrafficPlan] = _part(InterferenceSession)

    def _active_parts(self) -> Iterator[Tuple[str, Type[Session], Any]]:
        for f in fields(self):
            spec = getattr(self, f.name)
            kind = f.metadata["session"]
            if spec is not None and kind.is_active(spec):
                yield f.name, kind, spec

    def key_fields(self) -> Dict[str, str]:
        """Cache-key fields: one spec digest per active part."""
        return {name: spec.digest() for name, _, spec in self._active_parts()}

    @contextmanager
    def sessions(self, task: str = "") -> Iterator[Dict[str, Any]]:
        """Enter one session per active part; yields them by field name."""
        with ExitStack() as stack:
            yield {name: stack.enter_context(scoped(kind(spec, task=task)))
                   for name, kind, spec in self._active_parts()}


#: Session kinds in attach order (the :class:`Scenario` field order).
SESSION_KINDS: Tuple[Type[Session], ...] = tuple(
    f.metadata["session"] for f in fields(Scenario))


def attach_active(machine: Any) -> None:
    """Attach the innermost session of every kind, in attach order."""
    for kind in SESSION_KINDS:
        session = active(kind)
        if session is not None:
            session.attach(machine)
