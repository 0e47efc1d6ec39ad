"""The session protocol every optional scenario layer shares.

A session scopes one layer's spec (fault plan, relayout config, trace
config, host-traffic plan) over a block; ``make_context`` attaches the
innermost session of each kind to every new machine.  A kind declares
its ``Machine`` slot, its state class and when a spec is active; an
inactive session attaches nothing but still shadows outer sessions of
its kind.  See DESIGN.md §14.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, ClassVar, Iterator, List, Optional, Type, TypeVar

__all__ = ["Session", "active", "scoped"]


class Session:
    """One spec plus every per-machine state it attached."""

    #: ``Machine`` attribute the per-machine state is stored in.
    slot: ClassVar[str] = ""
    #: Per-machine state class.
    state_cls: ClassVar[Any] = None

    def __init__(self, spec: Any, task: str = "") -> None:
        self.spec = spec
        self.task = task
        self.states: List[Any] = []

    @classmethod
    def is_active(cls, spec: Any) -> bool:
        """Whether a session over ``spec`` attaches state."""
        return spec is not None

    @property
    def active(self) -> bool:
        return self.is_active(self.spec)

    def new_state(self, machine: Any) -> Any:
        return self.state_cls(machine, self.spec, task=self.task)

    def attach(self, machine: Any) -> Any:
        """Create this kind's state on ``machine``; None when inactive."""
        if not self.active:
            return None
        state = self.new_state(machine)
        setattr(machine, self.slot, state)
        self.states.append(state)
        return state


S = TypeVar("S", bound=Session)

_STACK: List[Session] = []


@contextmanager
def scoped(session: S) -> Iterator[S]:
    """Make ``session`` the innermost of its kind for the block."""
    _STACK.append(session)
    try:
        yield session
    finally:
        _STACK.remove(session)


def active(kind: Type[S]) -> Optional[S]:
    """The innermost scoped session of ``kind``, or None."""
    for session in reversed(_STACK):
        if isinstance(session, kind):
            return session
    return None
