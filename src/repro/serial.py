"""One validated serialization base for plans, logs and scenario configs.

A dataclass that mixes in :class:`Serial` gets ``to_dict``, ``from_dict``,
``to_json``, ``from_json``, ``save``, ``load`` and ``digest`` from its
field types, resolved once per class.  ``from_dict`` checks every field
at every nesting level: ints are JSON integers (no bool, no ``1.7``),
floats finite JSON numbers, bools ``true``/``false``, enums matched by
value, tuples lists of checked items; a missing required key or an
unknown key is an error.  Ranges are field metadata (:func:`checked`)
and run on every construction.  Every failure is one
:class:`PlanFieldError` naming the path (``streams[0].intensity``) and
the reason.  See DESIGN.md §14, "Plans and their serialization".
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import math
import os
import typing
from pathlib import Path
from typing import (Any, Callable, ClassVar, Collection, Dict, Optional,
                    Tuple, Type, TypeVar, Union)

__all__ = ["PlanFieldError", "Serial", "checked", "in_range", "non_negative",
           "non_empty", "one_of", "probability"]

#: A range check: the reason a value is out of range, or None.
Check = Callable[[Any], Optional[str]]
S = TypeVar("S", bound="Serial")

_TYPE_NAMES = {int: "an integer", bool: "true or false", str: "a string",
               float: "a finite number"}


class PlanFieldError(ValueError):
    """A malformed plan field: where it is and what is wrong with it."""

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"{path}: {reason}" if path else reason)
        self.path = path
        self.reason = reason


def checked(check: Optional[Check] = None, *, item: Optional[Check] = None,
            **kwargs: Any) -> Any:
    """A dataclass field whose value must pass ``check`` and whose items
    (for a tuple field) must each pass ``item``."""
    return dataclasses.field(metadata={"check": check, "item": item},
                             **kwargs)


def in_range(lo: float, hi: float = math.inf) -> Check:
    return lambda value: (None if lo <= value < hi
                          else f"must be in [{lo}, {hi}), got {value!r}")


non_negative = in_range(0)


def probability(value: Any) -> Optional[str]:
    return None if 0 <= value <= 1 else f"must be in [0, 1], got {value!r}"


def non_empty(value: Any) -> Optional[str]:
    return None if value else "must not be empty"


def one_of(allowed: Collection[Any]) -> Check:
    names = ", ".join(repr(a) for a in sorted(allowed))
    return lambda value: (None if value in allowed
                          else f"must be one of {names}, got {value!r}")


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _show(value: Any) -> str:
    return {dict: "an object", list: "a list"}.get(type(value)) \
        or json.dumps(value)


@functools.lru_cache(maxsize=None)
def _spec(cls: type) -> Tuple[Tuple[str, Any, bool, Optional[Check],
                                     Optional[Check]], ...]:
    """(name, type, required, check, item check) per field of ``cls``."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default is dataclasses.MISSING
                  and f.default_factory is dataclasses.MISSING,
                  f.metadata.get("check"), f.metadata.get("item"))
                 for f in dataclasses.fields(cls))


def _decode(tp: Any, value: Any, path: str) -> Any:
    origin = typing.get_origin(tp)
    if origin in (tuple, list):
        if type(value) is not list:
            raise PlanFieldError(path, f"expected a list, got {_show(value)}")
        items = [_decode(typing.get_args(tp)[0], v, f"{path}[{i}]")
                 for i, v in enumerate(value)]
        return tuple(items) if origin is tuple else items
    if issubclass(tp, Serial):
        return tp.from_dict(value, path)
    if issubclass(tp, enum.Enum):
        try:
            return tp(value)
        except ValueError:
            names = ", ".join(repr(m.value) for m in tp)
            raise PlanFieldError(path, f"expected one of {names}, "
                                       f"got {_show(value)}") from None
    if tp is float and type(value) in (int, float):
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond float range
            number = math.inf
        if math.isfinite(number):
            return number
    elif type(value) is tp:
        return value
    raise PlanFieldError(path, f"expected {_TYPE_NAMES[tp]}, "
                               f"got {_show(value)}")


def _encode(value: Any) -> Any:
    if isinstance(value, Serial):
        return value.to_dict()
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    return value


class Serial:
    """Mixin for dataclasses: one validated JSON form (module docstring)."""

    __dataclass_fields__: ClassVar[Dict[str, "dataclasses.Field[Any]"]]
    #: Appended by ``to_json``; a saved file ends in one newline anyway.
    _json_newline: ClassVar[str] = ""
    #: Sort object keys in ``to_json`` (False keeps field order).
    _json_sorted: ClassVar[bool] = True
    #: Write only this field's value (a bare JSON list for the event log).
    _json_root: ClassVar[Optional[str]] = None

    def __post_init__(self) -> None:
        for name, _, _, check, item in _spec(type(self)):
            value = getattr(self, name)
            reason = check(value) if check is not None else None
            if reason:
                raise PlanFieldError(name, reason)
            if item is not None:
                for i, v in enumerate(value):
                    reason = item(v)
                    if reason:
                        raise PlanFieldError(f"{name}[{i}]", reason)

    def to_dict(self) -> Dict[str, Any]:
        return {name: _encode(getattr(self, name))
                for name, *_ in _spec(type(self))}

    @classmethod
    def from_dict(cls: Type[S], data: Any, path: str = "") -> S:
        if type(data) is not dict:
            raise PlanFieldError(path, f"expected an object, "
                                       f"got {_show(data)}")
        spec = _spec(cls)
        for key in sorted(data.keys() - {name for name, *_ in spec}):
            raise PlanFieldError(_join(path, key), "unknown key, not a "
                                 f"{cls.__name__} field")
        kwargs: Dict[str, Any] = {}
        for name, tp, required, _, _ in spec:
            if name in data:
                kwargs[name] = _decode(tp, data[name], _join(path, name))
            elif required:
                raise PlanFieldError(_join(path, name), "missing required key")
        make: Callable[..., S] = cls
        try:
            return make(**kwargs)
        except PlanFieldError as exc:
            raise PlanFieldError(_join(path, exc.path), exc.reason) from None

    def to_json(self) -> str:
        data: Any = self.to_dict()
        if self._json_root is not None:
            data = data[self._json_root]
        return json.dumps(data, indent=2,
                          sort_keys=self._json_sorted) + self._json_newline

    @classmethod
    def from_json(cls: Type[S], text: str) -> S:
        data, root = json.loads(text), cls._json_root
        return cls.from_dict({root: data} if root is not None else data)

    def save(self, path: Union[str, "os.PathLike[str]"]) -> None:
        Path(path).write_text(self.to_json().rstrip("\n") + "\n",
                              encoding="utf-8")

    @classmethod
    def load(cls: Type[S], path: Union[str, "os.PathLike[str]"]) -> S:
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def digest(self) -> str:
        """12-hex sha256 of the compact, key-sorted ``to_dict``: keys the
        artifact cache and run fingerprints."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]
