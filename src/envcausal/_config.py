"""Field converters for the config dataclasses, derived from annotations.

A converter takes (value, path) and returns the field's value or raises
InvalidConfig whose message begins with the path. A config dataclass
calls ``convert_fields(self)`` first in its ``__post_init__``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import operator
import typing
from collections.abc import Sequence
from enum import Enum

import numpy as np


class InvalidConfig(ValueError):
    """A setting of the wrong type or range; ``path`` is the field the message begins with."""

    def __init__(self, message: str, path: str | None = None):
        super().__init__(message if path is None else f"{path}: {message}")
        self.path = path
        self.reason = message


def as_int(value, path: str) -> int:
    # operator.index takes numpy integers and refuses floats; bool is an int.
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidConfig("expected an integer", path)


def as_float(value, path: str) -> float:
    if type(value) is not float:  # the abstract-class test is slow
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InvalidConfig("expected a number", path)
        try:
            value = float(value)
        except OverflowError:  # an integer past the float range
            value = math.inf
    if not math.isfinite(value):
        raise InvalidConfig("expected a finite number", path)
    return value


def as_bool(value, path: str) -> bool:
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidConfig("expected true or false", path)
    return bool(value)


def as_enum(enum_cls: type[Enum], also: tuple = ()):
    """Converter to a member of ``enum_cls``; strings in ``also`` pass unchanged."""

    def convert(value, path: str):
        if isinstance(value, str) and value in also:
            return value
        try:
            return enum_cls(value)
        except ValueError:
            valid = ", ".join(m.value for m in enum_cls)
            raise InvalidConfig(f"expected one of {valid}, got {value!r}", path) from None

    return convert


def _as_tuple(item, expected: str, length: int | None = None):
    def convert(value, path: str) -> tuple:
        sequence = isinstance(value, Sequence) and not isinstance(value, (str, bytes))
        if not sequence or length not in (None, len(value)):
            raise InvalidConfig(f"expected {expected}", path)
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))

    return convert


def read_object(cls, value, path: str):
    """``value`` if it is a ``cls``, else ``cls(**value)`` for a dict of the
    fields of ``cls``; a fault that names a field is reported under ``path``."""
    if isinstance(value, cls):
        return value
    if not isinstance(value, dict):
        raise InvalidConfig("expected an object", path)
    fields = dataclasses.fields(cls)
    for key in sorted(set(value) - {f.name for f in fields}, key=str):
        raise InvalidConfig("unknown key", f"{path}.{key}")
    required = {f.name for f in fields if f.default is dataclasses.MISSING}
    for key in sorted(required - set(value)):
        raise InvalidConfig("missing required key", f"{path}.{key}")
    try:
        return cls(**value)
    except InvalidConfig as exc:
        if exc.path is None:
            raise
        raise InvalidConfig(exc.reason, f"{path}.{exc.path}") from None


@functools.cache
def _converter(annotation):
    if annotation in (int, float, bool):
        return {int: as_int, float: as_float, bool: as_bool}[annotation]
    if dataclasses.is_dataclass(annotation):
        return functools.partial(read_object, annotation)
    if isinstance(annotation, type) and issubclass(annotation, Enum):
        return as_enum(annotation)
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is typing.Union:  # Union[Enum, Literal[...]]
        return as_enum(args[0], typing.get_args(args[1]))
    if origin is tuple and args[1:] == (...,):
        return _as_tuple(_converter(args[0]), "a list of numbers" if args[0] is float else "a list")
    if origin is tuple and args == (float, float):
        return _as_tuple(as_float, "[low, high]", 2)
    raise TypeError(f"no converter for the annotation {annotation!r}")


@functools.cache
def _field_converters(cls) -> tuple:
    hints = typing.get_type_hints(cls)
    return tuple((f.name, _converter(hints[f.name])) for f in dataclasses.fields(cls))


def convert_fields(config) -> None:
    """Set each field of the frozen dataclass ``config`` to its converted value."""
    for name, convert in _field_converters(type(config)):
        object.__setattr__(config, name, convert(getattr(config, name), name))
