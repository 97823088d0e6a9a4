"""Typed reading of config sections into dataclasses.

Every JSON config section (``task``, ``model``, ``train``, ``data`` and the
per-command sections) is declared as a dataclass whose fields carry the
keys, their types and their defaults. ``read_section`` builds one from a
plain dict: unknown keys, values of the wrong type, numbers that are not
finite floats and empty lists raise ``ConfigError`` naming the dotted key,
so the command line can exit 2 instead of failing later inside the run.
"""

from __future__ import annotations

import dataclasses
import numbers
import sys
import types
import typing

from .errors import ConfigError

__all__ = ["read_section"]

_SCALARS = {bool: bool, int: numbers.Integral, float: numbers.Real, str: str}


def read_section(cls, data, where: str, **fallback):
    """Build dataclass ``cls`` from the mapping ``data``.

    ``fallback`` supplies values for keys that ``data`` leaves out, ahead
    of the dataclass defaults. ``list[X]`` fields take a non-empty list,
    fixed ``tuple[X, Y, ...]`` fields a list of that length (stored as a
    tuple), and nested dataclass fields a nested mapping. Integers are
    accepted where a float is declared and kept as given.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"config section {where!r} must be an object, got {data!r}")
    hints = typing.get_type_hints(cls)
    known = [f.name for f in dataclasses.fields(cls)]
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"unknown {where} keys: {unknown}; expected some of {known}")
    values = {**fallback, **{key: _check(hints[key], value, f"{where}.{key}")
                             for key, value in data.items()}}
    return cls(**values)


def _check(hint, value, where: str):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = [arg for arg in args if arg is not type(None)]
        return _check(inner, value, where)
    if dataclasses.is_dataclass(hint):
        return read_section(hint, value, where)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{where} must be a non-empty list, got {value!r}")
        if origin is tuple and len(value) != len(args):
            raise ConfigError(f"{where} must hold {len(args)} values, got {value!r}")
        kinds = args if origin is tuple else args * len(value)
        return origin(_check(kind, item, where) for kind, item in zip(kinds, value))
    if isinstance(value, _SCALARS[hint]) and (hint is bool or not isinstance(value, bool)):
        # NaN fails both comparisons; an int past the float range fails one
        if hint is float and not -sys.float_info.max <= value <= sys.float_info.max:
            raise ConfigError(f"{where} must be a finite float, got {value!r}")
        return value
    raise ConfigError(f"{where} must be {hint.__name__}, got {value!r}")
