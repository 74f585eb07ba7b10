"""Typed readers for JSON input; every command reads its file through them.

``json`` yields each JSON type as its own Python type, so a type check is
enough; a boolean is an ``int`` subclass and is excluded by name.  Each reader
raises ``InputError`` naming the JSON path of the bad value, such as ``gram.x[2]``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .errors import InputError


def load(path) -> object:
    """The JSON document in a file; an unreadable file or bad JSON is an InputError."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:     # RecursionError: deep nesting
        raise InputError(str(exc)) from exc


def number(value, field: str) -> float:
    """A finite JSON number as a float; a boolean, a string, NaN or ±Inf is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{field} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:       # NaN, ±Inf or an int beyond the float range
        raise InputError(f"{field} must be finite, got non-finite {value!r}")
    return float(value)


def positive_mass(mass):
    """mass as a float if it is positive and m^2 neither overflows nor underflows.

    An array of masses, one per state of a stack, comes back as a float array
    when its smallest and largest entries pass: m^2 grows with m > 0, and a
    NaN entry makes both NaN.
    """
    if np.ndim(mass):
        masses = np.asarray(mass, dtype=float)
        positive_mass(float(masses.min()))
        positive_mass(float(masses.max()))
        return masses
    if not mass > 0:
        raise InputError("mass must be positive")
    square = float(mass) * float(mass)            # a Python float product neither raises nor warns
    if not sys.float_info.min <= square <= sys.float_info.max:
        raise InputError(f"mass = {mass!r} is out of range: its square "
                         f"{'overflows' if square > 1 else 'underflows'}")
    return float(mass)


def integer(value, field: str) -> int:
    """A JSON integer; a boolean or a float such as 2.7 is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{field} must be an integer, got {value!r}")
    return value


def integers(value, field: str) -> list[int]:
    """A JSON list of integers."""
    if not isinstance(value, list) or any(isinstance(v, bool) or not isinstance(v, int)
                                          for v in value):
        raise InputError(f"{field} must be a list of integers, got {value!r}")
    return value


def real_array(value, shape: tuple[int, ...], field: str) -> np.ndarray:
    """Nested JSON lists of the given shape as a float array, entry by entry."""
    if not isinstance(value, list) or len(value) != shape[0]:
        raise InputError(f"{field} must be a list of {shape[0]} entries, got {value!r}")
    if len(shape) == 1:
        return np.array([number(v, f"{field}[{i}]") for i, v in enumerate(value)])
    return np.array([real_array(v, shape[1:], f"{field}[{i}]") for i, v in enumerate(value)])


def mapping(value, field: str) -> dict:
    """A JSON object; ``field`` is its path, empty at the top level."""
    if not isinstance(value, dict):
        raise InputError(f"{field or 'the input'} must be a JSON object, got {value!r}")
    return value


def fields(value, field: str, required=(), optional: dict | None = None) -> dict:
    """A JSON object with every required key and no other key but the optional ones;
    absent optional keys take the defaults ``optional`` maps them to."""
    known = (*required, *(optional or {}))
    prefix = f"{field}." if field else ""
    for key in mapping(value, field):
        if key not in known:
            raise InputError(f"unknown key '{prefix}{key}'; {field or 'the input'} takes "
                             f"{', '.join(known)}")
    for key in required:
        if key not in value:
            raise InputError(f"missing key '{prefix}{key}'")
    return {**(optional or {}), **value}
