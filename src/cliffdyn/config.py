"""Typed readers for values parsed from JSON configs.

``json`` yields ``int``, ``float``, ``bool`` and ``str`` as distinct types, so
a type check is enough; ``bool`` is a subclass of ``int`` and is excluded by
name.  Each reader raises ``InputError`` naming the field it was given.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


def number(value, field: str) -> float:
    """A JSON number as a float; a boolean or a string is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{field} must be a number, got {value!r}")
    return float(value)


def integer(value, field: str) -> int:
    """A JSON integer; a boolean or a float such as 2.7 is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{field} must be an integer, got {value!r}")
    return value


def real_array(value, shape: tuple[int, ...], field: str) -> np.ndarray:
    """Nested JSON lists of the given shape as a float array, entry by entry."""
    if not isinstance(value, list) or len(value) != shape[0]:
        raise InputError(f"{field} must be a list of {shape[0]} entries, got {value!r}")
    if len(shape) == 1:
        return np.array([number(v, f"{field}[{i}]") for i, v in enumerate(value)])
    return np.array([real_array(v, shape[1:], f"{field}[{i}]") for i, v in enumerate(value)])
