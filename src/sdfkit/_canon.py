"""Canonical ordering and rendering of kernel values.

Python's set iteration order is randomized per process, so every enumeration,
witness message, and report in the kernel sorts through `canon_key` instead.
The key is a nested tuple whose first component is a type tag, which keeps
mixed collections (ints, strings, tuples, frozensets, kernel objects)
comparable.
"""

from __future__ import annotations

from fractions import Fraction


def canon_key(value):
    """Total, deterministic sort key over the hashable values the kernel uses."""
    # Fast path on the exact type of the common leaves and containers. ints
    # and Fractions compare exactly and hash alike, so they need no common
    # wrapper; bool, float, subclasses and kernel objects take the path below.
    kind = type(value)
    if kind is str:
        return ("str", value)
    if kind is int or kind is Fraction:
        return ("num", value)
    if kind is tuple:
        return ("tuple", tuple(map(canon_key, value)))
    if kind is frozenset:
        return ("set", tuple(sorted(map(canon_key, value))))
    custom = getattr(value, "canon_key", None)
    if custom is not None and not isinstance(value, type):
        return custom()
    if isinstance(value, bool):
        return ("num", Fraction(int(value)))
    if isinstance(value, (int, Fraction)):
        return ("num", Fraction(value))
    if isinstance(value, float):
        return ("num", Fraction(value))
    if isinstance(value, str):
        return ("str", value)
    if isinstance(value, tuple):
        return ("tuple", tuple(canon_key(v) for v in value))
    if isinstance(value, (frozenset, set)):
        return ("set", tuple(sorted(canon_key(v) for v in value)))
    if value is None:
        return ("none",)
    return ("repr", type(value).__name__, repr(value))


def canon_sorted(values):
    """List of `values` in canonical order."""
    return sorted(values, key=canon_key)


def fmt(value) -> str:
    """Render a value with deterministic ordering inside sets and mappings."""
    # Fast path on the exact type of the leaves, as in `canon_key`: `Fraction`
    # is an ABC, so its isinstance test below is slow for every int and str;
    # bool and subclasses take the path below.
    kind = type(value)
    if kind is str:
        return value
    if kind is int:
        return repr(value)
    if isinstance(value, (frozenset, set)):
        return "{" + ", ".join(fmt(v) for v in canon_sorted(value)) + "}"
    if isinstance(value, tuple):
        return "(" + ", ".join(fmt(v) for v in value) + ")"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, str):
        return value
    custom = getattr(value, "fmt", None)
    if custom is not None and not isinstance(value, type):
        return custom()
    return repr(value)
