"""Canonical JSON helpers: exact rationals as {"num", "den"} string pairs."""
from __future__ import annotations

import enum
import json
from dataclasses import fields, is_dataclass
from fractions import Fraction
from functools import cache

_LEAVES = frozenset({str, int, bool, float, type(None)})


def rat(x) -> dict[str, str]:
    f = Fraction(x)
    return {"num": str(f.numerator), "den": str(f.denominator)}


@cache  # one entry per dataclass type; fields() builds a new tuple per call
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def jsonable(obj):
    """Recursively convert to JSON-serializable structures; Fractions become
    {"num", "den"} string pairs so nothing is ever rounded.

    Dataclasses become dicts of their fields, read in place; sets become
    sorted lists.
    """
    if type(obj) in _LEAVES:
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [v if type(v) in _LEAVES else jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return [jsonable(v) for v in sorted(obj)]
    if isinstance(obj, Fraction):
        return rat(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if is_dataclass(obj) and not isinstance(obj, type):
        return {name: jsonable(getattr(obj, name)) for name in _field_names(type(obj))}
    return obj


def canonical_json(obj) -> str:
    """Deterministic rendering: sorted keys, fixed separators, no floats
    beyond the explicitly *_approx convenience fields."""
    return json.dumps(jsonable(obj), sort_keys=True, indent=2)
