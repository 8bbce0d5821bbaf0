"""Canonical JSON: exact rationals as {"num", "den"} string pairs.

`canonical_json` renders a value in one walk, with no intermediate tree.
Its bytes are those of `json.dumps(..., sort_keys=True, indent=2)` applied
to the value converted by these rules, tried in this order:

- dicts: keys become `str(k)` (of keys that collide that way, the last
  wins), sorted;
- lists, tuples and namedtuples: arrays; sets: sorted arrays;
- a `Fraction`: {"den": "<den>", "num": "<num>"};
- an enum member: its value, which must be a JSON leaf;
- a dataclass instance: its fields, read in place, sorted by name;
- str, int and float subclasses: their base type's rendering; floats keep
  the encoder's NaN and +-Infinity spellings.

Any other value raises TypeError, as `json.dumps` would.
"""
from __future__ import annotations

import enum
from dataclasses import fields, is_dataclass
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _quote

_INF = float("inf")


def canonical_json(obj) -> str:
    """Deterministic rendering: sorted keys, 2-space indent, ", " and ": "
    separators, no floats beyond the explicitly *_approx convenience fields."""
    return _render(obj, "\n")


def _render(obj, nl: str) -> str:
    """`obj` rendered at the indent that `nl` (a newline and spaces) opens."""
    cls = type(obj)
    if cls is int:
        return int.__repr__(obj)
    if cls is str:
        return _quote(obj)
    return _renderer(cls)(obj, nl)


def _leaf(obj, nl: str = "") -> str:
    """A str, int, float, bool or None, subclasses included, as the encoder
    spells it."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == _INF:
            return "Infinity"
        if obj == -_INF:
            return "-Infinity"
        return float.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _array(items, nl: str) -> str:
    if not items:
        return "[]"
    inner = nl + "  "
    parts = [int.__repr__(v) if type(v) is int else _render(v, inner) for v in items]
    return "[" + inner + ("," + inner).join(parts) + nl + "]"


def _members(pairs, nl: str) -> str:
    """A JSON object from (str key, value) pairs already in key order."""
    inner = nl + "  "
    parts = [_quote(k) + ": " + _render(v, inner) for k, v in pairs]
    if not parts:
        return "{}"
    return "{" + inner + ("," + inner).join(parts) + nl + "}"


def _dict(d: dict, nl: str) -> str:
    items = {str(k): v for k, v in d.items()}
    return _members([(k, items[k]) for k in sorted(items)], nl)


def _fraction(f: Fraction, nl: str) -> str:
    inner = nl + "  "
    return f'{{{inner}"den": "{f.denominator}",{inner}"num": "{f.numerator}"{nl}}}'


@cache  # one entry per type rendered
def _renderer(cls: type):
    if issubclass(cls, dict):
        return _dict
    if issubclass(cls, (list, tuple)):
        return _array
    if issubclass(cls, (set, frozenset)):
        return lambda s, nl: _array(sorted(s), nl)
    if issubclass(cls, Fraction):
        return _fraction
    if issubclass(cls, enum.Enum):
        return lambda member, nl: _leaf(member.value)
    if is_dataclass(cls):
        names = sorted(f.name for f in fields(cls))
        return lambda obj, nl: _members([(n, getattr(obj, n)) for n in names], nl)
    return _leaf
