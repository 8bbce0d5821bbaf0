"""Canonical JSON: the one-pass renderer against the standard library's
encoder (`oracles.canonical_json_stdlib`), and against the earlier
asdict-based walk on the package's own dataclasses."""
import enum
import hashlib
import json
import tracemalloc
from collections import Counter, OrderedDict, namedtuple
from dataclasses import asdict, dataclass, is_dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernslope.badset import bad_set, verify_bounds
from chernslope.geometry import ArrangementParams, Family, build_resolution
from chernslope.nefcheck import nef_report
from chernslope.numtheory import dedekind_data
from chernslope.rootcover import BranchAssignment, chern_of_cover
from chernslope.serialize import canonical_json
from oracles import canonical_json_stdlib, jsonable, rat


def reference_jsonable(obj):
    """The earlier definition: asdict copies a dataclass, then the copy is walked."""
    if isinstance(obj, Fraction):
        return rat(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if is_dataclass(obj) and not isinstance(obj, type):
        return reference_jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [reference_jsonable(v) for v in items]
    return obj


def assert_same(obj) -> None:
    assert canonical_json(obj) == canonical_json_stdlib(obj)


def package_values():
    params_a = ArrangementParams(Family.A, p=2, r=1, e=1, d=3, g=0, u=1, w=1)
    config = build_resolution(params_a)
    base = {"S1": 1, "S2": 1, "S3": 1, "H1": 1,
            "F1": 2, "F2": 2, "F3": 2, "R1": 3, "S4": 13}
    cover = chern_of_cover(config, BranchAssignment.from_base(config, 17, base))
    assert cover.singularities
    params_ap = ArrangementParams(Family.APRIME, p=2, r=4, e=1, d=16)
    return {
        "DedekindData": dedekind_data(101, 7),
        "BoundReport": verify_bounds(101, 1),
        "BadSet": bad_set(101, 1),
        "NefReport": nef_report(params_ap, 4001),
        "CoverInvariants": cover,
        "SingularityRecord": cover.singularities[0],
        "ArrangementParams": params_a,
        "Family": Family.APRIME,
    }


PACKAGE_VALUES = package_values()


@pytest.fixture(scope="module")
def dedekind_records():
    """Every residue's record at q = 9973: bounds-census's largest document."""
    return [dedekind_data(9973, a) for a in range(1, 9973)]


class TestPackageDataclasses:
    @pytest.mark.parametrize("name", sorted(PACKAGE_VALUES))
    def test_matches_asdict_walk(self, name):
        value = PACKAGE_VALUES[name]
        for obj in (value, [value, {"nested": value}]):
            assert_same(obj)
            assert canonical_json(obj) == json.dumps(reference_jsonable(obj),
                                                     sort_keys=True, indent=2)

    def test_all_together(self):
        assert_same(PACKAGE_VALUES)

    def test_dedekind_pin(self, dedekind_records):
        out = canonical_json(dedekind_records)
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == "d9fbdfa339cb1727"


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


class Shade(enum.Enum):
    LIGHT = 0.5
    NONE = None


class Name(str):
    pass


class Count(int):
    def __repr__(self):
        return f"Count({int(self)})"


class Ratio(float):
    def __repr__(self):
        return f"Ratio({float(self)})"


Pair = namedtuple("Pair", "left right")


@dataclass(frozen=True)
class Box:
    label: str
    inner: object


@dataclass(frozen=True)
class Empty:
    pass


# control characters, the ASCII edge, non-ASCII and astral-plane characters
text = st.text(st.characters(max_codepoint=0x7F) | st.characters(), max_size=5)
# keys that collide once they become strings: 1 and "1", 1.5 and "1.5", ...
keys = st.sampled_from([1, "1", 1.5, "1.5", True, "True", None, "None"]) | text | st.integers()
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | text
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | st.fractions()
    | st.builds(Name, text)
    | st.builds(Count, st.integers())
    | st.builds(Ratio, st.floats())
    | st.sampled_from(list(Family) + list(Colour) + list(Shade))
)
empties = st.sampled_from([[], (), {}, set(), frozenset(), Empty(), OrderedDict()])
sets = st.frozensets(st.integers()) | st.sets(text)


def containers(children):
    return (
        st.lists(children, max_size=4)
        | st.tuples(children, children)
        | st.builds(Pair, children, children)
        | st.dictionaries(keys, children, max_size=4)
        | st.builds(Box, text, children)
    )


# A Counter stays outside any dataclass: asdict rebuilds it from its (key,
# value) pairs and so counts the pairs (see test_counter_inside_dataclass).
values = st.recursive(
    leaves | empties | sets | st.lists(st.fractions(), max_size=3).map(tuple), containers,
    max_leaves=20,
)
counters = st.dictionaries(text, st.integers(), max_size=4).map(Counter)


class TestNestedValues:
    @given(values)
    @settings(max_examples=500, deadline=None)
    def test_matches_reference(self, value):
        assert_same(value)

    @given(st.dictionaries(text, values | counters, max_size=4), counters)
    @settings(max_examples=100, deadline=None)
    def test_counters_and_dicts(self, mapping, counter):
        assert_same(mapping)
        assert_same([counter, mapping])

    def test_bool_stays_distinct_from_int(self):
        assert canonical_json([True, 1, False, 0]) == json.dumps([True, 1, False, 0], indent=2)

    def test_set_order_is_sorted(self):
        assert canonical_json({3, 1, 2}) == "[\n  1,\n  2,\n  3\n]"
        assert canonical_json(frozenset({"b", "a"})) == '[\n  "a",\n  "b"\n]'
        assert jsonable({3, 1, 2}) == [1, 2, 3]

    def test_dataclass_in_dict(self):
        value = {"x": Box("b", (Fraction(1, 3), Pair(Family.A, {2, 1})))}
        assert jsonable(value) == {
            "x": {"label": "b", "inner": [{"num": "1", "den": "3"}, ["A", [1, 2]]]}
        }
        assert_same(value)

    def test_counter_inside_dataclass(self):
        # asdict turned Counter({"a": 2}) into Counter({("a", 2): 1}); the
        # field walk keeps the counter's own items
        assert jsonable(Box("c", Counter({"a": 2}))) == {"label": "c", "inner": {"a": 2}}
        assert reference_jsonable(Box("c", Counter({"a": 2})))["inner"] == {"('a', 2)": 1}
        assert_same(Box("c", Counter({"a": 2})))


# arrays of exact ints take list.__repr__; one intruder of an int subclass,
# a bool or a float sends the whole array down the general path
intruders = st.sampled_from([True, False, Colour.RED, Count(5), 2.5])


@st.composite
def int_arrays(draw):
    ints = draw(st.lists(st.integers(), max_size=1) | st.lists(st.integers(), max_size=1000))
    if draw(st.booleans()):
        ints.insert(draw(st.integers(0, len(ints))), draw(intruders))
    return draw(st.sampled_from([list, tuple, set]))(ints)


nested_int_arrays = st.recursive(
    int_arrays(),
    lambda children: st.dictionaries(text, children, max_size=3)
    | st.builds(Box, text, children)
    | st.lists(children, max_size=3),
    max_leaves=4,
)


class TestIntArrays:
    @given(nested_int_arrays)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, value):
        assert_same(value)


def render_peak(value) -> tuple[int, str]:
    """The most memory tracemalloc saw canonical_json(value) hold, and its text."""
    tracemalloc.start()
    try:
        out = canonical_json(value)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


class TestMemory:
    """No finished container's text is copied again, and an all-int array
    keeps no str per item."""

    def test_int_array(self):
        peak, out = render_peak({"good": tuple(range(1000, 201_000))})
        assert peak < 3 * len(out)

    def test_dedekind_records(self, dedekind_records):
        peak, out = render_peak(dedekind_records)
        assert peak < 2.6 * len(out)


class TestLayout:
    """The encoder's layout rules, spelled out."""

    def test_fraction_is_den_then_num_strings(self):
        assert canonical_json(Fraction(-3, 7)) == '{\n  "den": "7",\n  "num": "-3"\n}'

    def test_keys_sorted_last_collision_wins(self):
        assert canonical_json({"b": 1, 1: 2, "a": 3, "1": 4}) == (
            '{\n  "1": 4,\n  "a": 3,\n  "b": 1\n}')

    def test_empty_containers_stay_on_one_line(self):
        assert canonical_json({"a": [], "b": {}, "c": [()], "d": Empty()}) == (
            '{\n  "a": [],\n  "b": {},\n  "c": [\n    []\n  ],\n  "d": {}\n}')

    def test_leaf_spellings(self):
        value = [float("nan"), float("inf"), float("-inf"), Ratio(0.1), Count(7),
                 Name("é\n"), None, Shade.NONE, Shade.LIGHT, Colour.BLUE]
        assert canonical_json(value) == (
            '[\n  NaN,\n  Infinity,\n  -Infinity,\n  0.1,\n  7,\n  "\\u00e9\\n",\n'
            '  null,\n  null,\n  0.5,\n  2\n]')
        assert_same(value)


class TestRefused:
    @pytest.mark.parametrize("leaf", [object(), 1j, b"bytes", Fraction],
                             ids=["object", "complex", "bytes", "type"])
    def test_unserialisable_leaf_raises_on_both_paths(self, leaf):
        for value in (leaf, [1, {"a": leaf}], Box("b", leaf)):
            with pytest.raises(TypeError):
                canonical_json(value)
            with pytest.raises(TypeError):
                canonical_json_stdlib(value)
