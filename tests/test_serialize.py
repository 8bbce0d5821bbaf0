"""Canonical JSON: the field-walking `jsonable` against the asdict-based one."""
import enum
import hashlib
import json
from collections import Counter, namedtuple
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
from chernslope.serialize import canonical_json, jsonable, rat


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


def reference_canonical_json(obj) -> str:
    return json.dumps(reference_jsonable(obj), sort_keys=True, indent=2)


def assert_same(obj) -> None:
    assert canonical_json(obj) == reference_canonical_json(obj)


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


class TestPackageDataclasses:
    @pytest.mark.parametrize("name", sorted(PACKAGE_VALUES))
    def test_matches_asdict_walk(self, name):
        value = PACKAGE_VALUES[name]
        assert_same(value)
        assert_same([value, {"nested": value}])

    def test_all_together(self):
        assert_same(PACKAGE_VALUES)

    def test_dedekind_pin(self):
        out = canonical_json([dedekind_data(9973, a) for a in range(1, 9973)])
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == "d9fbdfa339cb1727"


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


Pair = namedtuple("Pair", "left right")


@dataclass(frozen=True)
class Box:
    label: str
    inner: object


leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.text(max_size=5)
    | st.floats(allow_nan=False)
    | st.fractions()
    | st.sampled_from(list(Family) + list(Colour))
)
sets = st.frozensets(st.integers()) | st.sets(st.text(max_size=3))


def containers(children):
    return (
        st.lists(children, max_size=4)
        | st.tuples(children, children)
        | st.builds(Pair, children, children)
        | st.dictionaries(st.text(max_size=3) | st.integers(), children, max_size=4)
        | st.builds(Box, st.text(max_size=3), children)
    )


# A Counter stays outside any dataclass: asdict rebuilds it from its (key,
# value) pairs and so counts the pairs (see test_counter_inside_dataclass).
values = st.recursive(
    leaves | sets | st.lists(st.fractions(), max_size=3).map(tuple), containers,
    max_leaves=20,
)
counters = st.dictionaries(st.text(max_size=3), st.integers(), max_size=4).map(Counter)


class TestNestedValues:
    @given(values)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, value):
        assert_same(value)

    @given(st.dictionaries(st.text(max_size=3), values | counters, max_size=4), counters)
    @settings(max_examples=100, deadline=None)
    def test_counters_and_dicts(self, mapping, counter):
        assert_same(mapping)
        assert_same([counter, mapping])

    def test_bool_stays_distinct_from_int(self):
        assert canonical_json([True, 1, False, 0]) == json.dumps([True, 1, False, 0], indent=2)

    def test_set_order_is_sorted(self):
        assert jsonable({3, 1, 2}) == [1, 2, 3]
        assert jsonable(frozenset({"b", "a"})) == ["a", "b"]

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
