"""Correctness checks on every op's canonical output.

Invariants hold at any seed; at the default seed each output must also match
its sha256 prefix pinned in golden.json. `check` returns the list of problems
found (empty when the op is correct).
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from fractions import Fraction

from chernslope.partitions import verify_asymptotic

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
PIN_HEX = 16


def digest(output: str) -> str:
    return hashlib.sha256(output.encode()).hexdigest()[:PIN_HEX]


def load_golden() -> dict[str, dict[str, str]]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def is_failure(op) -> bool:
    """An op that raised, or ended without an assignment (`not_found`)."""
    if op.raised:
        return True
    if op.kind == "pipeline":
        return json.loads(op.output)["status"] != "ok"
    if op.kind == "sweep_row":
        return _csv_row(op.output)["status"] != "ok"
    return False


def check(op, pins: dict[str, str] | None) -> list[str]:
    if op.raised:
        return [op.output]
    problems = []
    if pins is not None:
        want = pins.get(op.op_id)
        if want is None:
            problems.append("no pinned hash for this op")
        elif digest(op.output) != want:
            problems.append(f"sha256 {digest(op.output)} != pinned {want}")
    try:
        problems += CHECKERS[op.kind](op)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    return problems


def _frac(pair) -> Fraction:
    return Fraction(int(pair["num"]), int(pair["den"]))


def _chern_problems(c1sq: Fraction, c2: Fraction, chi: Fraction) -> list[str]:
    out = []
    total = c1sq + c2
    if total.denominator != 1 or total.numerator % 12:
        out.append(f"c1^2 + c2 = {total} is not divisible by 12")
    if chi.denominator != 1:
        out.append(f"chi = {chi} is not an integer")
    if chi != total / 12:
        out.append(f"chi = {chi} != (c1^2 + c2)/12")
    return out


def _assignment_problems(op, q: int) -> list[str]:
    if len(op.assignments) != 1:
        return [f"expected one returned assignment, saw {len(op.assignments)}"]
    config, assign = op.assignments[0]
    if assign.q != q:
        return [f"assignment is at q = {assign.q}, report says {q}"]
    if not verify_asymptotic(config, assign).ok:
        return ["returned assignment fails verify_asymptotic"]
    return []


def _check_pipeline(op) -> list[str]:
    report = json.loads(op.output)
    sampled = report["sampled"]
    if sampled is None:
        return ["report has no sampled leg"]
    if "skipped" in sampled:
        return [] if op.op_id.endswith("cap-skip") else ["sampled leg unexpectedly skipped"]
    if op.op_id.endswith("cap-skip"):
        return ["cap-skip case was sampled"]
    if report["status"] != "ok":
        return []
    c1sq, c2, chi = _frac(sampled["c1sq"]), _frac(sampled["c2"]), _frac(sampled["chi"])
    problems = _chern_problems(c1sq, c2, chi)
    if _frac(sampled["slope"]) != c1sq / c2:
        problems.append("slope != c1^2/c2")
    return problems + _assignment_problems(op, sampled["q"])


def _csv_row(output: str) -> dict[str, str]:
    rows = list(csv.DictReader(io.StringIO(output)))
    if len(rows) != 1:
        raise ValueError(f"expected one CSV row, got {len(rows)}")
    return rows[0]


def _check_sweep_row(op) -> list[str]:
    row = _csv_row(op.output)
    if row["status"] != "ok":
        return [] if row["c1sq"] == "" and not op.assignments else ["not_found row carries data"]
    c1sq, c2, chi = Fraction(row["c1sq"]), Fraction(row["c2"]), Fraction(row["chi"])
    problems = _chern_problems(c1sq, c2, chi)
    if float(row["slope_approx"]) != float(c1sq / c2):
        problems.append("slope_approx != c1^2/c2")
    return problems + _assignment_problems(op, int(row["q"]))


def _check_verify_bounds(op) -> list[str]:
    rep = json.loads(op.output)
    bad = [k for k in ("card_bound_ok", "length_bound_ok", "sum_bound_ok") if rep[k] is not True]
    return [f"verify_bounds(q={rep['q']}) not ok: {', '.join(bad)}"] if bad else []


def _hj_value(digits) -> Fraction:
    value = Fraction(digits[-1])
    for e in reversed(digits[:-1]):
        value = e - 1 / value
    return value


def _check_dedekind_all(op) -> list[str]:
    entries = json.loads(op.output)
    q = entries[0]["q"]
    if [e["a"] for e in entries] != list(range(1, q)):
        return ["residues are not exactly 1..q-1"]
    for e in entries:
        a, s, digits = e["a"], _frac(e["s"]), e["digits"]
        if min(digits) < 2 or _hj_value(digits) != Fraction(q, a):
            return [f"HJ digits of {q}/{a} do not evaluate to {q}/{a}"]
        if (6 * q * s).denominator != 1:
            return [f"6 q s({a}, {q}) is not an integer"]
        if s + _frac(entries[q - a - 1]["s"]) != 0:
            return [f"s({q - a}, {q}) != -s({a}, {q})"]
    return []


def _check_bad_set(op) -> list[str]:
    rep = json.loads(op.output)
    q, members = rep["q"], rep["members"]
    if any(not 1 <= a < q for a in members) or members != sorted(set(members)):
        return ["bad set is not a strictly increasing subset of 1..q-1"]
    if set(members) != {q - a for a in members}:
        return ["bad set is not symmetric under a -> q - a"]
    if len(members) > math.sqrt(q) * (math.log(q) + 2 * math.log(2)):
        return ["bad set exceeds the cardinality bound"]
    return []


def _check_nef(op) -> list[str]:
    out = json.loads(op.output)
    problems = []
    if out["mismatched_labels"]:
        problems.append(f"closed vs census mismatch: {out['mismatched_labels']}")
    if out["min_nef_q"] is not None:
        if any(_frac(v) < 0 for v in out["report"]["entries"].values()):
            problems.append("negative entry at min_nef_q")
    return problems


def _check_prank(op) -> list[str]:
    out = json.loads(op.output)
    return [] if 0 <= out["B"] <= out["genus"] else [f"B = {out['B']} outside [0, genus]"]


CHECKERS = {
    "pipeline": _check_pipeline,
    "sweep_row": _check_sweep_row,
    "verify_bounds": _check_verify_bounds,
    "dedekind_all": _check_dedekind_all,
    "bad_set": _check_bad_set,
    "nef": _check_nef,
    "nef_min": _check_nef,
    "prank": _check_prank,
}
