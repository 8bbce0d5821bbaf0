"""Farey points, their neighbourhoods, and the bad/good residue split.

A residue a in {1, .., q-1} is *bad* when it falls within distance
C*sqrt(q)/d^2 of some Farey point q*c/d with 1 <= d <= sqrt(q),
0 <= c <= d and gcd(c, d) = 1. Membership is decided by the exact squared
comparison (a*d - q*c)^2 * d^2 <= C^2 * q, so the split involves no floats.
Good residues enjoy the length and Dedekind-sum bounds checked by
`verify_bounds`.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import mpmath

from .numtheory import DomainError, dedekind_sum, hj_length, is_prime


@dataclass(frozen=True)
class FareyPoint:
    """The point q*c/d together with its exact membership predicate."""

    q: int
    c: int
    d: int
    C: Fraction

    @property
    def value(self) -> Fraction:
        return Fraction(self.q * self.c, self.d)

    @property
    def radius_approx(self) -> float:
        return float(self.C) * math.sqrt(self.q) / self.d**2

    def contains(self, a: int) -> bool:
        """Exact |a - q*c/d| <= C*sqrt(q)/d^2."""
        lhs = (a * self.d - self.q * self.c) ** 2 * self.d**2 * self.C.denominator**2
        return lhs <= self.C.numerator**2 * self.q


def _as_positive_fraction(C) -> Fraction:
    C = Fraction(C)
    if C <= 0:
        raise DomainError(f"C must be positive, got {C}")
    return C


def farey_points(q: int, C) -> Iterator[FareyPoint]:
    C = _as_positive_fraction(C)
    for d in range(1, math.isqrt(q) + 1):
        for c in range(0, d + 1):
            if math.gcd(c, d) == 1:
                yield FareyPoint(q, c, d, C)


@dataclass(frozen=True)
class BadSet:
    q: int
    C: Fraction
    members: tuple[int, ...]

    @property
    def complement(self) -> tuple[int, ...]:
        bad = set(self.members)
        return tuple(a for a in range(1, self.q) if a not in bad)

    def __contains__(self, a: int) -> bool:
        i = bisect.bisect_left(self.members, a)
        return i < len(self.members) and self.members[i] == a


def bad_set(q: int, C) -> BadSet:
    """The bad set F of residues near some Farey point of q."""
    if q < 2 or not is_prime(q):
        raise DomainError(f"q must be a prime >= 2, got {q}")
    C = _as_positive_fraction(C)
    cn, cd = C.numerator, C.denominator
    sq = math.isqrt(q)
    bad: set[int] = set()
    for d in range(1, sq + 1):
        d2 = d * d
        rhs = cn * cn * q
        spread = (cn * (sq + 1)) // (cd * d2) + 2
        for c in range(0, d + 1):
            if math.gcd(c, d) != 1:
                continue
            center = (q * c) // d
            for a in range(center - spread, center + spread + 2):
                if 1 <= a <= q - 1 and (a * d - q * c) ** 2 * d2 * cd * cd <= rhs:
                    bad.add(a)
    return BadSet(q, C, tuple(sorted(bad)))


def good_residues(q: int, C) -> frozenset[int]:
    return frozenset(bad_set(q, C).complement)


def _leq_shifted_sqrt(value: Fraction, shift: int, coef: Fraction, q: int) -> bool:
    """Exact test value <= coef*sqrt(q) + shift for rational value, coef > 0."""
    diff = Fraction(value) - shift
    if diff <= 0:
        return True
    return diff * diff <= coef * coef * q


@dataclass(frozen=True)
class BoundReport:
    q: int
    C: Fraction
    f_size: int
    card_bound_ok: bool
    worst_length: tuple[int, int]          # (a, l(a, q)) maximising l over good a
    worst_scaled_sum: tuple[int, Fraction]  # (a, 12*|s(a, q)|) maximising over good a
    length_bound_ok: bool
    sum_bound_ok: bool

    @property
    def ok(self) -> bool:
        return self.card_bound_ok and self.length_bound_ok and self.sum_bound_ok


def verify_bounds(q: int, C) -> BoundReport:
    """Check |F| <= C sqrt(q)(log q + 2 log 2) and, for every good residue,
    l(a, q) <= (2 + 1/C) sqrt(q) + 2 and 12|s(a, q)| <= (2 + 1/C) sqrt(q) + 5.

    The two per-residue bounds are exact rational comparisons; the
    cardinality bound involves log q and is evaluated at 60 decimal digits.
    """
    C = _as_positive_fraction(C)
    if q < 17 or not is_prime(q):
        raise DomainError(f"q must be a prime >= 17, got {q}")
    fs = bad_set(q, C)
    coef = 2 + 1 / C

    worst_l = (0, -1)
    worst_s = (0, Fraction(-1))
    for a in fs.complement:
        l = hj_length(q, a)
        if l > worst_l[1]:
            worst_l = (a, l)
        s12 = abs(12 * dedekind_sum(q, a))
        if s12 > worst_s[1]:
            worst_s = (a, s12)

    length_ok = _leq_shifted_sqrt(Fraction(worst_l[1]), 2, coef, q)
    sum_ok = _leq_shifted_sqrt(worst_s[1], 5, coef, q)

    with mpmath.workdps(60):
        rhs = (mpmath.mpf(C.numerator) / C.denominator) * mpmath.sqrt(q) * (
            mpmath.log(q) + 2 * mpmath.log(2)
        )
        card_ok = mpmath.mpf(len(fs.members)) <= rhs

    return BoundReport(
        q=q,
        C=C,
        f_size=len(fs.members),
        card_bound_ok=bool(card_ok),
        worst_length=worst_l,
        worst_scaled_sum=worst_s,
        length_bound_ok=length_ok,
        sum_bound_ok=sum_ok,
    )
