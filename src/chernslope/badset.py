"""Farey points, their neighbourhoods, and the bad/good residue split.

A residue a in {1, .., q-1} is *bad* when it falls within distance
C*sqrt(q)/d^2 of some Farey point q*c/d with 1 <= d <= sqrt(q),
0 <= c <= d and gcd(c, d) = 1. Membership is decided by the exact squared
comparison (a*d - q*c)^2 * d^2 <= C^2 * q, so the split involves no floats.

`bad_set` builds F one denominator at a time. With C = cn/cd and
x = a*d - q*c, the test reads x^2 <= cn^2*q / (d^2*cd^2); x^2 is an
integer, so it is |x| <= R_d = isqrt(cn^2*q // (d^2*cd^2)). The nearest c to
a*d/q lies in [0, d] and minimises |x|, so the residues a that pass for d
are exactly x * d^-1 mod q for 0 < |x| <= R_d. The gcd condition can be
dropped: a non-reduced pair k*(c', d') gives x = k*x' and the test scales by
k^4, so it passes only where (c', d') already does. This is O(|F|) work.
Good residues enjoy the length and Dedekind-sum bounds checked by
`verify_bounds`.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterator

import mpmath

from . import numtheory
# verify_bounds calls `numtheory.dedekind_data` through the module, the name
# perfbench/'s tracer hooks. badset does not call dedekind_sum or hj_length,
# but the tracer hooks them on this module too (tests/test_bench_sites.py
# checks that every hooked name resolves), so they stay importable from it.
from .numtheory import DomainError, dedekind_sum, hj_length, is_prime  # noqa: F401


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
        """The good residues in ascending order: the runs between members."""
        m = self.members
        runs = (range(lo + 1, hi) for lo, hi in zip((0, *m), (*m, self.q)))
        return tuple(chain.from_iterable(runs))

    def __contains__(self, a: int) -> bool:
        i = bisect.bisect_left(self.members, a)
        return i < len(self.members) and self.members[i] == a


def bad_set(q: int, C) -> BadSet:
    """The bad set F of residues near some Farey point of q."""
    if q < 2 or not is_prime(q):
        raise DomainError(f"q must be a prime >= 2, got {q}")
    C = _as_positive_fraction(C)
    cn, cd = C.numerator, C.denominator
    bad: set[int] = set()
    for d in range(1, math.isqrt(q) + 1):
        # x and -x for x <= q // 2 already reach every nonzero residue
        r = min(math.isqrt(cn * cn * q // (d * d * cd * cd)), q // 2)
        inv = pow(d, -1, q)
        for x in range(1, r + 1):
            a = x * inv % q
            bad.add(a)
            bad.add(q - a)
    return BadSet(q, C, tuple(sorted(bad)))


def good_residues(q: int, C) -> frozenset[int]:
    return frozenset(bad_set(q, C).complement)


def good_table(q: int, C) -> bytes:
    """The good residues as q bytes: byte a is 1 exactly when a is good, so
    byte 0 is 0. One fill of q bytes, then one store per member of F."""
    table = bytearray(b"\x01") * q
    table[0] = 0
    for a in bad_set(q, C).members:
        table[a] = 0
    return bytes(table)


def _leq_shifted_sqrt(num: int, den: int, shift: int, C: Fraction, q: int) -> bool:
    """Exact test num/den <= (2 + 1/C)*sqrt(q) + shift, in integers."""
    diff = num - shift * den
    if diff <= 0:
        return True
    cn, cd = C.numerator, C.denominator
    # 2 + 1/C = (2*cn + cd)/cn; square both sides of diff/den <= that * sqrt(q)
    return (diff * cn) ** 2 <= ((2 * cn + cd) * den) ** 2 * q


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

    # 12*q*|s(a, q)| = |q*(sum e_i - 3*l) + a + a^-1 mod q| is an integer, so
    # the scan compares integers and builds one Fraction at the end. Its
    # start value -q reads back as 12|s| = -1 when no residue is good; ties
    # keep the first maximal a.
    worst_la, worst_l = 0, -1
    worst_sa, worst_s12q = 0, -q
    twelve_q = 12 * q
    for a in fs.complement:
        data = numtheory.dedekind_data(q, a)
        l = len(data.digits)
        if l > worst_l:
            worst_la, worst_l = a, l
        s = data.s
        s12q = abs(s.numerator) * (twelve_q // s.denominator)
        if s12q > worst_s12q:
            worst_sa, worst_s12q = a, s12q

    length_ok = _leq_shifted_sqrt(worst_l, 1, 2, C, q)
    sum_ok = _leq_shifted_sqrt(worst_s12q, q, 5, C, q)

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
        worst_length=(worst_la, worst_l),
        worst_scaled_sum=(worst_sa, Fraction(worst_s12q, q)),
        length_bound_ok=length_ok,
        sum_bound_ok=sum_ok,
    )
