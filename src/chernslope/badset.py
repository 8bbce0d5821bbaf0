"""The bad/good residue split at a prime q, and the bounds off the bad set.

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

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import chain

from . import numtheory
# verify_bounds calls `numtheory.hj_pass` through the module. badset does not
# call dedekind_sum or hj_length, but perfbench/'s tracer hooks them on this
# module (tests/test_bench_sites.py checks that every hooked name resolves),
# so they stay importable from it.
from .numtheory import DomainError, dedekind_sum, hj_length, is_prime  # noqa: F401


def _as_positive_fraction(C) -> Fraction:
    C = Fraction(C)
    if C <= 0:
        raise DomainError(f"C must be positive, got {C}")
    return C


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


def bad_set(q: int, C) -> BadSet:
    """The bad set F of residues near some Farey point of q."""
    if q < 2 or not is_prime(q):
        raise DomainError(f"q must be a prime >= 2, got {q}")
    C = _as_positive_fraction(C)
    cn, cd = C.numerator, C.denominator
    # R_d = isqrt(cn^2*q // (d^2*cd^2)) = isqrt(cn^2*q // cd^2) // d
    reach = math.isqrt(cn * cn * q // (cd * cd))
    # F is symmetric under a -> q - a: collect x * d^-1 for x > 0 only, then
    # mirror; x <= q // 2 with its mirror already reaches every nonzero residue
    half = {
        x * inv % q
        for d in range(1, math.isqrt(q) + 1)
        for inv in [pow(d, -1, q)]
        for x in range(1, min(reach // d, q // 2) + 1)
    }
    return BadSet(q, C, tuple(sorted(half.union([q - a for a in half]))))


def good_residues(q: int, C) -> frozenset[int]:
    return frozenset(bad_set(q, C).complement)


def _leq_shifted_sqrt(num: int, den: int, shift: int, C: Fraction, q: int) -> bool:
    """Exact test num/den <= (2 + 1/C)*sqrt(q) + shift, in integers."""
    diff = num - shift * den
    if diff <= 0:
        return True
    cn, cd = C.numerator, C.denominator
    # 2 + 1/C = (2*cn + cd)/cn; square both sides of diff/den <= that * sqrt(q)
    return (diff * cn) ** 2 <= ((2 * cn + cd) * den) ** 2 * q


def _card_bound_ok(size: int, C: Fraction, q: int) -> bool:
    """size <= C*sqrt(q)*(log q + 2 log 2) = C*sqrt(q)*log(4q), at 60 digits;
    `decimal` rounds sqrt and ln correctly."""
    with localcontext() as ctx:
        ctx.prec = 60
        rhs = Decimal(C.numerator) / C.denominator * Decimal(q).sqrt() * Decimal(4 * q).ln()
        return size <= rhs


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

    One `numtheory.hj_pass` serves the orbit {a, q - a, a', q - a'}, a' the
    inverse of a mod q. The digits of q/a' are those of q/a reversed and
    s(q - a, q) = -s(a, q) (Hirzebruch-Zagier 1974), so all four share
    12|s|; q - a and q - a' have the dual length sum(e_i) - 2 l + 1
    (Riemenschneider 1974). F is closed under a -> q - a but not under
    inversion, so each member is credited on its own, and only if good.
    """
    C = _as_positive_fraction(C)
    if q < 17 or not is_prime(q):
        raise DomainError(f"q must be a prime >= 17, got {q}")
    fs = bad_set(q, C)

    # 12*q*|s(a, q)| is an integer, so the scan compares integers and builds
    # one Fraction at the end. Its start value -q reads back as 12|s| = -1
    # when no residue is good. Orbits credit members out of order, so the
    # worst entries are (value, -a): a tie keeps the least maximal a.
    worst_l, worst_s = (-1, 0), (-q, 0)
    # done[a] = 1 once a is bad or credited; the walk in ascending order
    # stops at each orbit's least good member
    done = bytearray(q)
    done[0] = 1
    for m in fs.members:
        done[m] = 1
    hj_pass = numtheory.hj_pass
    a = done.find(0)
    while a > 0:
        digits, s12q = hj_pass(q, a)
        l = len(digits)
        inv = pow(a, -1, q)
        # a is its orbit's least good member, and earlier orbits were
        # credited at smaller a, so a tie on the shared 12|s| keeps theirs
        done[a] = 1
        if (l, -a) > worst_l:
            worst_l = (l, -a)
        s12q = abs(s12q)
        if s12q > worst_s[0]:
            worst_s = (s12q, -a)
        dual = sum(digits) - 2 * l + 1
        for m, lm in ((inv, l), (q - a, dual), (q - inv, dual)):
            if not done[m]:
                done[m] = 1
                if (lm, -m) > worst_l:
                    worst_l = (lm, -m)
        a = done.find(0, a + 1)

    length_ok = _leq_shifted_sqrt(worst_l[0], 1, 2, C, q)
    sum_ok = _leq_shifted_sqrt(worst_s[0], q, 5, C, q)

    return BoundReport(
        q=q,
        C=C,
        f_size=len(fs.members),
        card_bound_ok=_card_bound_ok(len(fs.members), C, q),
        worst_length=(-worst_l[1], worst_l[0]),
        worst_scaled_sum=(-worst_s[1], Fraction(worst_s[0], q)),
        length_bound_ok=length_ok,
        sum_bound_ok=sum_ok,
    )
