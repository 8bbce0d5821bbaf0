"""Exact Hirzebruch-Jung continued fractions and Dedekind sums.

Everything in this module is integer / `fractions.Fraction` arithmetic; no
floats anywhere. `dedekind_data` is the one definition of the HJ digits,
the Dedekind sum and the c-invariant: a single HJ pass gives all three.
The defining O(q) Dedekind sum is kept alongside it so the two can be
pitted against each other.
"""
from __future__ import annotations

from functools import lru_cache

import math
from dataclasses import dataclass
from fractions import Fraction


class DomainError(ValueError):
    """Raised for arguments outside the coprime range 0 < a < q."""


def _check_pair(q: int, a: int) -> None:
    if q <= 1:
        raise DomainError(f"q must be at least 2, got {q}")
    if not 0 < a < q:
        raise DomainError(f"need 0 < a < q, got a={a}, q={q}")
    if math.gcd(a, q) != 1:
        raise DomainError(f"a={a} and q={q} are not coprime")


# ---------------------------------------------------------------------------
# small prime utilities shared across the package
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    k = max(n, 2)
    while not is_prime(k):
        k += 1
    return k


def primes_between(lo: int, hi: int) -> list[int]:
    """All primes q with lo <= q <= hi."""
    return [q for q in range(max(lo, 2), hi + 1) if is_prime(q)]


def ceil_isqrt(n: int) -> int:
    """Smallest integer r with r*r >= n."""
    if n < 0:
        raise DomainError("ceil_isqrt of a negative number")
    r = math.isqrt(n)
    return r if r * r == n else r + 1


# ---------------------------------------------------------------------------
# Hirzebruch-Jung (negative-regular) continued fractions and Dedekind sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DedekindData:
    """Bundled exact invariants of a coprime pair (a, q): the HJ digits of
    q/a = e1 - 1/(e2 - 1/(... - 1/es)), every digit >= 2, and s(a, q)."""

    q: int
    a: int
    s: Fraction
    digits: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.digits)

    @property
    def c(self) -> Fraction:
        return 12 * self.s + self.length

    def evaluate(self) -> Fraction:
        """Fold the digits back into the exact rational q/a."""
        acc = Fraction(self.digits[-1])
        for e in reversed(self.digits[:-1]):
            acc = e - Fraction(1) / acc
        return acc


def dedekind_data(q: int, a: int) -> DedekindData:
    """HJ digits, Dedekind sum and c-invariant of (a, q) from one HJ pass.

    Uses 12 s(a, q) = sum_i (e_i - 3) + (a + a') / q, where a' is the
    inverse of a mod q (Hirzebruch-Zagier, The Atiyah-Singer theorem and
    elementary number theory, 1974).
    """
    _check_pair(q, a)
    digits = []
    qq, aa = q, a
    while aa > 0:
        e = -(-qq // aa)  # ceil(qq/aa)
        digits.append(e)
        qq, aa = aa, e * aa - qq
    s = Fraction(q * (sum(digits) - 3 * len(digits)) + a + pow(a, -1, q), 12 * q)
    return DedekindData(q=q, a=a, s=s, digits=tuple(digits))


def hj_length(q: int, a: int) -> int:
    return dedekind_data(q, a).length


def dedekind_sum(q: int, a: int) -> Fraction:
    """s(a, q) from the HJ digits of q/a; one integer step per digit."""
    return dedekind_data(q, a).s


def c_value(q: int, a: int) -> Fraction:
    """c(a, q) = 12 s(a, q) + length of the HJ expansion of q/a."""
    return dedekind_data(q, a).c


# ---------------------------------------------------------------------------
# The defining O(q) sum, kept as an oracle
# ---------------------------------------------------------------------------

def sawtooth(x: Fraction) -> Fraction:
    """((x)): x - floor(x) - 1/2 away from the integers, 0 on them."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - (x.numerator // x.denominator) - Fraction(1, 2)


def dedekind_sum_direct(q: int, a: int) -> Fraction:
    """The defining sum s(a, q) = sum_i ((i/q)) ((ia/q)), evaluated exactly.

    O(q) work; used as the independent oracle for `dedekind_sum`.
    For 0 < i < q coprime pieces, ((i/q)) = (2i - q)/(2q).
    """
    _check_pair(q, a)
    total = 0
    for i in range(1, q):
        r = (i * a) % q
        total += (2 * i - q) * (2 * r - q)
    return Fraction(total, 4 * q * q)
