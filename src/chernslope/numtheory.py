"""Exact Hirzebruch-Jung continued fractions and Dedekind sums.

Everything in this module is integer / `fractions.Fraction` arithmetic; no
floats anywhere. `hj_pass` is the one HJ loop: one pass gives the digits
and 12*q*s(a, q) as integers. `dedekind_data` bundles them with the
Dedekind sum and the c-invariant.
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

# Miller-Rabin with the first 13 primes as bases is exact below psi_13
# (Sorenson-Webster, Math. Comp. 86 (2017)); no larger n is decided.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: exact below psi_13, DomainError from there on."""
    if n >= _MR_LIMIT:
        raise DomainError(f"{n} is too large: primality is decided only below {_MR_LIMIT}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime_q(q: int, p: int) -> None:
    """Raise DomainError unless q is a prime other than the characteristic p."""
    if not is_prime(q) or q == p:
        raise DomainError(f"q must be a prime different from p, got {q}")


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


def dedekind_data(q: int, a: int) -> DedekindData:
    """HJ digits, Dedekind sum and c-invariant of (a, q) from one HJ pass."""
    _check_pair(q, a)
    digits, s12q = hj_pass(q, a)
    return DedekindData(q=q, a=a, s=Fraction(s12q, 12 * q), digits=tuple(digits))


def hj_pass(q: int, a: int) -> tuple[list[int], int]:
    """The HJ digits of q/a and the integer 12*q*s(a, q), from one pass.

    Uses 12 s(a, q) = sum_i (e_i - 3) + (a + a') / q, where a' is the
    inverse of a mod q (Hirzebruch-Zagier, The Atiyah-Singer theorem and
    elementary number theory, 1974). The caller passes a coprime pair
    0 < a < q (`dedekind_data` checks it); no Fraction is built, so a scan
    over many residues stays in integers.
    """
    digits = []
    qq, aa = q, a
    while aa > 0:
        e = -(-qq // aa)  # ceil(qq/aa)
        digits.append(e)
        qq, aa = aa, e * aa - qq
    return digits, q * (sum(digits) - 3 * len(digits)) + a + pow(a, -1, q)


def hj_length(q: int, a: int) -> int:
    return dedekind_data(q, a).length


def dedekind_sum(q: int, a: int) -> Fraction:
    """s(a, q) from the HJ digits of q/a; one integer step per digit."""
    return dedekind_data(q, a).s
