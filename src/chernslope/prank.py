"""p-rank bounds for cyclic covers of the projective line.

The cover data is a tuple of branch multiplicities a_1, .., a_n in
{1, .., q-1}, gcd of all of them with q equal to 1, summing to a multiple
of q, over a base of characteristic p coprime to q. The i-th eigenspace of
H^1 has dimension i*l - sum_j floor(a_j i / q) - 1 (clamped at 0), and the
p-rank is bounded by summing, over each Frobenius orbit {i p^k mod q}, the
orbit size times the minimal eigenspace dimension on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .numtheory import DomainError, is_prime


@dataclass(frozen=True)
class CyclicCoverData:
    q: int
    p: int
    mults: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mults", tuple(self.mults))
        if self.q < 2:
            raise DomainError(f"q must be >= 2, got {self.q}")
        if not is_prime(self.p):
            raise DomainError(f"p must be prime, got {self.p}")
        if math.gcd(self.p, self.q) != 1:
            raise DomainError("p must be coprime to q")
        if not self.mults:
            raise DomainError("need at least one branch multiplicity")
        for a in self.mults:
            if not 0 < a < self.q:
                raise DomainError(f"multiplicity {a} not in (0, {self.q})")
        if math.gcd(*self.mults, self.q) != 1:
            raise DomainError("multiplicities share a factor with q")
        if sum(self.mults) % self.q:
            raise DomainError("multiplicities must sum to 0 mod q")

    @property
    def l_branch(self) -> int:
        """sum(a_j) / q, the integer slope of the branch data."""
        return sum(self.mults) // self.q


def h1_dim(i: int, data: CyclicCoverData) -> int:
    """Dimension of the i-th eigenspace of H^1, 1 <= i <= q-1."""
    if not 0 < i < data.q:
        raise DomainError(f"need 0 < i < q, got {i}")
    deg = i * data.l_branch - sum(a * i // data.q for a in data.mults)
    return max(0, deg - 1)


def genus(data: CyclicCoverData) -> int:
    """Genus via tame ramification: 2g - 2 = -2q + sum_j (q - gcd(a_j, q))."""
    ram = sum(data.q - math.gcd(a, data.q) for a in data.mults)
    two_g = -2 * data.q + ram + 2
    if two_g % 2 or two_g < 0:
        raise DomainError("inconsistent branch data")
    return two_g // 2


def frobenius_orbits(q: int, p: int) -> list[tuple[int, ...]]:
    """Orbits of {1, .., q-1} under multiplication by p mod q."""
    if math.gcd(p, q) != 1:
        raise DomainError("p must be coprime to q")
    seen = [False] * q
    orbits = []
    for i in range(1, q):
        if seen[i]:
            continue
        orbit = []
        j = i
        while not seen[j]:
            seen[j] = True
            orbit.append(j)
            j = j * p % q
        orbits.append(tuple(orbit))
    return orbits


def prank_upper_bound(data: CyclicCoverData) -> int:
    """B = sum over i of min of h1_dim along the Frobenius orbit of i."""
    total = 0
    for orbit in frobenius_orbits(data.q, data.p):
        total += len(orbit) * min(h1_dim(i, data) for i in orbit)
    return total

