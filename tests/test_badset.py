"""Bad/good residue split at a prime and the exact bound checks."""
import hashlib
import math
from fractions import Fraction

import pytest

from chernslope.badset import (
    FareyPoint,
    bad_set,
    farey_points,
    good_residues,
    verify_bounds,
)
from chernslope.numtheory import DomainError, c_value, hj_length, primes_between

ONE = Fraction(1)


def brute_force_bad(q: int, C: Fraction = ONE) -> set[int]:
    """Triple-loop oracle: a is bad iff some reduced c/d with d <= sqrt(q)
    satisfies (a d - q c)^2 d^2 <= C^2 q (squared form of
    |a/q - c/d| <= C/(d^2 sqrt(q)))."""
    out = set()
    lhs_scale, rhs = C.denominator ** 2, C.numerator ** 2 * q
    for d in range(1, math.isqrt(q) + 1):
        for c in range(0, d + 1):
            if math.gcd(c, d) != 1:
                continue
            for a in range(1, q):
                if (a * d - q * c) ** 2 * d ** 2 * lhs_scale <= rhs:
                    out.add(a)
    return out


class TestBadSetMembers:
    def test_matches_brute_force(self):
        for q in (17, 19, 23, 29, 53, 101):
            assert set(bad_set(q, ONE).members) == brute_force_bad(q)

    @pytest.mark.parametrize("C", [ONE, Fraction(1, 2), Fraction(3, 2), Fraction(7)],
                             ids=str)
    def test_matches_brute_force_every_prime_below_400(self, C):
        for q in primes_between(2, 399):
            assert set(bad_set(q, C).members) == brute_force_bad(q, C), q

    def test_pinned_at_large_prime(self):
        # size and hash taken from the window-scan construction this replaced
        members = bad_set(1000003, ONE).members
        digest = hashlib.sha256(",".join(map(str, members)).encode()).hexdigest()
        assert (len(members), digest[:16]) == (9974, "9272b9a161528045")

    def test_complement_is_ascending_good_set(self):
        for q in (17, 101, 1009):
            bs = bad_set(q, ONE)
            assert list(bs.complement) == sorted(set(range(1, q)) - set(bs.members))
            assert good_residues(q, ONE) == frozenset(bs.complement)

    def test_known_good_residues_at_17(self):
        assert set(good_residues(17, ONE)) == {5, 7, 10, 12}

    def test_one_is_always_bad(self):
        for q in primes_between(17, 200):
            assert 1 in bad_set(q, ONE)

    def test_members_and_complement_partition_residues(self):
        for q in (17, 41, 101):
            bs = bad_set(q, ONE)
            members = set(bs.members)
            comp = set(bs.complement)
            assert members | comp == set(range(1, q))
            assert not (members & comp)

    def test_symmetry_under_negation(self):
        # a is bad iff q - a is bad: the Farey neighborhoods are symmetric
        for q in (17, 53, 101):
            members = set(bad_set(q, ONE).members)
            assert members == {q - a for a in members}

    def test_contains_agrees_with_members(self):
        for q in (17, 101, 1009):
            bs = bad_set(q, 1)
            assert [a for a in range(1, q) if a in bs] == list(bs.members)
            assert 0 not in bs and q not in bs


class TestFareyPoints:
    def test_denominators_bounded_by_sqrt_q(self):
        for q in (17, 101):
            for pt in farey_points(q, ONE):
                assert 1 <= pt.d <= math.isqrt(q)
                assert math.gcd(pt.c, pt.d) == 1

    def test_contains_is_exact(self):
        pt = FareyPoint(q=17, c=0, d=1, C=ONE)
        # |a/17 - 0| <= 1/sqrt(17) iff a^2 <= 17
        assert pt.contains(4)
        assert not pt.contains(5)


class TestBounds:
    def test_all_primes_to_300(self):
        for q in primes_between(17, 300):
            rep = verify_bounds(q, ONE)
            assert rep.ok, (q, rep)

    def test_good_residues_obey_length_and_sum_bounds(self):
        # spelled-out version of what verify_bounds checks, for two primes
        for q in (17, 97):
            for a in good_residues(q, ONE):
                # exact: l(a,q) <= 3 sqrt(q) + 2  =>  (l - 2)^2 <= 9 q when l > 2
                l = hj_length(q, a)
                if l > 2:
                    assert (l - 2) ** 2 <= 9 * q

    def test_cardinality_bound(self):
        for q in (17, 101, 499):
            rep = verify_bounds(q, ONE)
            f_size = len(bad_set(q, ONE).members)
            assert rep.f_size == f_size
            assert rep.card_bound_ok

    def test_small_q_rejected(self):
        with pytest.raises(DomainError):
            verify_bounds(13, ONE)

    def test_composite_q_rejected(self):
        with pytest.raises(DomainError):
            bad_set(18, ONE)


class TestGoodCValues:
    def test_c_small_on_good_set(self):
        # c(a,q) = 12 s(a,q) + l(a,q) stays O(sqrt(q)) on the good set
        for q in (101, 499):
            for a in good_residues(q, ONE):
                assert abs(c_value(q, a)) <= 6 * math.sqrt(q) + 7
