"""Bad/good residue split at a prime and the exact bound checks."""
import hashlib
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernslope.badset import (
    BoundReport,
    _card_bound_ok,
    _leq_shifted_sqrt,
    bad_set,
    good_residues,
    verify_bounds,
)
from chernslope.numtheory import (
    DomainError,
    dedekind_data,
    dedekind_sum,
    hj_length,
    next_prime,
    primes_between,
)

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

    @pytest.mark.parametrize("C", [ONE, Fraction(1, 2), Fraction(3)])
    def test_good_residues_agree_with_bad_set(self, C):
        for q in primes_between(17, 1000):
            bad = set(bad_set(q, C).members)
            assert good_residues(q, C) == {a for a in range(1, q) if a not in bad}, q

    def test_known_good_residues_at_17(self):
        assert set(good_residues(17, ONE)) == {5, 7, 10, 12}

    def test_one_is_always_bad(self):
        for q in primes_between(17, 200):
            assert 1 in bad_set(q, ONE).members

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
                assert abs(dedekind_data(q, a).c) <= 6 * math.sqrt(q) + 7


def _reference_leq_shifted_sqrt(value: Fraction, shift: int, coef: Fraction, q: int) -> bool:
    diff = Fraction(value) - shift
    if diff <= 0:
        return True
    return diff * diff <= coef * coef * q


def mpmath_card_rhs(q: int, C: Fraction) -> mpmath.mpf:
    """C sqrt(q) (log q + 2 log 2) at 60 digits, as mpmath evaluates it."""
    with mpmath.workdps(60):
        return (mpmath.mpf(C.numerator) / C.denominator) * mpmath.sqrt(q) * (
            mpmath.log(q) + 2 * mpmath.log(2)
        )


def reference_verify_bounds(q: int, C: Fraction) -> BoundReport:
    """The earlier two-call loop: one `hj_length` and one `dedekind_sum` per
    good residue, with the bounds compared as Fractions."""
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
    card_ok = len(fs.members) <= mpmath_card_rhs(q, C)
    return BoundReport(
        q=q,
        C=C,
        f_size=len(fs.members),
        card_bound_ok=bool(card_ok),
        worst_length=worst_l,
        worst_scaled_sum=worst_s,
        length_bound_ok=_reference_leq_shifted_sqrt(Fraction(worst_l[1]), 2, coef, q),
        sum_bound_ok=_reference_leq_shifted_sqrt(worst_s[1], 5, coef, q),
    )


def assert_same_report(got: BoundReport, want: BoundReport) -> None:
    # field by field, with types: a Fraction must stay a Fraction, a bool a bool
    for name in BoundReport.__dataclass_fields__:
        g, w = getattr(got, name), getattr(want, name)
        assert g == w, (name, g, w)
        assert type(g) is type(w), (name, g, w)
        if isinstance(w, tuple):
            assert [type(x) for x in g] == [type(x) for x in w], (name, g, w)


class TestVerifyBoundsOracle:
    # verify_bounds makes one HJ pass per orbit {a, q - a, a', q - a'} and
    # credits its good members. Mutants checked against these tests: giving
    # q - a and q - a' the length l instead of the dual length, or crediting
    # members that lie in F, each fails them (the latter at q = 173, C = 5,
    # where the bad 76 = 107^-1 shares the longest good length, 7, of 107).
    @pytest.mark.parametrize("C", [Fraction(1, 1000), Fraction(1, 2), ONE, Fraction(3, 2),
                                   Fraction(3), Fraction(5), Fraction(100)], ids=str)
    def test_matches_two_call_loop(self, C):
        for q in primes_between(17, 1000) + [10007]:
            assert_same_report(verify_bounds(q, C), reference_verify_bounds(q, C))

    def test_orbit_with_bad_least_member(self):
        # at q = 73, C = 3 the orbit {13, 28, 45, 60} (28' = 60) has its
        # least member 13 in F, and with it 60 = 73 - 13, while 28 and 45
        # are good: the orbit is taken at 28, its least good member
        C = Fraction(3)
        bad = set(bad_set(73, C).members)
        assert pow(28, -1, 73) == 60 and {13, 60} <= bad and not {28, 45} & bad
        assert_same_report(verify_bounds(73, C), reference_verify_bounds(73, C))

    # the oracle takes ~2 s at q near 10^5, hence few examples
    @given(st.integers(17, 99_991).map(next_prime),
           st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=1000))
    @settings(max_examples=15, deadline=None)
    def test_matches_two_call_loop_at_random(self, q, C):
        assert_same_report(verify_bounds(q, C), reference_verify_bounds(q, C))

    # The bounds hold for every prime above, so the reports never exercise a
    # failing comparison; the integer test is checked on its own here.
    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4), st.integers(0, 6),
           st.fractions(min_value=Fraction(1, 50), max_value=50), st.integers(1, 10**6))
    @settings(max_examples=500, deadline=None)
    def test_integer_bound_test_matches_fractions(self, num, den, shift, C, q):
        want = _reference_leq_shifted_sqrt(Fraction(num, den), shift, 2 + 1 / C, q)
        assert _leq_shifted_sqrt(num, den, shift, C, q) == want

    # The same holds for the cardinality bound: its failing branch is
    # reached only at sizes chosen around the mpmath value.
    @given(st.integers(17, 10**9).map(next_prime),
           st.fractions(min_value=Fraction(1, 50), max_value=50))
    @settings(max_examples=300, deadline=None)
    def test_cardinality_test_at_floor_of_bound(self, q, C):
        size = int(mpmath.floor(mpmath_card_rhs(q, C)))
        assert _card_bound_ok(size, C, q)
        assert not _card_bound_ok(size + 1, C, q)

    @pytest.mark.parametrize("C", [ONE, Fraction(1, 2), Fraction(3, 7)], ids=str)
    def test_integer_bound_test_at_equality(self, C):
        # q = k^2 makes (2 + 1/C) sqrt(q) + shift rational: equal passes,
        # one part in den above fails
        for k in (1, 5, 12):
            edge = (2 + 1 / C) * k + 3
            for den in (edge.denominator, 3 * edge.denominator):
                num = edge.numerator * (den // edge.denominator)
                assert _leq_shifted_sqrt(num, den, 3, C, k * k)
                assert not _leq_shifted_sqrt(num + 1, den, 3, C, k * k)

    def test_empty_good_set(self):
        # at C = 40 every residue mod 17 is bad: the worst entries keep their
        # start values, 12|s| = -1 included (not -1/17)
        assert bad_set(17, Fraction(40)).complement == ()
        rep = verify_bounds(17, 40)
        assert rep.worst_length == (0, -1)
        assert rep.worst_scaled_sum == (0, Fraction(-1))
        assert rep.length_bound_ok and rep.sum_bound_ok
        assert_same_report(rep, reference_verify_bounds(17, Fraction(40)))

    def test_ties_keep_first_maximal_a(self):
        for q in (101, 499, 1009):
            good = bad_set(q, ONE).complement
            lengths = {a: hj_length(q, a) for a in good}
            sums = {a: abs(12 * dedekind_sum(q, a)) for a in good}
            rep = verify_bounds(q, ONE)
            top_l, top_s = max(lengths.values()), max(sums.values())
            # a and its inverse share both invariants, so every maximum is tied
            assert sum(v == top_l for v in lengths.values()) > 1
            assert sum(v == top_s for v in sums.values()) > 1
            assert rep.worst_length == (min(a for a in good if lengths[a] == top_l), top_l)
            assert rep.worst_scaled_sum == (min(a for a in good if sums[a] == top_s), top_s)
