"""Continued fractions, Dedekind sums and the c-invariant."""
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chernslope.numtheory import (
    DomainError,
    ceil_isqrt,
    dedekind_data,
    dedekind_sum,
    hj_length,
    hj_pass,
    is_prime,
    next_prime,
    primes_between,
)
from oracles import dedekind_sum_direct, hj_digits_direct, hj_value, is_prime_trial

# psi_13 (Sorenson-Webster 2017): Miller-Rabin with bases 2..41 is exact below it
PSI_13 = 3_317_044_064_679_887_385_961_981


def coprime_pairs(q_max):
    for q in range(2, q_max + 1):
        for a in range(1, q):
            if math.gcd(a, q) == 1:
                yield q, a


class TestHirzebruchJung:
    def test_known_expansion(self):
        exp = dedekind_data(7, 2)
        assert exp.digits == (4, 2)
        assert exp.length == 2

    def test_full_turn_expansion_is_all_twos(self):
        for q in (5, 11, 17):
            exp = dedekind_data(q, q - 1)
            assert exp.digits == (2,) * (q - 1)
            assert hj_length(q, q - 1) == q - 1

    def test_evaluate_reconstructs_fraction(self):
        for q, a in coprime_pairs(40):
            assert hj_value(dedekind_data(q, a).digits) == Fraction(q, a)

    @given(st.integers(min_value=2, max_value=500), st.data())
    def test_digits_at_least_two(self, q, data):
        a = data.draw(st.integers(min_value=1, max_value=q - 1))
        if math.gcd(a, q) != 1:
            return
        exp = dedekind_data(q, a)
        assert all(d >= 2 for d in exp.digits)
        assert hj_value(exp.digits) == Fraction(q, a)

    def test_rejects_noncoprime(self):
        with pytest.raises(DomainError):
            dedekind_data(6, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            dedekind_data(5, 5)


class TestHjPass:
    @pytest.mark.parametrize("q", [17, 101, 9973])
    def test_matches_dedekind_data(self, q):
        for a in range(1, q):
            digits, s12q = hj_pass(q, a)
            data = dedekind_data(q, a)
            assert tuple(digits) == data.digits
            assert s12q == 12 * q * data.s

    def test_matches_defining_sum(self):
        for q, a in coprime_pairs(200):
            assert hj_pass(q, a)[1] == 12 * q * dedekind_sum_direct(q, a), (q, a)

    def test_matches_ceil_loop(self):
        # composite q included: the run step needs only gcd(a, q) = 1
        for q, a in coprime_pairs(300):
            assert hj_pass(q, a)[0] == hj_digits_direct(q, a), (q, a)

    # a = q - k for small k makes long runs of 2s
    @given(st.integers(2, 10**6), st.data())
    @settings(max_examples=500, deadline=None)
    def test_matches_ceil_loop_at_random(self, q, data):
        a = data.draw(st.integers(max(1, q - 40), q - 1) | st.integers(1, q - 1))
        assume(math.gcd(a, q) == 1)
        assert hj_pass(q, a)[0] == hj_digits_direct(q, a)

    def test_orbit_identities(self):
        # what verify_bounds reads off one pass: q/a' has the digits of q/a
        # reversed (a' = a^-1 mod q), and q/(q - a) has the dual length
        # sum(e_i) - 2 l + 1 (Riemenschneider)
        for q, a in coprime_pairs(300):
            digits = hj_pass(q, a)[0]
            assert hj_pass(q, pow(a, -1, q))[0] == digits[::-1], (q, a)
            dual = sum(digits) - 2 * len(digits) + 1
            assert len(hj_pass(q, q - a)[0]) == dual, (q, a)


class TestDedekindSum:
    def test_known_values(self):
        assert dedekind_sum(5, 1) == Fraction(1, 5)
        assert dedekind_sum(5, 3) == 0
        assert dedekind_sum(3, 2) == Fraction(-1, 18)

    def test_fast_equals_defining_sum(self):
        for q, a in coprime_pairs(120):
            assert dedekind_sum(q, a) == dedekind_sum_direct(q, a)

    @given(st.integers(min_value=2, max_value=400), st.data())
    def test_reciprocity(self, q, data):
        a = data.draw(st.integers(min_value=1, max_value=q - 1))
        if math.gcd(a, q) != 1:
            return
        # s(a,q) + s(q,a) = -1/4 + (a^2 + q^2 + 1)/(12 a q), with s(q,a)
        # reduced mod a
        s_aq = dedekind_sum(a, q % a) if a > 1 else Fraction(0)
        rhs = Fraction(-1, 4) + Fraction(a * a + q * q + 1, 12 * a * q)
        assert dedekind_sum(q, a) + s_aq == rhs

    def test_hj_identity_matches_defining_sum(self):
        # composite q included: the identity needs only gcd(a, q) = 1
        for q, a in coprime_pairs(249):
            data = dedekind_data(q, a)
            direct = dedekind_sum_direct(q, a)
            assert data.s == direct, (q, a)
            assert data.c == 12 * direct + data.length

    def test_negation_symmetry(self):
        for q, a in coprime_pairs(60):
            assert dedekind_sum(q, q - a) == -dedekind_sum(q, a)


class TestCInvariant:
    def test_known_value(self):
        assert dedekind_data(5, 3).c == 2

    def test_full_turn_identity_small_primes(self):
        for q in primes_between(2, 200):
            assert dedekind_data(q, q - 1).c == 2 - Fraction(2, q)

    def test_definition(self):
        for q, a in coprime_pairs(50):
            assert dedekind_data(q, a).c == 12 * dedekind_sum(q, a) + hj_length(q, a)

    def test_bundled_data_is_consistent(self):
        data = dedekind_data(7, 2)
        assert data.digits == (4, 2)
        assert data.length == 2
        assert data.s == dedekind_sum(7, 2)
        assert data.c == Fraction(20, 7)


class TestPrimeHelpers:
    def test_is_prime_small(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]

    def test_is_prime_matches_trial_division(self):
        assert [n for n in range(10**5 + 1) if is_prime(n)] == \
            [n for n in range(10**5 + 1) if is_prime_trial(n)]

    @pytest.mark.parametrize("n", [
        3_215_031_751,                    # strong pseudoprime to bases 2, 3, 5, 7
        3_825_123_056_546_413_051,        # strong pseudoprime to bases 2..31
        318_665_857_834_031_151_167_461,  # psi_12: passes bases 2..37, base 41 catches it
    ])
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [2**61 - 1, 10**18 + 3])
    def test_large_primes(self, n):
        assert is_prime(n)

    def test_undecided_above_psi_13(self):
        with pytest.raises(DomainError):
            is_prime(PSI_13)

    def test_next_prime(self):
        assert next_prime(17) == 17
        assert next_prime(18) == 19
        assert next_prime(90) == 97

    def test_primes_between(self):
        assert primes_between(10, 30) == [11, 13, 17, 19, 23, 29]

    def test_ceil_isqrt(self):
        assert ceil_isqrt(16) == 4
        assert ceil_isqrt(17) == 5
        for n in range(1, 500):
            r = ceil_isqrt(n)
            assert (r - 1) ** 2 < n <= r ** 2
