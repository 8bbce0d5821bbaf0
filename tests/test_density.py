"""Parameter solvers hitting a target limit slope within epsilon."""
from fractions import Fraction

import pytest

from chernslope.density import (
    find_uv,
    lambda_fn,
    solve_family_a,
    solve_family_aprime,
)
from chernslope.geometry import limit_slope
from chernslope.numtheory import DomainError

TARGETS = [Fraction(2), Fraction(5, 2), Fraction(3), Fraction(314159, 100000),
           Fraction(4), Fraction(10)]
EPS = Fraction(1, 100)


class TestLambda:
    def test_fixed_points(self):
        assert lambda_fn(Fraction(1)) == 0
        assert lambda_fn(Fraction(2)) == Fraction(1, 8)

    def test_symmetric_in_inversion(self):
        for x in (Fraction(3, 2), Fraction(7, 3), Fraction(5)):
            assert lambda_fn(x) == lambda_fn(1 / x)


class TestFindUV:
    def test_produces_valid_window(self):
        u, v, d = find_uv(Fraction(3), Fraction(1, 50))
        assert u < v
        assert (v - u) % 2 == 1
        assert v - u >= 5
        assert d == (v + 1 - u) // 2


@pytest.mark.parametrize("target", TARGETS)
class TestSolvers:
    def test_sections_family(self, target):
        solved = solve_family_a(target, EPS)
        assert solved.status == "ok"
        assert abs(solved.achieved_limit - target) < EPS
        # independent recomputation through the arrangement closed forms
        assert limit_slope(solved.params) == solved.achieved_limit

    def test_paired_family(self, target):
        solved = solve_family_aprime(target, EPS)
        assert solved.status == "ok"
        assert abs(solved.achieved_limit - target) < EPS
        assert limit_slope(solved.params) == solved.achieved_limit


class TestDispatcher:
    def test_float_targets_accepted(self):
        solved = solve_family_aprime(3.14159, Fraction(1, 100))
        assert abs(solved.achieved_limit - Fraction(314159, 100000)) < EPS

    def test_error_field_matches(self):
        solved = solve_family_a(Fraction(4), EPS)
        assert solved.error == abs(solved.achieved_limit - Fraction(4))

    def test_target_below_two_rejected(self):
        with pytest.raises(Exception):
            solve_family_a(Fraction(3, 2), EPS)


def aprime_offset(p, l):
    """The slope offset of APRIME (p, r = 1, e = 1, d = 2l), restated from
    the closed form c1bar^2 / (c2bar + l*e*p^r) - 2 as an oracle: the
    reference walk visits up to ~2.5e5 values of l, and this is five times
    cheaper than `limit_slope`. `assert_matches_scan` checks it against
    `limit_slope` at the l the solver returns."""
    return Fraction(p * l * (2 * l - 5), (2 * l - 2) * (l * (2 * l - 1) - 2) + l * p)


def small_offset_scan(target, eps, p, l_cap):
    """The small-offset route as a plain walk over l (reference):
    (l, offset, err, status)."""
    alpha = target - 2
    best = None
    for l in range(3, l_cap):
        frac = aprime_offset(p, l)
        err = abs(frac - alpha)
        if best is None or err < best[2]:
            best = (l, frac, err)
        if err < eps:
            return l, frac, err, "ok"
    return (*best, "cap_hit")


def assert_matches_scan(target, eps, p, l_cap=10**7):
    solved = solve_family_aprime(target, eps, p=p, l_cap=l_cap)
    l, frac, err, status = small_offset_scan(target, eps, p, l_cap)
    assert solved.diagnostics == {"route": "small-offset scan", "l": l}
    assert solved.params.d == 2 * l
    assert (solved.params.r, solved.params.e) == (1, 1)
    assert solved.achieved_limit == 2 + frac
    assert solved.error == err
    assert solved.status == status


class TestSmallOffsetRoute:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize(
        "eps", [Fraction(1, 2), Fraction(1, 10), Fraction(1, 1000), Fraction(1, 10**5)]
    )
    def test_first_passing_l_matches_scan(self, p, eps):
        assert_matches_scan(Fraction(2), eps, p)
        if eps >= Fraction(1, 1000):
            assert_matches_scan(2 + eps / 3, eps, p)

    def test_offset_rising_before_it_falls(self):
        # at p = 101 the offset grows from l = 3 up to l = 8 before it decays
        assert aprime_offset(101, 3) < aprime_offset(101, 7)
        for eps in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 1000)):
            assert_matches_scan(Fraction(2), eps, 101)

    @pytest.mark.parametrize("p, l_cap", [(2, 500), (2, 5), (101, 6), (101, 200)])
    def test_cap_hit_keeps_least_error_l(self, p, l_cap):
        assert_matches_scan(Fraction(2), Fraction(1, 1000), p, l_cap)
        assert solve_family_aprime(2, Fraction(1, 1000), p=p, l_cap=l_cap).status == "cap_hit"

    def test_cap_without_range_rejected(self):
        with pytest.raises(DomainError):
            solve_family_aprime(2, Fraction(1, 1000), l_cap=3)
