"""Solvers that hit a prescribed limiting slope within epsilon.

The limiting slopes of both families accumulate on [2, oo): family A via a
rational point u/v close to the root of lambda(x) = x/4 + 1/(4x) - 1/2 at
the target offset, family APRIME via a prime-power ladder. Both solvers
work entirely in exact rationals and return the achieved limit together
with a diagnostic ledger of the triangle-inequality budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .geometry import ArrangementParams, Family, limit_slope
from .numtheory import DomainError, is_prime

TARGET_PRECISION = 10**12  # denominator cap when ingesting float targets
R_CAP = 400  # family A: largest exponent r tried
Y_CAP = 200  # APRIME ladder: largest exponent y tried
E_CAP = 10**6  # APRIME ladder: largest e tried


def as_fraction(x) -> Fraction:
    """Ingest a target; floats are truncated to ~1e-12 rational precision."""
    if isinstance(x, float):
        return Fraction(x).limit_denominator(TARGET_PRECISION)
    return Fraction(x)


def lambda_fn(x) -> Fraction:
    x = Fraction(x)
    if x <= 0:
        raise DomainError(f"lambda is only used on positive rationals, got {x}")
    return x / 4 + 1 / (4 * x) - Fraction(1, 2)


def _sqrt_lower(y: Fraction) -> Fraction:
    """Rational lower approximation of sqrt(y) good to ~10^-40."""
    scale = 10**40
    n = y.numerator * y.denominator * scale * scale
    return Fraction(math.isqrt(n), y.denominator * scale)


def find_uv(alpha, epsilon) -> tuple[int, int, int]:
    """Integers u < v with v - u odd, d = (v + 1 - u)/2 >= 3, and
    |lambda(u/v) - alpha| < epsilon/5, 1/u < epsilon/5, 1/v < epsilon/5,
    3/(4uv) < epsilon/5."""
    alpha = Fraction(alpha)
    eps = Fraction(epsilon)
    if alpha < 0 or eps <= 0:
        raise DomainError("need alpha >= 0 and epsilon > 0")
    # positive root of lambda(x) = alpha: x = 2 alpha + 1 + 2 sqrt(alpha^2 + alpha)
    xstar = 2 * alpha + 1 + 2 * _sqrt_lower(alpha * alpha + alpha) if alpha else Fraction(1)
    u = 6 * (eps.denominator // eps.numerator + 1) + 10  # comfortably above 5/eps
    for _ in range(64):
        v = round(u * xstar)
        if (v - u) % 2 == 0:
            v += 1
        if v - u < 5:
            v = u + 5
        d = (v + 1 - u) // 2
        budget = eps / 5
        if (
            abs(lambda_fn(Fraction(u, v)) - alpha) < budget
            and Fraction(1, u) < budget
            and Fraction(1, v) < budget
            and Fraction(3, 4 * u * v) < budget
        ):
            return u, v, d
        u *= 2
    raise DomainError("no (u, v) pair found; epsilon too small for the search cap")


@dataclass(frozen=True)
class SolvedParams:
    target: Fraction
    epsilon: Fraction
    params: ArrangementParams | None
    achieved_limit: Fraction | None
    error: Fraction | None
    status: str  # "ok" | "cap_hit"
    diagnostics: dict = field(default_factory=dict)


def _checked_inputs(target, epsilon, p: int) -> tuple[Fraction, Fraction]:
    """(target, epsilon) as Fractions, after the checks both solvers share."""
    x = as_fraction(target)
    eps = as_fraction(epsilon)
    if x < 2 or eps <= 0:
        raise DomainError("need target >= 2 and epsilon > 0")
    if not is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    return x, eps


def _offset(params: ArrangementParams) -> Fraction:
    """The slope offset limit slope - 2 of either family, in closed form."""
    return limit_slope(params) - 2


def solve_family_a(
    target, epsilon, p: int = 2, g: int = 0, e: int = 1, w: int = 1
) -> SolvedParams:
    """Family A parameters whose limiting slope is within epsilon of target.

    Budget: |limit - 2 - alpha| <= |frac - bridge| + |lambda(u/v) - alpha|
    + 1/u + 1/v + 3/(4uv), each kept below epsilon/5; `bridge` is the
    r -> oo limit ((d-1)(d-2) - 2u) / (u(u-1) + 2ud) of the slope offset.
    """
    x, eps = _checked_inputs(target, epsilon, p)
    alpha = x - 2
    if alpha == 0:
        # aim slightly inside the interval; the slope offset is positive
        alpha_t, eps_t = eps / 2, eps / 4
    else:
        alpha_t, eps_t = alpha, eps

    u, v, d = find_uv(alpha_t, eps_t)
    bridge = Fraction((d - 1) * (d - 2) - 2 * u, u * (u - 1) + 2 * u * d)
    best = None
    for r in range(1, R_CAP + 1):
        params = ArrangementParams(Family.A, p=p, r=r, e=e, d=d, g=g, u=u, w=w)
        frac = _offset(params)
        if best is None or abs(frac - alpha_t) < abs(best[1] - alpha_t):
            best = (params, frac)
        if abs(frac - bridge) < eps_t / 5:
            break
    params, frac = best
    achieved = 2 + frac
    error = abs(achieved - x)
    diagnostics = {
        "u": u,
        "v": v,
        "d": d,
        "term_frac_vs_bridge": abs(frac - bridge),
        "term_lambda": abs(lambda_fn(Fraction(u, v)) - alpha_t),
        "term_inv_u": Fraction(1, u),
        "term_inv_v": Fraction(1, v),
        "term_3_4uv": Fraction(3, 4 * u * v),
        "internal_alpha": alpha_t,
        "internal_epsilon": eps_t,
    }
    status = "ok" if error < eps else "cap_hit"
    return SolvedParams(x, eps, params, achieved, error, status, diagnostics)


def solve_family_aprime(
    target, epsilon, p: int = 2, l_cap: int = 10**7
) -> SolvedParams:
    """Family APRIME parameters (e, r, l) within epsilon of target.

    For offsets above epsilon/3 the prime-power ladder is used: an integer
    n and exponent z with n*(2 alpha - 2 eps/3) <= p^z <= n*(2 alpha + 2
    eps/3), then l = n*p^y and r = z + y with y, e scanned until the two
    remaining thirds of the budget close. Targets at (or within epsilon/3
    of) 2 fall back to e = 1, r = 1 and the first l whose offset is within
    epsilon, found by bisection (`cap_hit` if it is not below l_cap).
    """
    x, eps = _checked_inputs(target, epsilon, p)
    alpha = x - 2

    if alpha <= eps / 3:
        # The slope offset f(l) decreases to 0 like p/(2l); find the first l
        # in [3, l_cap) with |f(l) - alpha| < eps, i.e. f(l) < alpha + eps
        # (f > 0 > alpha - eps there). f is unimodal on l >= 3:
        # f(l) - f(l+1) has the sign of l(l+1)(h(l) - 2p) with
        # h(l) = (8l^4 - 24l^3 - 18l^2 - 2l + 12) / (l(l+1)) increasing
        # (h(l+1) - h(l) = 8(2l-3)(l^3+3l^2+2l+1) / (l(l+1)(l+2)) > 0), so f
        # rises up to some L (L = 4 for p <= 5) and then falls, strictly on
        # both sides: h(l) = 2p would need 2l(l+1) | 16l - 12, so l <= 6,
        # and no such l gives a prime p.
        # Unless l = 3 passes, the pass test is therefore monotone in l, and
        # doubling then bisection finds the first passing l.
        if l_cap <= 3:
            raise DomainError(f"l_cap must exceed 3, got {l_cap}")
        bound = alpha + eps

        def offset(l: int) -> Fraction:
            return _offset(ArrangementParams(Family.APRIME, p=p, r=1, e=1, d=2 * l))

        def passes(l: int) -> bool:
            return offset(l) < bound

        last = l_cap - 1
        if passes(3):
            l, status = 3, "ok"
        elif not passes(last):
            # nothing passes below l_cap: every err is f(l) - alpha, least
            # at an end of the unimodal range (the first on a tie)
            l, status = last, "cap_hit"
            if offset(3) <= offset(last):
                l = 3
        else:
            lo, hi = 3, 4
            while not passes(hi):
                lo, hi = hi, min(2 * hi, last)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if passes(mid):
                    hi = mid
                else:
                    lo = mid
            l, status = hi, "ok"
        params = ArrangementParams(Family.APRIME, p=p, r=1, e=1, d=2 * l)
        frac = _offset(params)
        return SolvedParams(x, eps, params, 2 + frac, abs(frac - alpha), status,
                            {"route": "small-offset scan", "l": l})

    beta = 2 * alpha - 2 * eps / 3
    gamma = 2 * alpha + 2 * eps / 3
    z = 1
    while True:
        pz = p**z
        n = math.ceil(pz / gamma)
        if n >= 1 and n * beta <= pz and n * gamma >= pz:
            break
        z += 1
        if z > 10_000:
            raise DomainError("prime-power window never closed")
    mid_target = Fraction(pz, 2 * n)

    # mid is the e -> oo limit of the offset at (l, r)
    for y in range(0, Y_CAP + 1):
        l = n * p**y
        if l < 3:
            continue
        r = z + y
        m = p**r
        mid = Fraction(m * (2 * l - 5), 4 * l * l - 6 * l + 2 + m)
        if abs(mid - mid_target) < eps / 3:
            break
    else:
        return SolvedParams(x, eps, None, None, None, "cap_hit", {"route": "ladder", "stage": "y"})

    for e in range(1, E_CAP + 1):
        params = ArrangementParams(Family.APRIME, p=p, r=r, e=e, d=2 * l)
        frac = _offset(params)
        if abs(frac - mid) < eps / 3:
            break
    else:
        return SolvedParams(x, eps, None, None, None, "cap_hit", {"route": "ladder", "stage": "e"})

    achieved = 2 + frac
    error = abs(achieved - x)
    diagnostics = {
        "route": "ladder",
        "z": z,
        "n": n,
        "y": y,
        "term_window": abs(mid_target - 2 * alpha),
        "term_y": abs(mid - mid_target),
        "term_e": abs(frac - mid),
    }
    status = "ok" if error < eps else "cap_hit"
    return SolvedParams(x, eps, params, achieved, error, status, diagnostics)
