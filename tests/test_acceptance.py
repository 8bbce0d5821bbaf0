"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (visible with pytest -s); under
pytest -v the test name itself serves as the line. Later criteria reuse
the assignments produced by earlier ones via module-level caches.
"""
import itertools
import math
import random
import time
from fractions import Fraction

from chernslope.badset import verify_bounds
from chernslope.density import solve_family_a, solve_family_aprime
from chernslope.geometry import (
    ArrangementParams,
    Family,
    build_resolution,
    limit_slope,
    log_chern_closed,
    log_chern_pair,
)
from chernslope.numtheory import (
    dedekind_data,
    dedekind_sum,
    hj_length,
    is_prime,
    next_prime,
    primes_between,
)
from chernslope.partitions import NotFound, PartitionProblem, search_assignment
from chernslope.pipeline import run_pipeline
from chernslope.prank import CyclicCoverData, genus, prank_upper_bound
from chernslope.nefcheck import closed_entries, config_entries, min_nef_q
from chernslope.rootcover import chern_of_cover, defect_bound
from oracles import dedekind_sum_direct, genus_via_cohomology, is_primitive_root

# Assignments and cover invariants shared between criteria 5, 7 and 8.
_COVERS: list = []
_SOLVED: list = []


def _verdict(num: int, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_dedekind_fast_vs_oracle_and_reciprocity():
    t0 = time.monotonic()
    ok = True
    for q in range(2, 201):
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            s = dedekind_sum(q, a)
            if s != dedekind_sum_direct(q, a):
                ok = False
            rhs = Fraction(-1, 4) + Fraction(a, 12 * q) + Fraction(q, 12 * a) + Fraction(1, 12 * a * q)
            s_qa = dedekind_sum(a, q % a) if a > 1 else Fraction(0)
            if s + s_qa != rhs:
                ok = False
    elapsed = time.monotonic() - t0
    _verdict(1, ok and elapsed < 10, f"{elapsed:.1f}s")


def test_criterion_02_chain_of_minus_twos_constants():
    ok = all(
        dedekind_data(q, q - 1).c == 2 - Fraction(2, q) and hj_length(q, q - 1) == q - 1
        for q in primes_between(2, 1000)
        if q > 2
    )
    _verdict(2, ok)


def test_criterion_03_good_residue_bounds_all_primes():
    t0 = time.monotonic()
    ok = all(verify_bounds(q, 1).ok for q in primes_between(17, 2000))
    elapsed = time.monotonic() - t0
    _verdict(3, ok and elapsed < 120, f"{elapsed:.1f}s")


def test_criterion_04_closed_forms_match_built_resolution():
    points = []
    for p, r, e, d, g in itertools.product([2, 3, 5], [1, 2], [1, 2], [3, 4, 5], [0, 1]):
        points.append(ArrangementParams(Family.A0, p=p, r=r, e=e, d=d, g=g))
    for p, r, d, g, u, w in itertools.product([2, 3], [1, 2], [3, 4, 5], [0, 1], [1, 2], [1, 2]):
        points.append(ArrangementParams(Family.A, p=p, r=r, e=1, d=d, g=g, u=u, w=w))
    for p, r, e, d in itertools.product([2, 3, 5], [1, 2], [1, 2], [4, 6, 8]):
        points.append(ArrangementParams(Family.APRIME, p=p, r=r, e=e, d=d))
    assert len(points) >= 200
    ok = True
    for params in points:
        c1b, c2b, _slope = log_chern_closed(params)
        if log_chern_pair(build_resolution(params)) != (c1b, c2b):
            ok = False
    _verdict(4, ok, f"{len(points)} grid points")


def test_criterion_05_slope_converges_to_limit():
    params = ArrangementParams(Family.A, p=2, r=1, e=1, d=3, g=0, u=1, w=1)
    config = build_resolution(params)
    _c1b, c2b, limit = log_chern_closed(params)
    t2 = config.t2
    qs = [101, 151, 211, 307, 401, 499, 701, 1009, 1301, 1613, 2003]
    errors = {}
    ok = True
    for q in qs:
        assign = search_assignment(PartitionProblem(config, q), seed=1)
        assert not isinstance(assign, NotFound), f"no good assignment at q={q}"
        inv = chern_of_cover(config, assign)
        err = abs(inv.slope - limit)
        errors[q] = err
        # err <= 8*sqrt(q)*t2 / (q*c2b), compared exactly after squaring
        if (err * q * c2b) ** 2 > 64 * q * t2 * t2:
            ok = False
        _COVERS.append(inv)
    if errors[101] < 2 * errors[2003]:
        ok = False
    _verdict(5, ok, f"err@101={float(errors[101]):.3f} err@2003={float(errors[2003]):.3f}")


def test_criterion_06_both_solvers_hit_six_targets():
    t0 = time.monotonic()
    targets = [Fraction(2), Fraction(5, 2), Fraction(3), Fraction(314159, 100000),
               Fraction(4), Fraction(10)]
    eps = Fraction(1, 100)
    ok = True
    for target in targets:
        for solver in (solve_family_a, solve_family_aprime):
            solved = solver(target, eps)
            if solved.status != "ok":
                ok = False
                continue
            recomputed = limit_slope(solved.params)
            if recomputed != solved.achieved_limit or abs(recomputed - target) >= eps:
                ok = False
            _SOLVED.append(solved)
    elapsed = time.monotonic() - t0
    _verdict(6, ok and elapsed < 60, f"{elapsed:.1f}s")


def test_criterion_07_chern_sum_divisible_by_twelve():
    assert _COVERS, "needs the assignments from the convergence criterion"
    ok = all((inv.c1sq + inv.c2) % 12 == 0 for inv in _COVERS)
    _verdict(7, ok, f"{len(_COVERS)} covers")


def test_criterion_08_node_corrections_below_defect_cap():
    assert _COVERS
    ok = all(
        inv.c_correction <= defect_bound(inv.q, sum(s.node[2] for s in inv.singularities))
        for inv in _COVERS
    )
    _verdict(8, ok, f"{len(_COVERS)} covers")


def test_criterion_09_prank_vanishes_and_genus_double_entry():
    ok = True
    # twenty primitive-root instances with branch multiplicities summing to q
    rng = random.Random(20240917)
    instances = 0
    for q in primes_between(5, 200):
        for p in (2, 3, 5, 7):
            if instances >= 20:
                break
            if p == q or not is_primitive_root(p, q):
                continue
            k = rng.randint(2, min(6, q - 1))
            cuts = sorted(rng.sample(range(1, q), k - 1))
            mults = [b - a for a, b in zip([0] + cuts, cuts + [q])]
            data = CyclicCoverData(q=q, p=p, mults=tuple(mults))
            if prank_upper_bound(data) != 0:
                ok = False
            instances += 1
    if instances < 20:
        ok = False
    # symmetric data: B = g = (q-1)(l-1)
    for q in primes_between(3, 100):
        for l in range(2, 6):
            mults = []
            for i in range(l):
                a = (i % (q // 2)) + 1
                mults += [a, q - a]
            data = CyclicCoverData(q=q, p=next_prime(q + 1), mults=tuple(mults))
            expected = (q - 1) * (l - 1)
            if genus(data) != expected or prank_upper_bound(data) != expected:
                ok = False
    # genus via eigenspace dimensions equals genus via ramification
    for _ in range(50):
        q = rng.choice(primes_between(3, 120))
        k = rng.randint(2, 8)
        while True:
            mults = [rng.randint(1, q - 1) for _ in range(k - 1)]
            last = (-sum(mults)) % q
            if 0 < last < q:
                mults.append(last)
                break
        p = next_prime(rng.randint(2, 50))
        if p == q:
            p = next_prime(q + 1)
        data = CyclicCoverData(q=q, p=p, mults=tuple(mults))
        if genus(data) != genus_via_cohomology(data):
            ok = False
    _verdict(9, ok)


def test_criterion_10_nonnegative_intersections_below_cap():
    ok = True
    grids = {
        Family.A0: [ArrangementParams(Family.A0, p=p, r=r, e=e, d=d)
                    for p, r, e, d in itertools.product([2, 3], [1, 2], [1, 2], [3, 4, 5])][:20],
        Family.A: [ArrangementParams(Family.A, p=p, r=r, e=1, d=d, u=u, w=w)
                   for p, r, d, u, w in itertools.product([2, 3], [1, 2], [3, 4], [1, 2], [1, 2])][:20],
        Family.APRIME: [ArrangementParams(Family.APRIME, p=p, r=r, e=e, d=d)
                        for p, r, e, d in itertools.product([2, 3], [1, 2], [1, 2], [4, 6, 8])][:20],
    }
    for family, points in grids.items():
        assert len(points) >= 20
        for params in points:
            q0 = min_nef_q(params)
            if q0 is None or q0 >= 10007:
                ok = False
                continue
            config = build_resolution(params)
            q = q0
            for _ in range(6):
                entries = closed_entries(params, q)
                if any(v < 0 for v in entries.values()):
                    ok = False
                derived = config_entries(config, q)
                shared = entries.keys() & derived.keys()
                if any(entries[k] != derived[k] for k in shared):
                    ok = False
                q = next_prime(q + 1)
                while q == params.p:
                    q = next_prime(q + 1)
    _verdict(10, ok)


def test_criterion_11_pipeline_reruns_are_byte_identical(aprime_result):
    kwargs = dict(target=Fraction(14, 5), epsilon=Fraction(4, 5), family="APRIME", seed=2)
    first = aprime_result.to_json()
    second = run_pipeline(**kwargs).to_json()
    _verdict(11, first == second, f"{len(first)} bytes")
