"""Genus and p-rank bound of cyclic covers of the line."""
import random

import pytest

from chernslope.numtheory import primes_between
from chernslope.prank import (
    CyclicCoverData,
    frobenius_orbits,
    genus,
    h1_dim,
    prank_upper_bound,
)
from oracles import genus_via_cohomology, is_primitive_root


def random_branch_data(rng, q, p, l):
    """Branch multiplicities of length l summing to a multiple of q."""
    while True:
        a = [rng.randint(1, q - 1) for _ in range(l - 1)]
        last = (-sum(a)) % q
        if last:
            a.append(last)
            try:
                return CyclicCoverData(q, p, tuple(a))
            except Exception:
                continue


class TestGenus:
    def test_two_formula_paths_agree(self):
        rng = random.Random(20240917)
        primes = primes_between(5, 200)
        for _ in range(50):
            q = rng.choice(primes)
            p = rng.choice([x for x in (2, 3, 5, 7) if x != q])
            data = random_branch_data(rng, q, p, rng.randint(3, 6))
            assert genus(data) == genus_via_cohomology(data)

    def test_symmetric_data_genus(self):
        # multiplicities in complementary pairs give genus (q-1)(l-1)
        rng = random.Random(7)
        for q, l in [(11, 2), (17, 3), (53, 4), (97, 5)]:
            a = rng.sample(range(1, q), l)
            data = CyclicCoverData(q, 2 if q != 2 else 3,
                                   tuple(a) + tuple(q - x for x in a))
            assert genus(data) == (q - 1) * (l - 1)


class TestH1Dims:
    def test_dims_nonnegative_and_sum_to_genus(self):
        data = CyclicCoverData(17, 2, (1, 2, 14))
        dims = [h1_dim(i, data) for i in range(1, 17)]
        assert all(d >= 0 for d in dims)
        assert sum(dims) == genus(data)


class TestFrobeniusOrbits:
    def test_orbits_partition_residues(self):
        for q, p in [(17, 2), (31, 5), (13, 2)]:
            orbits = frobenius_orbits(q, p)
            flat = [a for orbit in orbits for a in orbit]
            assert sorted(flat) == list(range(1, q))

    def test_primitive_root_gives_single_orbit(self):
        assert is_primitive_root(3, 17)
        assert len(frobenius_orbits(17, 3)) == 1

    def test_non_primitive_root(self):
        assert not is_primitive_root(2, 17)  # 2^8 = 256 = 1 mod 17
        assert len(frobenius_orbits(17, 2)) > 1

    def test_single_orbit_exactly_for_primitive_roots(self):
        # the `prank` report reads primitive_root off the orbit count
        pairs = [(p, q) for p in primes_between(2, 23) for q in primes_between(2, 1199) if p != q]
        assert len(pairs) == 1755
        for p, q in pairs:
            assert (len(frobenius_orbits(q, p)) == 1) is is_primitive_root(p, q), (p, q)


class TestPRankBound:
    def test_zero_for_primitive_root_cases(self):
        # branch sums exactly q with p a primitive root mod q force B = 0
        rng = random.Random(3)
        checked = 0
        for q in primes_between(5, 300):
            p = next((x for x in (2, 3, 5, 7, 11) if x % q and is_primitive_root(x, q)), None)
            if p is None:
                continue
            for _ in range(10):
                l = rng.randint(3, 6)
                cuts = sorted(rng.sample(range(1, q), l - 1))
                parts = [cuts[0]] + [cuts[i] - cuts[i - 1] for i in range(1, l - 1)]
                parts.append(q - cuts[-1])
                if 0 in parts:
                    continue
                data = CyclicCoverData(q, p, tuple(parts))
                assert prank_upper_bound(data) == 0
                checked += 1
                break
            if checked >= 20:
                break
        assert checked >= 20

    def test_equals_genus_for_symmetric_data(self):
        rng = random.Random(11)
        for q in [x for x in primes_between(5, 100)]:
            for l in range(2, 6):
                if l >= q:
                    continue
                a = rng.sample(range(1, q), l)
                data = CyclicCoverData(q, 2 if q != 2 else 3,
                                       tuple(a) + tuple(q - x for x in a))
                g = genus(data)
                assert g == (q - 1) * (l - 1)
                assert prank_upper_bound(data) == g

    def test_bounded_by_genus(self):
        rng = random.Random(5)
        for _ in range(25):
            q = rng.choice(primes_between(5, 100))
            p = rng.choice([x for x in (2, 3, 5) if x != q])
            data = random_branch_data(rng, q, p, rng.randint(3, 5))
            assert 0 <= prank_upper_bound(data) <= genus(data)


class TestValidation:
    def test_rejects_sum_not_divisible(self):
        with pytest.raises(Exception):
            CyclicCoverData(17, 2, (1, 2, 3))

    def test_rejects_p_equal_q(self):
        with pytest.raises(Exception):
            CyclicCoverData(17, 17, (1, 16))
