"""Degree-q cover invariants from a branch multiplicity assignment."""
import functools
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chernslope import partitions, rootcover
from chernslope.geometry import ArrangementParams, Family, build_resolution, log_chern_pair
from chernslope.numtheory import DomainError, dedekind_data, hj_length, primes_between
from chernslope.partitions import PartitionProblem
from chernslope.pipeline import find_assignment
from chernslope.rootcover import (
    BranchAssignment,
    InvalidAssignmentError,
    chern_of_cover,
    defect_bound,
)
from oracles import node_residue


@pytest.fixture(scope="module")
def small_config():
    params = ArrangementParams(Family.A, p=2, r=1, e=1, d=3, g=0, u=1, w=1)
    return build_resolution(params)


@pytest.fixture(scope="module")
def hand_assignment(small_config):
    # x = (1, 1, 1, 1) on S1..S3, H1 and y = (2, 2, 2, 3) on F1..F3, R1
    # solve 2*(1+1+1+1) + (2+2+2+3) = 17 with the forced value 13 on S4
    base = {"S1": 1, "S2": 1, "S3": 1, "H1": 1,
            "F1": 2, "F2": 2, "F3": 2, "R1": 3, "S4": 13}
    return BranchAssignment.from_base(small_config, 17, base)


class TestNodeResidue:
    def test_known_value(self):
        assert node_residue(2, 3, 7) == 2
        assert node_residue(3, 2, 7) == 4

    def test_swap_gives_inverse(self):
        q = 101
        for i in range(1, 20):
            for j in range(1, 20):
                a = node_residue(i, j, q)
                b = node_residue(j, i, q)
                assert (a * b) % q == 1

    def test_equal_multiplicities_give_full_turn(self):
        assert node_residue(5, 5, 17) == 16


class TestBranchAssignment:
    def test_extends_chains(self, small_config, hand_assignment):
        # chain values over a tangency: k*(nu_a + nu_b) + nu_F mod q
        tang = small_config.tangencies[0]
        nus = hand_assignment.nus
        base_sum = nus[tang.sections[0]] + nus[tang.sections[1]]
        for k, gc in enumerate(tang.chain, start=1):
            assert nus[gc] == (k * base_sum + nus[tang.fiber]) % 17

    def test_rejects_zero_multiplicity(self, small_config):
        base = {"S1": 1, "S2": 1, "S3": 1, "H1": 1,
                "F1": 2, "F2": 2, "F3": 2, "R1": 3, "S4": 17}
        with pytest.raises(InvalidAssignmentError):
            BranchAssignment.from_base(small_config, 17, base)

    def test_rejects_missing_component(self, small_config):
        with pytest.raises(InvalidAssignmentError):
            BranchAssignment.from_base(small_config, 17, {"S1": 1})

    # S9 does not exist; G1.1 is a chain curve, whose multiplicity is derived
    @pytest.mark.parametrize("extra", ["S9", "G1.1"])
    def test_rejects_key_naming_no_base_component(self, small_config, extra):
        base = {"S1": 1, "S2": 1, "S3": 1, "H1": 1,
                "F1": 2, "F2": 2, "F3": 2, "R1": 3, "S4": 13, extra: 5}
        with pytest.raises(InvalidAssignmentError, match=f"^{extra} is not a base component$"):
            BranchAssignment.from_base(small_config, 17, base)

    def test_residues_cover_every_node(self, small_config, hand_assignment):
        nodes = {(i, j, c) for i, j, c in small_config.nodes}
        seen = {node for node, _ in hand_assignment.residues(small_config)}
        assert seen == nodes


@functools.cache
def drawn_config(params):
    return build_resolution(params)


def random_assignments(config, q, count, seed):
    """Seeded valid assignments: uniform base values, redrawn until no chain
    multiplicity vanishes."""
    rng = random.Random(f"{seed}:{q}")
    out = []
    while len(out) < count:
        base = {cid: rng.randrange(1, q) for cid in config.base_ids}
        try:
            out.append(BranchAssignment.from_base(config, q, base))
        except InvalidAssignmentError:
            continue
    return out


class TestResidues:
    @pytest.mark.parametrize("params", [
        ArrangementParams(Family.A, p=2, r=1, e=1, d=3, g=0, u=1, w=1),
        ArrangementParams(Family.A, p=3, r=1, e=2, d=4, g=1, u=2, w=2),
        ArrangementParams(Family.APRIME, p=2, r=1, e=1, d=6),
        ArrangementParams(Family.APRIME, p=3, r=1, e=1, d=4),
    ], ids=["A-d3", "A-d4", "APRIME-d6", "APRIME-d4"])
    @pytest.mark.parametrize("q", [17, 101, 499, 1009])
    def test_equal_node_residue_at_every_node(self, params, q):
        config = build_resolution(params)
        for assign in random_assignments(config, q, count=5, seed=0):
            expected = [(node, node_residue(assign.nus[node[0]], assign.nus[node[1]], q))
                        for node in config.nodes]
            assert list(assign.residues(config)) == expected

    @pytest.mark.parametrize("q", [91, 2], ids=["composite", "q=p"])
    def test_from_base_checks_q_before_the_base(self, small_config, q):
        # small_config has p = 2; the empty base would raise InvalidAssignmentError
        with pytest.raises(DomainError, match=f"^q must be a prime different from p, got {q}$"):
            BranchAssignment.from_base(small_config, q, {})


class TestCoverInvariants:
    def test_chi_is_integral(self, small_config, hand_assignment):
        inv = chern_of_cover(small_config, hand_assignment)
        assert (inv.c1sq + inv.c2) % 12 == 0
        assert inv.chi == (inv.c1sq + inv.c2) // 12
        assert inv.chi.denominator == 1

    def test_corrupt_node_correction_trips_the_chi_check(self, monkeypatch, small_config,
                                                         hand_assignment):
        # raise one residue's Dedekind sum by 1/12: c1^2 drops by that
        # residue's node count, which is not a multiple of 12
        counts = Counter()
        for node, a in hand_assignment.residues(small_config):
            counts[a] += node[2]
        bad_a = next(a for a, n in counts.items() if n % 12)
        real = rootcover.dedekind_data

        def corrupted(q, a):
            data = real(q, a)
            return replace(data, s=data.s + Fraction(1, 12)) if a == bad_a else data

        monkeypatch.setattr(rootcover, "dedekind_data", corrupted)
        with pytest.raises(RuntimeError, match="divisible by 12"):
            chern_of_cover(small_config, hand_assignment)

    def test_slope_consistent(self, small_config, hand_assignment):
        inv = chern_of_cover(small_config, hand_assignment)
        assert inv.slope == Fraction(inv.c1sq, inv.c2)

    def test_corrections_match_singularity_records(self, small_config, hand_assignment):
        inv = chern_of_cover(small_config, hand_assignment)
        total_c = sum(s.c * s.node[2] for s in inv.singularities)
        total_l = sum(s.l * s.node[2] for s in inv.singularities)
        assert inv.c_correction == total_c
        assert inv.l_correction == total_l
        for s in inv.singularities:
            assert s.c == dedekind_data(inv.q, s.a).c
            assert s.l == hj_length(inv.q, s.a)

    @pytest.mark.parametrize("params, q, seed", [
        (ArrangementParams(Family.A, p=2, r=1, e=1, d=3, g=0, u=1, w=1), 499, 1),
        (ArrangementParams(Family.APRIME, p=2, r=1, e=1, d=6), 499, 0),
    ], ids=["A-499", "APRIME-499"])
    def test_corrections_match_defining_sums(self, params, q, seed):
        # the defining sums over Fractions, one term per node, against the
        # integer sums of chern_of_cover
        config = build_resolution(params)
        assign, _tries, method = find_assignment(config, q, seed, 200)
        assert method is not None
        inv = chern_of_cover(config, assign)
        terms = [(node_residue(assign.nus[i], assign.nus[j], q), n) for i, j, n in config.nodes]
        c_corr = sum((dedekind_data(q, a).c * n for a, n in terms), Fraction(0))
        assert inv.c_correction == c_corr
        assert inv.l_correction == sum(hj_length(q, a) * n for a, n in terms)
        c1b, c2b = log_chern_pair(config)
        c1, c2 = config.c1sq_ambient, config.c2_ambient
        assert inv.c1sq == (c1b * q + 2 * (c2 - c2b)
                            + Fraction(c1 - c1b + 2 * c2b - 2 * c2, q) - c_corr)
        assert [s.c for s in inv.singularities] == [dedekind_data(q, a).c for a, _n in terms]

    DRAWN = [
        ArrangementParams(Family.A0, p=2, r=1, e=1, d=3),
        ArrangementParams(Family.A, p=2, r=1, e=1, d=3, g=0, u=1, w=1),
        ArrangementParams(Family.A, p=3, r=1, e=2, d=4, g=1, u=2, w=2),
        ArrangementParams(Family.APRIME, p=2, r=1, e=1, d=6),
        ArrangementParams(Family.APRIME, p=3, r=1, e=1, d=4),
    ]

    @given(st.sampled_from(DRAWN), st.sampled_from(primes_between(17, 400)),
           st.integers(0, 2**64))
    @settings(max_examples=60, deadline=None)
    def test_integer_sums_match_records_on_drawn_covers(self, params, q, seed):
        # a sampler draw, good residues or not: the integer sums of
        # chern_of_cover against Fraction sums over its records
        assume(q != params.p and q >= partitions.min_feasible_q(params))
        config = drawn_config(params)
        base = partitions._draw_base(PartitionProblem(config, q), random.Random(seed))
        try:
            inv = chern_of_cover(config, BranchAssignment.from_base(config, q, base))
        except InvalidAssignmentError:
            assume(False)  # a chain multiplicity is 0 mod q, or c2 vanishes
        assert inv.c_correction == sum((s.c * s.node[2] for s in inv.singularities), Fraction(0))
        assert inv.l_correction == sum(s.l * s.node[2] for s in inv.singularities)
        for s in inv.singularities:
            data = dedekind_data(q, s.a)
            assert (s.c, s.l, s.hj_digits) == (data.c, data.length, data.digits)

    def test_chern_numbers_scale_with_degree(self, small_config, hand_assignment):
        # c2(X) = c2_bar * q + (c2 - c2_bar) + sum of lengths
        inv = chern_of_cover(small_config, hand_assignment)
        c1b, c2b = log_chern_pair(small_config)
        amb_c2 = small_config.c2_ambient
        assert inv.c2 == c2b * inv.q + (amb_c2 - c2b) + inv.l_correction


class TestDefectBound:
    def test_formula(self):
        # (6 * ceil(sqrt(q)) + 7) * t2 with ceil(sqrt(17)) = 5
        assert defect_bound(17, 10) == 370
        assert defect_bound(101, 1) == 6 * 11 + 7

    def test_rejects_small_q(self):
        with pytest.raises(Exception):
            defect_bound(13, 10)


def chi_from_eigensheaves(config, assign) -> Fraction:
    """chi(O_X) of the cover by a second route (reference, O(q) terms).

    pi_* O_X splits into eigensheaves (L_i)^-1, i < q, with L_i numerically
    sum_j f_ij D_j and f_ij = (i*nu_j mod q)/q (Esnault-Viehweg, Pardini);
    the cyclic quotient singularities are rational, so Riemann-Roch on Y
    gives chi = sum_i [(1 - g) + (L_i^2 + L_i.K_Y)/2], with D_j.D_k from the
    census nodes and K_Y.D_j = 2 g_j - 2 - D_j^2. Everything is scaled by
    q^2 to stay in integers. No Dedekind sum, HJ expansion or closed form.
    """
    q, nus = assign.q, assign.nus
    total = 0  # sum over i of q^2 L_i^2 + q^2 L_i.K_Y
    for i in range(1, q):
        m = {c.cid: i * nus[c.cid] % q for c in config.components}
        total += sum(m[c.cid] * (m[c.cid] * c.self_int + q * (2 * c.genus - 2 - c.self_int))
                     for c in config.components)
        total += 2 * sum(n * m[a] * m[b] for a, b, n in config.nodes)
    return q * (1 - config.params.g) + Fraction(total, 2 * q * q)


class TestChiOracle:
    COVERS = [
        (ArrangementParams(Family.A, p=2, r=1, e=1, d=3, u=1, w=1), (59, 61, 67, 71, 79)),
        (ArrangementParams(Family.A0, p=3, r=1, e=1, d=3), (71, 79, 89, 97, 101)),
        (ArrangementParams(Family.A, p=2, r=2, e=1, d=4, g=1), (127, 137, 139, 149)),
        (ArrangementParams(Family.APRIME, p=3, r=1, e=2, d=6), (163, 167, 173, 179)),
    ]

    @staticmethod
    def cover(params, q):
        config = build_resolution(params)
        assign, _draws, method = find_assignment(config, q, 0, 200)
        assert method is not None
        return config, assign

    @pytest.mark.parametrize("params, q", [(params, q) for params, qs in COVERS for q in qs],
                             ids=lambda v: v.family.value if isinstance(v, ArrangementParams)
                             else str(v))
    def test_matches_chern_of_cover(self, params, q):
        config, assign = self.cover(params, q)
        assert chi_from_eigensheaves(config, assign) == chern_of_cover(config, assign).chi

    def test_dropping_a_census_node_breaks_agreement(self):
        config, assign = self.cover(self.COVERS[0][0], 59)
        chi = chern_of_cover(config, assign).chi
        assert chi_from_eigensheaves(replace(config, nodes=config.nodes[1:]), assign) != chi

    def test_changing_a_chain_multiplicity_breaks_agreement(self):
        config, assign = self.cover(self.COVERS[3][0], 163)
        chi = chern_of_cover(config, assign).chi
        gid = config.tangencies[0].chain[0]
        nus = {**assign.nus, gid: assign.nus[gid] % (assign.q - 1) + 1}
        assert chi_from_eigensheaves(config, BranchAssignment(q=assign.q, nus=nus)) != chi
