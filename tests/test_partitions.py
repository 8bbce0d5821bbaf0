"""Randomized and backtracking searches for good branch assignments."""
import hashlib
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from chernslope import partitions
from chernslope.badset import good_table
from chernslope.geometry import ArrangementParams, Family, build_resolution
from chernslope.numtheory import DomainError
from chernslope.partitions import (
    NodeImages,
    NotFound,
    PartitionProblem,
    sample_with_stats,
    search_assignment,
    verify_asymptotic,
)
from chernslope.rootcover import BranchAssignment, InvalidAssignmentError


@pytest.fixture(scope="module")
def family_a_config():
    params = ArrangementParams(Family.A, p=2, r=1, e=1, d=3, g=0, u=1, w=1)
    return build_resolution(params)


@pytest.fixture(scope="module")
def paired_config():
    params = ArrangementParams(Family.APRIME, p=2, r=1, e=1, d=6)
    return build_resolution(params)


@pytest.fixture(scope="module")
def family_a_d4_config():
    params = ArrangementParams(Family.A, p=2, r=1, e=1, d=4, g=0, u=1, w=1)
    return build_resolution(params)


def nus_digest(result) -> str:
    return hashlib.sha256(repr(sorted(result.nus.items())).encode()).hexdigest()[:16]


def moebius_image(table, q, a1, b1, a2, b2) -> set[int]:
    """The values v with a*(a1*v + b1) + (a2*v + b2) = 0 (mod q) for some
    a with table[a] = 1, one Moebius-map point per such a (reference)."""
    sols = set()
    for a in (a for a in range(q) if table[a]):
        den = (a * a1 + a2) % q
        num = (-(a * b1 + b2)) % q
        if den == 0:
            if num == 0:
                return set(range(q))  # vacuous: the node holds at every v
            continue
        sols.add(num * pow(den, -1, q) % q)
    return sols


class TestProblemValidation:
    def test_rejects_infeasible_q(self, family_a_config):
        with pytest.raises(DomainError):
            PartitionProblem(family_a_config, 11)

    def test_rejects_q_equal_p(self, family_a_config):
        with pytest.raises(DomainError):
            PartitionProblem(family_a_config, 2)

    def test_rejects_composite_q(self, family_a_config):
        with pytest.raises(DomainError):
            PartitionProblem(family_a_config, 91)


class TestRejectionSampler:
    def test_finds_assignment_at_large_prime(self, family_a_config):
        problem = PartitionProblem(family_a_config, 499)
        result = sample_with_stats(problem, seed=1, max_tries=20000)[0]
        assert not isinstance(result, NotFound)
        assert verify_asymptotic(family_a_config, result).ok

    def test_deterministic(self, family_a_config):
        problem = PartitionProblem(family_a_config, 499)
        a = sample_with_stats(problem, seed=1, max_tries=20000)[0]
        b = sample_with_stats(problem, seed=1, max_tries=20000)[0]
        assert not isinstance(a, NotFound)
        assert a.nus == b.nus

    def test_partition_constraint_holds(self, family_a_config):
        params = family_a_config.params
        weight = params.e * params.chain_length
        problem = PartitionProblem(family_a_config, 499)
        result = sample_with_stats(problem, seed=1, max_tries=20000)[0]
        xs = [result.nus[f"S{i + 1}"] for i in range(params.d)]
        xs += [result.nus[f"H{i + 1}"] for i in range(params.u)]
        ys = [result.nus[f"F{t + 1}"] for t in range(params.delta)]
        ys += [result.nus[f"R{i + 1}"] for i in range(params.w)]
        assert weight * sum(xs) + sum(ys) == 499
        assert result.nus[f"S{params.d + 1}"] == (499 - sum(xs)) % 499

    def test_not_found_carries_stats(self, family_a_config):
        problem = PartitionProblem(family_a_config, 101)
        result, tries = sample_with_stats(problem, seed=0, max_tries=50)
        assert isinstance(result, NotFound)
        assert tries == 50
        assert result.fewest_bad is None or result.fewest_bad >= 1

    def test_retry_rate_improves_with_q(self, family_a_config):
        # the bad/all draw ratio tends to zero: tries per success shrink in
        # trend over growing primes (statistical, not per-instance)
        from chernslope.numtheory import primes_between

        primes = primes_between(400, 2100)
        primes = primes[:: len(primes) // 20] if len(primes) > 20 else primes
        tries_at = []
        for q in primes:
            total = 0
            for seed in range(3):
                result, tries = sample_with_stats(
                    PartitionProblem(family_a_config, q), seed=seed, max_tries=4000
                )
                total += tries
            tries_at.append(total / 3)
        first = sum(tries_at[: len(tries_at) // 2])
        second = sum(tries_at[len(tries_at) // 2:])
        assert second < first


def replay_sampler(problem, seed, max_tries):
    """`sample_with_stats` without its early stop: every draw's bad nodes
    counted in full through `verify_asymptotic` (reference)."""
    zero_hits, fewest_bad, worst_node = 0, None, None
    for t in range(max_tries):
        base = partitions._draw_base(problem, random.Random(f"{seed}:{t}"))
        try:
            assign = BranchAssignment.from_base(problem.config, problem.q, base)
        except InvalidAssignmentError:
            zero_hits += 1
            continue
        bad = verify_asymptotic(problem.config, assign).bad_nodes
        if not bad:
            return assign, t + 1
        if fewest_bad is None or len(bad) < fewest_bad:
            fewest_bad, worst_node = len(bad), bad[0][0]
    return NotFound(max_tries, zero_hits, fewest_bad, worst_node), max_tries


class TestCheckBase:
    @pytest.mark.parametrize("params, q", [
        (ArrangementParams(Family.A, p=2, r=1, e=1, d=3, g=0, u=1, w=1), 101),
        (ArrangementParams(Family.A, p=3, r=1, e=2, d=4, g=0, u=2, w=1), 211),
        (ArrangementParams(Family.A0, p=2, r=2, e=1, d=3), 53),
        (ArrangementParams(Family.APRIME, p=2, r=1, e=1, d=6), 113),
    ])
    def test_seeded_draws_pass(self, params, q):
        problem = PartitionProblem(build_resolution(params), q)
        for t in range(40):
            base = partitions._draw_base(problem, random.Random(f"0:{t}"))
            partitions.check_base(problem.config, q, base)
            if params.family is not Family.APRIME:
                for cid in (problem.config.section_ids[0], problem.config.fiber_ids[-1]):
                    with pytest.raises(InvalidAssignmentError):
                        partitions.check_base(problem.config, q, {**base, cid: base[cid] + 1})


class TestSamplerEarlyStop:
    @pytest.mark.parametrize("config_name, q", [
        ("family_a_d4_config", 53),   # t2 = 62
        ("paired_config", 113),       # t2 = 120, with exempt full-turn nodes
        ("paired_config", 127),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_full_count_replay(self, request, config_name, q, seed):
        problem = PartitionProblem(request.getfixturevalue(config_name), q)
        result = sample_with_stats(problem, seed=seed, max_tries=200)
        assert result == replay_sampler(problem, seed, 200)
        assert isinstance(result[0], NotFound) and result[0].fewest_bad is not None


class TestBacktrackingSearch:
    def test_succeeds_where_rejection_fails(self, family_a_config):
        problem = PartitionProblem(family_a_config, 101)
        result = search_assignment(problem, seed=0)
        assert not isinstance(result, NotFound)
        assert verify_asymptotic(family_a_config, result).ok

    def test_deterministic(self, family_a_config):
        problem = PartitionProblem(family_a_config, 101)
        a = search_assignment(problem, seed=5)
        b = search_assignment(problem, seed=5)
        assert a.nus == b.nus

    def test_paired_family(self, paired_config):
        problem = PartitionProblem(paired_config, 499)
        result = search_assignment(problem, seed=0)
        assert not isinstance(result, NotFound)
        rep = verify_asymptotic(paired_config, result)
        assert rep.ok

    def test_budget_exhaustion_returns_not_found(self, family_a_config):
        problem = PartitionProblem(family_a_config, 101)
        result = search_assignment(problem, seed=0, node_budget=10)
        assert isinstance(result, NotFound)
        assert result.tries == 10

    @pytest.mark.parametrize(
        "q, seed, digest",
        [(101, 0, "367cd2d35a54e2d9"), (101, 5, "a371029cb16e16ff")],
    )
    def test_found_assignment_pinned(self, family_a_config, q, seed, digest):
        result = search_assignment(PartitionProblem(family_a_config, q), seed=seed)
        assert nus_digest(result) == digest

    # explicit ids keep the q = 499 cases' established test names
    @pytest.mark.parametrize("q, seed, digest", [
        pytest.param(499, 0, "bf5cc8c012d4ff78", id="0-bf5cc8c012d4ff78"),
        pytest.param(499, 1, "74f42808b83d4de0", id="1-74f42808b83d4de0"),
        (97, 0, "723812220539d5bc"), (109, 0, "731294e24fcf0f39"), (127, 0, "54fe037eb7767889"),
    ])
    def test_paired_assignment_pinned(self, paired_config, q, seed, digest):
        result = search_assignment(PartitionProblem(paired_config, q), seed=seed)
        assert nus_digest(result) == digest

    # explicit ids keep the family A cases' established test names
    @pytest.mark.parametrize("config_name, q, tries", [
        pytest.param("family_a_d4_config", 41, 72552, id="41-72552"),
        pytest.param("family_a_d4_config", 43, 100032, id="43-100032"),
        pytest.param("family_a_d4_config", 47, 196440, id="47-196440"),
        ("paired_config", 17, 7912), ("paired_config", 31, 38032), ("paired_config", 53, 188352),
    ])
    def test_exhausted_attempts_pinned(self, request, config_name, q, tries):
        # the attempt count decides where the budget cuts a search off
        config = request.getfixturevalue(config_name)
        result = search_assignment(PartitionProblem(config, q), seed=0)
        assert isinstance(result, NotFound)
        assert result.tries == tries

    def test_exhausted_restart_is_not_rerun(self, monkeypatch, family_a_d4_config):
        # restart 0 proves q = 41 has no assignment; restarts 1..7 are counted
        made = []

        class Recording(random.Random):
            def __init__(self, seed):
                made.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(partitions, "random", SimpleNamespace(Random=Recording))
        result = search_assignment(PartitionProblem(family_a_d4_config, 41), seed=0)
        assert result == NotFound(tries=72552, zero_hits=0, fewest_bad=None, worst_node=None)
        assert made == ["search:0:0"]

    @pytest.mark.parametrize("node_budget, tries", [
        (1, 2), (7, 8), (8, 8), (255, 32), (256, 32), (257, 32), (2000, 32),
    ])
    def test_attempts_pinned_across_budgets(self, family_a_config, node_budget, tries):
        # at q = 13 one exhaustive DFS takes 4 attempts: budgets below 32 cut
        # every restart at its slice, larger ones count 8 exhaustive restarts
        for seed in (0, 1):
            result = search_assignment(PartitionProblem(family_a_config, 13), seed=seed,
                                       node_budget=node_budget)
            assert isinstance(result, NotFound)
            assert result.tries == tries

    def test_memo_eviction_is_invisible(self, monkeypatch, paired_config, family_a_d4_config):
        cases = [(paired_config, 499, 0), (family_a_d4_config, 47, 0)]
        expected = [search_assignment(PartitionProblem(c, q), seed=s) for c, q, s in cases]
        made = []

        class Recording(NodeImages):
            def __init__(self, q):
                super().__init__(q)
                self.keys = set()
                made.append(self)

            def __call__(self, *key):
                self.keys.add(key)
                return super().__call__(*key)

        monkeypatch.setattr(partitions, "NodeImages", Recording)
        for (config, q, seed), before in zip(cases, expected):
            monkeypatch.setattr(partitions, "_IMAGE_MEMO_BITS", 3 * q)
            after = search_assignment(PartitionProblem(config, q), seed=seed)
            assert after == before
            images = made[-1]
            assert len(images._memo) <= 3 < len(images.keys)


class TestNodeImages:
    @pytest.mark.parametrize("q", [41, 101, 499, 3847])
    def test_matches_moebius_reference(self, q):
        images = NodeImages(q)
        rng = random.Random(q)
        forms = [(1, 0, 1, 0), (0, 0, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0), (q - 1, 0, 0, 0)]
        for _ in range(60):
            a1, a2 = rng.choice((0, 1, q - 1)), rng.choice((0, 1, q - 1))
            b1, b2 = rng.randrange(q), rng.randrange(q)
            forms += [(a1, b1, a2, b2), (a1, 0, a2, b2), (a1, b1, a2, 0)]
            forms.append((a1, b1, a1, b1))  # both ends vanish together
        for table in (good_table(q, 1), bytes(q - 1) + b"\x01"):
            for form in forms:
                img = images(table, *form)
                assert 0 <= img <= images.full
                assert {v for v in range(q) if (img >> v) & 1} == moebius_image(table, q, *form)


class TestExemptNodes:
    def test_only_paired_family_has_exemptions(self, family_a_config, paired_config):
        assert not family_a_config.exempt_nodes
        assert paired_config.exempt_nodes

    def test_exempt_residues_are_full_turn(self, paired_config):
        problem = PartitionProblem(paired_config, 499)
        result = search_assignment(problem, seed=1)
        assert not isinstance(result, NotFound)
        exempt = paired_config.exempt_nodes
        for node, a in result.residues(paired_config):
            if node in exempt:
                assert a == 499 - 1
