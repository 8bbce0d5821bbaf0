"""Randomized and backtracking searches for good branch assignments."""
import collections
import contextlib
import dataclasses
import functools
import gc
import hashlib
import io
import itertools
import json
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chernslope import cli, partitions, pipeline
from chernslope.badset import bad_set
from chernslope.geometry import ArrangementParams, Family, build_resolution
from chernslope.numtheory import DomainError, primes_between
from chernslope.partitions import (
    NodeImages,
    NotFound,
    PartitionProblem,
    residue_rules,
    sample_with_stats,
    sampler_diagnostics,
    search_assignment,
    verify_asymptotic,
)
from chernslope.rootcover import BranchAssignment, InvalidAssignmentError, chern_of_cover


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


def good_table(q) -> bytes:
    """The good residues at q as q bytes: byte a is 1 when a is good."""
    bad = set(bad_set(q, 1).members)
    return bytes(a != 0 and a not in bad for a in range(q))


def rules_of(table) -> list:
    """A residue table as `residue_rules` rules (allow, listed), both ways:
    listing the allowed residues, and listing the others."""
    return [(allow, frozenset(a for a, byte in enumerate(table) if byte == allow))
            for allow in (True, False)]


def allowed_by(rule, q) -> set[int]:
    allow, listed = rule
    return {a for a in range(q) if (a in listed) is allow}


def per_v_image(table, q, a1, b1, a2, b2) -> int:
    """The node image as an int, from the node residue at every v: the
    residue -m2/m1 where the first end m1 is nonzero, and the whole of
    table where it vanishes, which holds exactly when m2 vanishes too
    (reference, O(q))."""
    img = 0
    for v in range(q):
        m1, m2 = (a1 * v + b1) % q, (a2 * v + b2) % q
        ok = table[m2 * (q - pow(m1, -1, q)) % q] if m1 else m2 == 0
        img |= ok << v
    return img


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
        fewest_bad = sampler_diagnostics(problem, 0, 50)["fewest_bad"]
        assert fewest_bad is None or fewest_bad >= 1

    def test_retry_rate_improves_with_q(self, family_a_config):
        # the bad/all draw ratio tends to zero: tries per success shrink in
        # trend over growing primes (statistical, not per-instance)
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
    """`sample_with_stats` and `sampler_diagnostics` in one pass without the
    early stop: every draw's bad nodes counted in full through
    `verify_asymptotic` (reference). Returns (result, draws, the not-found
    report fields as `sampler_diagnostics` gives them)."""
    zero_hits, fewest_bad, worst_node = 0, None, None
    result, draws = NotFound(max_tries), max_tries
    for t in range(max_tries):
        base = partitions._draw_base(problem, random.Random(f"{seed}:{t}"))
        try:
            assign = BranchAssignment.from_base(problem.config, problem.q, base)
        except InvalidAssignmentError:
            zero_hits += 1
            continue
        bad = verify_asymptotic(problem.config, assign).bad_nodes
        if not bad:
            result, draws = assign, t + 1
            break
        if fewest_bad is None or len(bad) < fewest_bad:
            fewest_bad, worst_node = len(bad), bad[0][0]
    return result, draws, {"zero_hits": zero_hits, "fewest_bad": fewest_bad,
                           "worst_node": worst_node}


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
            for cid in (problem.config.section_ids[0], problem.config.fiber_ids[-1]):
                with pytest.raises(InvalidAssignmentError):
                    partitions.check_base(problem.config, q, {**base, cid: base[cid] + 1})

    @given(st.sampled_from([17, 31, 101]), st.sampled_from([4, 6]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_aprime_bases_passing_have_integral_chi(self, q, d, data):
        # every base check_base accepts: pairs (a, -a) and fibers summing to
        # 0 mod q, with any pair leaders and any other fibers
        config = aprime_config(d)
        sec_ids, fiber_ids = config.section_ids, config.fiber_ids
        residue = st.integers(1, q - 1)
        base = {}
        for a, b in zip(sec_ids[0::2], sec_ids[1::2]):
            base[a] = data.draw(residue)
            base[b] = q - base[a]
        base.update((f, data.draw(residue)) for f in fiber_ids[:-1])
        base[fiber_ids[-1]] = -sum(base[f] for f in fiber_ids[:-1]) % q
        assume(base[fiber_ids[-1]])
        partitions.check_base(config, q, base)
        try:
            assign = BranchAssignment.from_base(config, q, base)
        except InvalidAssignmentError:
            assume(False)  # a chain multiplicity is 0 mod q: `cover` exits 2
        # chern_of_cover raises unless c1^2 + c2 is divisible by 12
        assert chern_of_cover(config, assign).chi.denominator == 1


@functools.cache
def aprime_config(d):
    return build_resolution(ArrangementParams(Family.APRIME, p=2, r=1, e=1, d=d))


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def give_up(problem, seed):
    """A backtracking search that always fails, so reports end not_found."""
    return NotFound(tries=7)


def count_calls(monkeypatch, name, modules):
    """Wrap partitions' `name` as each module holds it; returns the list of
    (q, positional args) the wrapped calls received."""
    calls = []
    real = getattr(partitions, name)

    def counted(problem, *args, **kwargs):
        calls.append((problem.q, args))
        return real(problem, *args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


class TestSamplerEarlyStop:
    CASES = [
        ("family_a_d4_config", 53),   # t2 = 62
        ("paired_config", 113),       # t2 = 120, with exempt full-turn nodes
        ("paired_config", 127),
    ]
    # the same configurations as CLI arguments
    ARGS = {
        "family_a_d4_config": ["--family", "A", "--d", "4", "--u", "1", "--w", "1"],
        "paired_config": ["--family", "APRIME", "--d", "6"],
    }

    @pytest.mark.parametrize("config_name, q", CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_full_count_replay(self, request, config_name, q, seed):
        # the sampler stops each draw at its first bad node; the diagnostics
        # pass restores what a full count of every draw reports
        problem = PartitionProblem(request.getfixturevalue(config_name), q)
        result, tries = sample_with_stats(problem, seed=seed, max_tries=200)
        diagnostics = sampler_diagnostics(problem, seed, 200)
        assert diagnostics["fewest_bad"] is not None
        assert (result, tries, diagnostics) == replay_sampler(problem, seed, 200)

    @pytest.mark.parametrize("config_name, q", CASES)
    @pytest.mark.parametrize("seed", [0, 2])
    def test_search_report_matches_full_count_replay(self, request, monkeypatch, config_name,
                                                     q, seed):
        monkeypatch.setattr(pipeline, "search_assignment", give_up)
        code, stdout = run_main(["search", *self.ARGS[config_name], "--q", str(q),
                                 "--seed", str(seed), "--max-tries", "60"])
        assert code == 3
        problem = PartitionProblem(request.getfixturevalue(config_name), q)
        _, tries, diagnostics = replay_sampler(problem, seed, 60)
        assert json.loads(stdout) == {
            "status": "not_found", "tries": tries, **diagnostics,
            "worst_node": list(diagnostics["worst_node"]),
        }

    @pytest.mark.parametrize("max_tries", [5, 40])
    def test_slope_report_matches_full_count_replay_at_escalated_q(self, monkeypatch,
                                                                   paired_config, max_tries):
        # every escalation fails; the report's diagnostics are the last tried q's
        monkeypatch.setattr(pipeline, "search_assignment", give_up)
        diagnosed = count_calls(monkeypatch, "sampler_diagnostics", [pipeline])
        result = pipeline.run_pipeline(Fraction(2), Fraction(3, 20), family="APRIME", seed=0,
                                       max_tries=max_tries)
        assert result.report["params"]["d"] == paired_config.params.d
        sampled = result.report["sampled"]
        assert result.status == "not_found" and len(sampled["escalations"]) == 6
        last_q = sampled["escalations"][-1]["q"]
        # the report names the q its tries and diagnostics belong to
        assert sampled["q"] == last_q == 4201
        _, _, diagnostics = replay_sampler(PartitionProblem(paired_config, last_q), 0, max_tries)
        # the in-process report holds worst_node as the node tuple
        assert {key: sampled[key] for key in diagnostics} == diagnostics
        assert isinstance(sampled["worst_node"], tuple)
        assert diagnosed == [(last_q, (0, max_tries))]

    def test_no_diagnostics_unless_printed(self, monkeypatch):
        diagnosed = count_calls(monkeypatch, "sampler_diagnostics", [pipeline, cli])
        # successes: by rejection, by backtracking, and a slope report that
        # escalates past an off-target cover
        assert run_main(["search", "--family", "A", "--u", "1", "--w", "1", "--q", "499",
                         "--seed", "1", "--max-tries", "20000"])[0] == 0
        assert run_main(["search", "--family", "A", "--u", "1", "--w", "1", "--q", "101",
                         "--max-tries", "50"])[0] == 0
        assert pipeline.run_pipeline(Fraction(2), Fraction(3, 20), family="APRIME").status == "ok"
        # sweep rows that end not_found
        monkeypatch.setattr(pipeline, "search_assignment", give_up)
        code, stdout = run_main(["sweep", *self.ARGS["family_a_d4_config"], "--q-min", "41",
                                 "--q-max", "60", "--max-tries", "5"])
        assert code == 0 and stdout.count("not_found") == 5
        assert diagnosed == []
        # a pinned q prints one report after one failure
        result = pipeline.run_pipeline(Fraction(2), Fraction(3, 20), family="APRIME",
                                       q_hint=127, max_tries=5)
        assert result.status == "not_found"
        assert diagnosed == [(127, (0, 5))]

    # APRIME's tangencies that are not paired have chain multiplicities that
    # can collapse mod q at these q, so many draws count as zero hits; A0 and
    # A never collapse (each k(a + b) + y stays below q)
    DRAWN = [
        ArrangementParams(Family.A0, p=2, r=1, e=1, d=3),
        ArrangementParams(Family.A, p=2, r=1, e=1, d=3, u=1, w=1),
        ArrangementParams(Family.APRIME, p=2, r=2, e=1, d=4),
        ArrangementParams(Family.APRIME, p=3, r=1, e=1, d=6),
    ]

    @given(st.sampled_from(DRAWN), st.sampled_from(primes_between(17, 61)),
           st.integers(0, 2**64), st.integers(0, 40))
    @example(DRAWN[3], 17, 0, 30)  # 30 zero hits in 30 draws
    @example(DRAWN[2], 23, 0, 30)  # 14 zero hits, and the others all fail
    @settings(max_examples=60, deadline=None)
    def test_drawn_problems_match_from_base_replay(self, params, q, seed, max_tries):
        config = drawn_config(params)
        assume(q >= partitions.min_feasible_q(params))
        problem = PartitionProblem(config, q)
        result, tries = sample_with_stats(problem, seed=seed, max_tries=max_tries)
        diagnostics = sampler_diagnostics(problem, seed, max_tries)
        expected = replay_sampler(problem, seed, max_tries)
        assert (result, tries) == expected[:2]
        if isinstance(result, NotFound):
            assert diagnostics == expected[2]

    @pytest.mark.parametrize("max_tries", [-1, -200])
    def test_negative_max_tries_is_a_domain_error(self, monkeypatch, family_a_config, max_tries):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before max_tries was checked")

        problem = PartitionProblem(family_a_config, 101)
        monkeypatch.setattr(partitions, "_draw_base", no_work)
        monkeypatch.setattr(pipeline, "PartitionProblem", no_work)
        monkeypatch.setattr(pipeline.density, "solve_family_a", no_work)
        message = f"^max_tries must be non-negative, got {max_tries}$"
        with pytest.raises(DomainError, match=message):
            sample_with_stats(problem, seed=0, max_tries=max_tries)
        with pytest.raises(DomainError, match=message):
            pipeline.find_assignment(family_a_config, 101, 0, max_tries)
        with pytest.raises(DomainError, match=message):
            pipeline.run_pipeline(Fraction(2), Fraction(1, 2), max_tries=max_tries)


@functools.cache
def drawn_config(params):
    return build_resolution(params)


class TestChainCollapse:
    """`ChainMultiplicities` decides a chain's collapse from one root of
    k*s + y = 0 (mod q); the reference scans every chain curve in order."""

    CONFIGS = [
        ArrangementParams(Family.A0, p=2, r=3, e=1, d=3),    # chains of 8 curves
        ArrangementParams(Family.APRIME, p=3, r=1, e=1, d=4),  # chains of 3 curves
    ]

    @staticmethod
    def first_collapse(config, q, nus):
        for tang in config.tangencies:
            s = nus[tang.sections[0]] + nus[tang.sections[1]]
            for k, gid in enumerate(tang.chain, start=1):
                if (k * s + nus[tang.fiber]) % q == 0:
                    return gid
        return None

    @pytest.mark.parametrize("q", [17, 31, 97])
    @pytest.mark.parametrize("params", CONFIGS, ids=["A0", "APRIME"])
    def test_every_s_and_y_of_the_first_tangency(self, params, q):
        config = drawn_config(params)
        tang = config.tangencies[0]
        base = {cid: 1 for cid in config.base_ids}
        collapses = 0
        for s in range(q):
            for y in range(1, q):
                a = 1 if s != 1 else 2
                base.update({tang.sections[0]: a, tang.sections[1]: (s - a) % q, tang.fiber: y})
                gid = self.first_collapse(config, q, base)
                if gid is None:
                    nus = BranchAssignment.from_base(config, q, base).nus
                    assert nus[tang.chain[-1]] == (len(tang.chain) * s + y) % q
                else:
                    collapses += gid in tang.chain
                    with pytest.raises(InvalidAssignmentError,
                                       match=f"^nu\\({re.escape(gid)}\\) = 0 mod {q}$"):
                        BranchAssignment.from_base(config, q, base)
        assert collapses > 0

    @pytest.mark.parametrize("params", CONFIGS, ids=["A0", "APRIME"])
    def test_drawn_bases_at_every_tangency(self, params):
        config = drawn_config(params)
        rng = random.Random(0)
        for q in (17, 31, 97):
            for _ in range(300):
                base = {cid: rng.randrange(1, q) for cid in config.base_ids}
                gid = self.first_collapse(config, q, base)
                try:
                    nus = BranchAssignment.from_base(config, q, base).nus
                except InvalidAssignmentError as exc:
                    assert str(exc) == f"nu({gid}) = 0 mod {q}"
                    continue
                assert gid is None
                for tang in config.tangencies:
                    s = base[tang.sections[0]] + base[tang.sections[1]]
                    for k, cid in enumerate(tang.chain, start=1):
                        assert nus[cid] == (k * s + base[tang.fiber]) % q


class TestFindAssignment:
    @pytest.mark.parametrize("q, seed, max_tries, method", [
        (499, 1, 20000, "rejection"), (101, 0, 50, "backtracking"), (53, 0, 20, None),
    ])
    def test_samples_once_and_searches_at_most_once(self, monkeypatch, family_a_config,
                                                     family_a_d4_config, q, seed, max_tries,
                                                     method):
        config = family_a_d4_config if method is None else family_a_config
        sampled = count_calls(monkeypatch, "sample_with_stats", [pipeline])
        searched = count_calls(monkeypatch, "search_assignment", [pipeline])
        _result, _tries, got = pipeline.find_assignment(config, q, seed=seed, max_tries=max_tries)
        assert got == method
        assert len(sampled) == 1
        assert len(searched) == (0 if method == "rejection" else 1)


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

    @pytest.mark.parametrize("node_budget", [200_000, 10], ids=["found", "not-found"])
    def test_memo_is_freed_on_return(self, family_a_config, node_budget):
        # without the cycle collector: nothing of the call outlives it
        problem = PartitionProblem(family_a_config, 101)
        gc.collect()
        gc.disable()
        try:
            search_assignment(problem, seed=0, node_budget=node_budget)
            assert not [obj for obj in gc.get_objects() if isinstance(obj, NodeImages)]
        finally:
            gc.enable()

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
        assert result == NotFound(tries=72552)
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

    @staticmethod
    def recording_images(monkeypatch):
        """Make the search build NodeImages that log each key they miss and
        each key they evaluate; returns the list the searches' memos are
        appended to."""
        made = []

        class Recording(NodeImages):
            def __init__(self, q):
                super().__init__(q)
                self.misses = []
                self.evaluated = []
                made.append(self)

            def __missing__(self, key):
                self.misses.append(key)
                return super().__missing__(key)

            def _evaluate(self, *key):
                self.evaluated.append(key)
                return super()._evaluate(*key)

        monkeypatch.setattr(partitions, "NodeImages", Recording)
        return made

    def test_memo_eviction_is_invisible(self, monkeypatch, paired_config, family_a_d4_config):
        cases = [(paired_config, 499, 0), (family_a_d4_config, 47, 0)]
        expected = [search_assignment(PartitionProblem(c, q), seed=s) for c, q, s in cases]
        made = self.recording_images(monkeypatch)
        for (config, q, seed), before in zip(cases, expected):
            monkeypatch.setattr(partitions, "_IMAGE_MEMO_BITS", 3 * q)
            after = search_assignment(PartitionProblem(config, q), seed=seed)
            assert after == before
            images = made[-1]
            assert len(images) <= 3 < len(images.misses)

    def test_each_key_misses_once_without_eviction(self, monkeypatch, paired_config,
                                                    family_a_d4_config):
        # every lookup goes through the memo: a key is computed on its first
        # lookup only, and the search's many repeat lookups are plain hits
        made = self.recording_images(monkeypatch)
        for config, q in [(paired_config, 499), (family_a_d4_config, 47)]:
            search_assignment(PartitionProblem(config, q), seed=0)
            images = made[-1]
            assert len(images.misses) == len(set(images.misses)) == len(images) > 0

    # Family A with u >= 1 settles its last two steps in one pass; budgets of
    # 777 and 5 000 cut some of those passes, which then run as plain loops,
    # and A0 and APRIME never take the pass
    ONE_PASS_GRID = [
        (ArrangementParams(Family.A, p=2, r=1, e=1, d=4, u=1, w=1), (23, 29, 43, 53, 67, 89, 137)),
        (ArrangementParams(Family.A, p=2, r=1, e=1, d=3, u=1, w=1), (23, 41, 73, 103, 139)),
        (ArrangementParams(Family.A, p=3, r=1, e=1, d=4, u=2, w=1), (37, 43, 61, 73)),
        (ArrangementParams(Family.A0, p=2, r=1, e=1, d=3), (29, 61, 73, 113)),
        (ArrangementParams(Family.APRIME, p=3, r=1, e=1, d=6), (17, 31, 131, 139)),
    ]

    def test_results_pinned_across_one_pass_and_plain_loops(self):
        # the digest of every result's repr, attempt counts included, taken
        # before the one pass existed
        digest = hashlib.sha256()
        for params, qs in self.ONE_PASS_GRID:
            config = build_resolution(params)
            for q in qs:
                for seed in (0, 1):
                    for budget in (8, 777, 5_000, 200_000):
                        result = search_assignment(PartitionProblem(config, q), seed=seed,
                                                   node_budget=budget)
                        digest.update(repr(result).encode() + b"\n")
        assert digest.hexdigest()[:16] == "9b2334f98cf13563"

    def test_one_pass_settles_and_hands_back(self, family_a_d4_config):
        # what each one pass returned: True or False where it settled the
        # last two steps, None where a budget cut could land in them
        returned = collections.Counter()

        def spy(frame, event, arg):
            if event == "return" and frame.f_code.co_name == "settle_last_two":
                returned[arg] += 1

        sys.setprofile(spy)
        try:
            result = search_assignment(PartitionProblem(family_a_d4_config, 53), seed=0)
        finally:
            sys.setprofile(None)
        assert result == NotFound(tries=200_001)
        assert returned[False] > 0 and returned[None] > 0

    @pytest.mark.parametrize("config_name, q, seeds, evaluated", [
        ("family_a_d4_config", 1601, range(4), 77),
        ("family_a_d4_config", 3203, range(4), 72),
        ("family_a_config", 10_007, (0,), 11),
        ("family_a_config", 100_003, (0,), 11),
    ])
    def test_one_pass_stays_lazy(self, monkeypatch, request, config_name, q, seeds, evaluated):
        # the images evaluated before the one pass existed: it waits for a
        # plain run of its step at a bound no smaller to come back empty, so
        # at these q it evaluates no image the plain loops would not
        made = self.recording_images(monkeypatch)
        config = request.getfixturevalue(config_name)
        for seed in seeds:
            search_assignment(PartitionProblem(config, q), seed=seed)
        assert sum(len(images.evaluated) for images in made) == evaluated

    @pytest.mark.parametrize("params", [
        ArrangementParams(Family.A0, p=2, r=1, e=1, d=3),
        ArrangementParams(Family.A0, p=3, r=1, e=2, d=4, g=1),
        ArrangementParams(Family.A, p=2, r=1, e=1, d=4, u=2, w=1),
        ArrangementParams(Family.A, p=3, r=2, e=1, d=3, u=1, w=2),
        ArrangementParams(Family.APRIME, p=2, r=1, e=1, d=6),
        ArrangementParams(Family.APRIME, p=3, r=1, e=2, d=4),
    ], ids=lambda p: f"{p.family.value}-p{p.p}-r{p.r}-e{p.e}-d{p.d}-u{p.u}")
    def test_section_nodes_join_two_steps(self, params):
        # the set-up check passes on the built configurations
        config = build_resolution(params)
        q = next(q for q in primes_between(partitions.min_feasible_q(params), 10_000)
                 if q != params.p)
        result = search_assignment(PartitionProblem(config, q), seed=0, node_budget=1)
        assert isinstance(result, NotFound)

    # S2 and S4 are the partners of the steps (S1, S2) and (S3, S4)
    @pytest.mark.parametrize("node", [("S2", "S4", 1), ("S1", "S2", 1), ("S3", "S3", 1)])
    def test_section_node_off_two_steps_is_refused(self, paired_config, node):
        config = dataclasses.replace(paired_config, nodes=paired_config.nodes + (node,),
                                     node_fibers=paired_config.node_fibers + (None,))
        with pytest.raises(ValueError, match=re.escape(repr(node))):
            search_assignment(PartitionProblem(config, 499), seed=0)

    def test_section_nodes_obey_a_rule_not_closed_under_inverses(self, monkeypatch,
                                                                 family_a_config):
        # the real rules are closed under a -> 1/a, so they cannot tell a
        # section node's ends apart; this one bans 0 and 2..q/4
        q = 101
        rule = (False, frozenset(range(2, q // 4)) | {0})
        monkeypatch.setattr(partitions, "residue_rules", lambda config, q: (rule,) * len(config.nodes))
        for seed in range(6):
            result = search_assignment(PartitionProblem(family_a_config, q), seed=seed)
            assert verify_asymptotic(family_a_config, result).ok


class TestSeededOrder:
    class Subclassed(random.Random):
        pass

    @pytest.mark.parametrize("q", [2, 3, 41, 2887])
    @pytest.mark.parametrize("seed", [0, 1, 7, "search:0:3"])
    @pytest.mark.parametrize("make", [random.Random, Subclassed], ids=["Random", "subclass"])
    def test_matches_random_sample(self, make, seed, q):
        # the same permutation, and the generator left in the same state
        drawn, sampled = make(seed), make(seed)
        order = partitions._order(drawn, q)
        assert list(order) == sampled.sample(range(1, q), q - 1)
        assert drawn.getrandbits(64) == sampled.getrandbits(64)


def composition_via_sample(rng, total, parts):
    """`_composition` through `rng.sample` itself (reference)."""
    if parts == 1:
        return [total]
    n = total + parts - 1
    cuts = sorted(rng.sample(range(n), parts - 1))
    return [hi - lo - 1 for lo, hi in zip([-1, *cuts], [*cuts, n])]


class TestSeededComposition:
    # random.sample keeps a pool for populations n <= setsize and a set of
    # picks above it; setsize is 21 for k <= 5 picks and 21 + 4**3 = 85 at k = 6
    @pytest.mark.parametrize("n, k", [(n, k) for k in range(1, 6) for n in (k, 21, 22)]
                             + [(6, 6), (85, 6), (86, 6), (200, 40), (9000, 3)])
    @pytest.mark.parametrize("seed", [0, 1, "7:3"])
    def test_matches_random_sample(self, seed, n, k):
        # the same composition, and the generator left in the same state
        drawn, sampled = random.Random(seed), random.Random(seed)
        got = partitions._composition(drawn, n - k, k + 1)
        assert got == composition_via_sample(sampled, n - k, k + 1)
        assert drawn.getrandbits(64) == sampled.getrandbits(64)

    def test_single_part_draws_nothing(self):
        drawn, fresh = random.Random(5), random.Random(5)
        assert partitions._composition(drawn, 17, 1) == [17]
        assert drawn.getrandbits(64) == fresh.getrandbits(64)

    @pytest.mark.parametrize("q", [13, 17, 23, 101, 4001])
    def test_draw_base_matches_randint(self, family_a_config, q):
        # q = 13 is the least feasible q: slack 1 and randint(0, 0)
        config, params = family_a_config, family_a_config.params
        problem = PartitionProblem(config, q)
        weight = params.e * params.chain_length
        n_x, n_y = params.d + params.u, params.delta + params.w
        slack = q - weight * n_x - n_y
        for t in range(40):
            drawn, sampled = random.Random(f"0:{t}"), random.Random(f"0:{t}")
            base = partitions._draw_base(problem, drawn)
            x_units = sampled.randint(0, slack // weight)
            xs = composition_via_sample(sampled, x_units, n_x)
            ys = composition_via_sample(sampled, slack - weight * x_units, n_y)
            assert [base[c] - 1 for c in config.section_ids[:-1]] == xs
            assert [base[f] - 1 for f in config.fiber_ids] == ys
            assert drawn.getrandbits(64) == sampled.getrandbits(64)


def plain_reach_step(cur, sol, target):
    """One subset-sum step by one shift per value of sol (reference)."""
    nxt = 0
    for v in range(sol.bit_length()):
        if (sol >> v) & 1:
            nxt |= cur << v
    return nxt & ((1 << (target + 1)) - 1)


@st.composite
def reach_steps(draw):
    """(cur, sol, target): cur within [0, target], saturated (low | [lo,
    target]), with bit target clear, or a few values below target (sparser
    than most sol); sol nonempty, possibly reaching above target."""
    target = draw(st.integers(0, 160))
    low = draw(st.integers(0, (1 << (target + 1)) - 1))
    shape = draw(st.sampled_from(["saturated", "top bit clear", "sparse"]))
    if shape == "saturated":
        lo = draw(st.integers(0, target))
        cur = (low & ((1 << lo) - 1)) | (((1 << (target + 1)) - 1) >> lo << lo)
    elif shape == "top bit clear":
        cur = low & ((1 << target) - 1)
    else:
        cur = sum({1 << v for v in draw(st.lists(st.integers(0, max(target - 1, 0)), max_size=3))})
    sol = draw(st.integers(1, (1 << draw(st.integers(1, target + 40))) - 1))
    return cur, sol, target


class TestReachStep:
    @given(reach_steps())
    @example((0b1111, 0b10000, 3))        # lo + min(sol) = 4 = target + 1: no interval
    @example((0b11100101, 0b10000, 7))    # lo + min(sol) = 9: the edge is clamped to 8
    @example((0b11100101, 0b1000100, 7))  # lo + min(sol) = 7: the interval is {7}
    @example((0b11110101, 0b110, 7))      # low shifts by the values below lo + min(sol)
    @example((0b01110101, 0b110, 7))      # bit target clear: the plain loop
    @example((1, 1, 0))
    @example((1, 0b1011011, 7))           # cur = 1, sparser than sol: one shift
    @example((1, (1 << 300) - 2, 160))    # cur = 1, sol reaching above target
    @example((0b100010, 0b11101110, 9))   # cur sparser than sol
    @example((0, 0b111, 5))               # cur empty
    @settings(max_examples=400, deadline=None)
    def test_matches_plain_shift_loop(self, case):
        assert partitions._reach_step(*case) == plain_reach_step(*case)

    def test_saturated_branch_runs_in_a_pinned_search(self, monkeypatch, paired_config):
        saturated = []
        reach_step = partitions._reach_step

        def recording(cur, sol, target):
            saturated.append(cur >> target)
            return reach_step(cur, sol, target)

        monkeypatch.setattr(partitions, "_reach_step", recording)
        result = search_assignment(PartitionProblem(paired_config, 97), seed=0)
        assert nus_digest(result) == "723812220539d5bc"
        assert sum(saturated) > 0


def compositions(total, parts):
    """Every composition of `total` into `parts` positive integers."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        yield [b - a for a, b in zip((0,) + cuts, cuts + (total,))]


def search_space(config, q):
    """The bases the backtracking search ranges over (reference): A0/A take
    x_i >= 1 and y_j >= 1 with e*p^r*sum(x) + sum(y) = q and the negative
    section at q - sum(x); APRIME takes pairs (a, q - a) with sum(a) = q and
    sum(y) = q."""
    params, sec, fib = config.params, config.section_ids, config.fiber_ids
    if config.params.family is Family.APRIME:
        for leaders in compositions(q, params.l):
            pairs = {c: m for a, c1, c2 in zip(leaders, sec[0::2], sec[1::2])
                     for c, m in ((c1, a), (c2, q - a))}
            for ys in compositions(q, len(fib)):
                yield {**pairs, **dict(zip(fib, ys))}
        return
    weight, n_x = params.e * params.chain_length, params.d + params.u
    for total in range(n_x, (q - len(fib)) // weight + 1):
        for xs in compositions(total, n_x):
            sections = {**dict(zip(sec, xs)), sec[-1]: q - total}
            for ys in compositions(q - weight * total, len(fib)):
                yield {**sections, **dict(zip(fib, ys))}


def good_base_exists(config, q):
    """Whether some base of `search_space` whose chains do not collapse
    passes `verify_asymptotic` (brute force)."""
    for base in search_space(config, q):
        try:
            assign = BranchAssignment.from_base(config, q, base)
        except InvalidAssignmentError:
            continue
        if verify_asymptotic(config, assign).ok:
            return True
    return False


class TestExhaustionOracle:
    # A search that ends NotFound under its budget claims q has no good
    # assignment; brute force over the same space must agree, both ways.
    @pytest.mark.parametrize("params, q", [
        *((ArrangementParams(Family.A0, p=2, r=1, e=1, d=3), q)
          for q in (11, 13, 17, 19, 23, 29, 31, 61)),
        *((ArrangementParams(Family.A, p=2, r=1, e=1, d=3, u=1, w=1), q) for q in (13, 17, 19, 23)),
        *((ArrangementParams(Family.APRIME, p=2, r=1, e=1, d=4), q) for q in (7, 11, 13)),
    ], ids=lambda v: v.family.value if isinstance(v, ArrangementParams) else str(v))
    def test_exhausted_exactly_when_no_good_base(self, params, q):
        config = build_resolution(params)
        budget = 200_000
        result = search_assignment(PartitionProblem(config, q), seed=0, node_budget=budget)
        exhausted = isinstance(result, NotFound) and result.tries < budget
        assert exhausted is not good_base_exists(config, q)
        if exhausted:
            # restart 0's proof, counted once for each of the 8 restarts
            assert result.tries % 8 == 0
        else:
            assert verify_asymptotic(config, result).ok


def chain_zeros_kept(config, q, sections):
    """Where phase 2's node images keep a chain curve's zero, for section
    values `sections` (reference): the forms are `solve_fibers`' (the fiber
    is v, G_k is v + k*E with E the tangent sections' sum) and G_k vanishes
    at v = -k*E. Returns (curves whose nonzero zero the intersection of
    their fiber's images keeps, nodes whose own image keeps the zero of one
    end while the other end is nonzero)."""
    images = NodeImages(q)
    rules = dict(zip(config.nodes, residue_rules(config, q)))
    in_intersection, at_node = [], []
    for tang in config.tangencies:
        ends = sum(sections[c] for c in tang.sections)
        form = {c: (0, x) for c, x in sections.items()}
        form[tang.fiber] = (1, 0)
        zero = {}
        for k, gid in enumerate(tang.chain, start=1):
            form[gid] = (1, k * ends % q)
            zero[gid] = -k * ends % q
        sol = images.full
        for node, fiber in zip(config.nodes, config.node_fibers):
            if fiber != tang.fiber:
                continue
            i, j, _count = node
            img = images[(rules[node], *form[i], *form[j])]
            sol &= img
            for end, other in ((i, j), (j, i)):
                v = zero.get(end)
                a, b = form[other]
                if v is not None and (a * v + b) % q and (img >> v) & 1:
                    at_node.append((node, end))
        in_intersection += [gid for gid, v in zero.items() if v and (sol >> v) & 1]
    return in_intersection, at_node


class TestChainZerosOutOfImages:
    """Phase 2 applies no chain-collapse mask: for E = nu_a + nu_b != 0 the
    zero v = -k*E of G_k is refused by each node with G_k at one end and a
    nonzero other end (residue 0 or undefined there), so the fiber's images
    never keep it; for E = 0 it is v = 0, which the window drops."""

    PARAMS = [
        ArrangementParams(Family.A, p=2, r=2, e=1, d=3, u=1, w=1),
        ArrangementParams(Family.A, p=3, r=1, e=1, d=4, u=2, w=1),
        ArrangementParams(Family.APRIME, p=3, r=1, e=1, d=6),  # paired and unpaired tangencies
        ArrangementParams(Family.APRIME, p=2, r=2, e=1, d=6),
    ]

    @staticmethod
    def sections(config, q, seed, cancel):
        """Section values in 1..q-1, APRIME's pairs summing to q; with
        `cancel`, the first tangency's sections also sum to 0 mod q."""
        rng = random.Random(seed)
        values = {c: rng.randrange(1, q) for c in config.section_ids}
        if config.params.family is Family.APRIME:
            for a, b in zip(config.section_ids[0::2], config.section_ids[1::2]):
                values[b] = q - values[a]
        if cancel:
            a, b = config.tangencies[0].sections
            values[b] = q - values[a]
        return values

    @given(st.sampled_from(PARAMS), st.sampled_from(primes_between(17, 400)),
           st.integers(0, 2**32), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_images_never_keep_a_chain_zero(self, params, q, seed, cancel):
        assume(q != params.p)
        config = drawn_config(params)
        assert chain_zeros_kept(config, q, self.sections(config, q, seed, cancel)) == ([], [])

    def test_mutant_keeping_first_end_zeros_fails(self, monkeypatch):
        # The intersection still drops every zero here: each G_k is also the
        # second end of a node of its fiber. The per-node check catches it.
        evaluate = NodeImages._evaluate

        def keeps_first_end_zero(self, rule, a1, b1, a2, b2):
            img = evaluate(self, rule, a1, b1, a2, b2)
            if a1:
                img |= 1 << (-b1 * pow(a1, -1, self.q) % self.q)
            return img

        monkeypatch.setattr(NodeImages, "_evaluate", keeps_first_end_zero)
        config = drawn_config(self.PARAMS[0])
        _kept, at_node = chain_zeros_kept(config, 101, self.sections(config, 101, 0, False))
        assert at_node


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
        for table in (good_table(q), bytes(q - 1) + b"\x01"):
            for form in forms:
                expected = moebius_image(table, q, *form)
                for rule in rules_of(table):
                    img = images[(rule, *form)]
                    assert 0 <= img <= images.full
                    assert {v for v in range(q) if (img >> v) & 1} == expected

    @staticmethod
    def tables(q):
        """The good table, the full turn, nothing allowed, all but 0 allowed."""
        return (good_table(q), bytes(q - 1) + b"\x01", bytes(q), b"\x00" + b"\x01" * (q - 1))

    @staticmethod
    def forms(q, rng, count):
        """Random forms over all of Z/q, with zero coefficients and
        identical ends mixed in."""
        out = [(0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)]
        for _ in range(count):
            a1, b1, a2, b2 = (rng.randrange(q) for _ in range(4))
            out += [(a1, b1, a2, b2), (0, 0, a2, b2), (a1, b1, 0, b2), (0, b1, a2, b2),
                    (a1, b1, a1, b1), (a1, b1, -a1 % q, -b1 % q)]
        return out

    @pytest.mark.parametrize("q", [5, 41, 499, 3847])
    def test_evaluate_matches_per_v_reference(self, q):
        images = NodeImages(q)
        rng = random.Random(f"per-v:{q}")
        for table in self.tables(q):
            for form in self.forms(q, rng, 12):
                expected = per_v_image(table, q, *form)
                for rule in rules_of(table):
                    assert images._evaluate(rule, *form) == expected, form
                    assert images[(rule, *form)] == expected, form

    def test_evaluate_matches_per_v_reference_at_large_q(self):
        q = 30931
        images = NodeImages(q)
        rng = random.Random("per-v:large")
        forms = [(1, 0, 1, 0), (0, 0, rng.randrange(q), rng.randrange(q))]
        forms += [tuple(rng.randrange(q) for _ in range(4)) for _ in range(3)]
        for table in self.tables(q):
            for form in forms:
                expected = per_v_image(table, q, *form)
                for rule in rules_of(table):
                    assert images._evaluate(rule, *form) == expected, form


class TestResidueRule:
    def test_allows_good_set_or_full_turn(self, family_a_config, paired_config):
        for q in primes_between(17, 1000):
            good = set(bad_set(q, 1).complement)
            for config in (family_a_config, paired_config):
                rules = residue_rules(config, q)
                assert len(rules) == len(config.nodes)
                allowed = {}  # every node shares one of two rules
                for node, rule in zip(config.nodes, rules):
                    if rule not in allowed:
                        allowed[rule] = allowed_by(rule, q)
                    expected = {q - 1} if node in config.exempt_nodes else good
                    assert allowed[rule] == expected, (q, node)

    def test_sampled_path_stays_below_q_bytes(self, family_a_config):
        # the rules are O(|F|): no q-byte table is built to sample or verify
        q = 10_000_019
        tracemalloc.start()
        try:
            result, _ = sample_with_stats(PartitionProblem(family_a_config, q), seed=1)
            assert verify_asymptotic(family_a_config, result).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < q


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
