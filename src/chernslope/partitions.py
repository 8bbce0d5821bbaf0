"""Seeded search for branch multiplicities with good node residues.

The multiplicity data of a degree-q cover is a solution of a weighted
composition problem (families A0/A: e*p^r per section unknown plus 1 per
fiber unknown summing to q; APRIME: a length-l partition of q for the
paired sections and a length-delta one for the fibers). `residue_rules`
says which residues each node may carry, as a small set: all but 0 and the
bad set F, except at the structurally exempt full-turn nodes of APRIME's
paired tangencies, which must carry q - 1. `sample_with_stats` draws uniform
compositions of the residual after assigning 1 everywhere and keeps a draw
that obeys the rules (`sampler_diagnostics` replays a failed run's draws for
the reports that say how close they came); `search_assignment` is the
deterministic backtracking search for the cases where such draws are too
rare. `pipeline.find_assignment` runs the two in that order.
"""
from __future__ import annotations

import math
import random
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import islice

# perfbench/'s tracer hooks `badset.bad_set`, which is called through its module,
# and `good_residues` here (tests/test_bench_sites.py checks that both resolve).
from . import badset
from .badset import good_residues  # noqa: F401
from .geometry import Family, ResolvedConfiguration
from .numtheory import DomainError, check_prime_q
from .rootcover import (
    BranchAssignment,
    ChainMultiplicities,
    InvalidAssignmentError,
    NegatedInverses,
    node_residues,
)

DEFAULT_MAX_TRIES = 200  # the sampler's draws when the caller names no count


def min_feasible_q(params) -> int:
    """Smallest q leaving every unknown a positive multiplicity."""
    if params.family is Family.APRIME:
        return max(params.l, params.delta) + 1
    weight = params.e * params.chain_length
    return weight * (params.d + params.u) + params.delta + params.w + 1


@dataclass(frozen=True)
class PartitionProblem:
    config: ResolvedConfiguration
    q: int

    def __post_init__(self) -> None:
        check_prime_q(self.q, self.config.params.p)
        if self.q < min_feasible_q(self.config.params):
            raise DomainError(f"q = {self.q} is infeasible for these parameters")


@dataclass(frozen=True)
class NotFound:
    """Returned (not raised) when the draws or attempts, `tries` of them, run
    out. How the sampler's draws failed is `sampler_diagnostics`' to say."""

    tries: int


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Uniform composition of `total` into `parts` non-negative integers.

    The cuts are `rng.sample(range(n), k)` with n = total + parts - 1 and
    k = parts - 1, drawn inline in both of `sample`'s branches (a pool up to
    its `setsize`, a set of picks above it): the same `getrandbits` calls,
    so the same cuts and the same generator state."""
    if parts == 1:
        return [total]
    n, k = total + parts - 1, parts - 1
    getrandbits = rng.getrandbits
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        pool = list(range(n))
        cuts = []
        for m in range(n, n - k, -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            cuts.append(pool[j])
            pool[j] = pool[m - 1]
        cuts.sort()
    else:
        bits = n.bit_length()
        picked = set()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in picked:
                j = getrandbits(bits)
            picked.add(j)
        cuts = sorted(picked)
    prev, out = -1, []
    for c in cuts:
        out.append(c - prev - 1)
        prev = c
    out.append(total + parts - 2 - prev)
    return out


def _draw_base(problem: PartitionProblem, rng: random.Random) -> dict[str, int]:
    params = problem.config.params
    q, delta = problem.q, params.delta
    sec_ids, fiber_ids = problem.config.section_ids, problem.config.fiber_ids
    if params.family is Family.APRIME:
        base: dict[str, int] = {}
        a_parts = [x + 1 for x in _composition(rng, q - params.l, params.l)]
        for i, a in enumerate(a_parts):
            base[sec_ids[2 * i]] = a
            base[sec_ids[2 * i + 1]] = q - a
        y_parts = [y + 1 for y in _composition(rng, q - delta, delta)]
        base.update(zip(fiber_ids, y_parts))
        return base

    weight = params.e * params.chain_length
    n_x, n_y = params.d + params.u, delta + params.w
    slack = q - weight * n_x - n_y
    # rng.randint(0, slack // weight), drawn inline as `_composition` draws
    width = slack // weight + 1
    bits = width.bit_length()
    x_units = rng.getrandbits(bits)
    while x_units >= width:
        x_units = rng.getrandbits(bits)
    xs = [x + 1 for x in _composition(rng, x_units, n_x)]
    ys = [y + 1 for y in _composition(rng, slack - weight * x_units, n_y)]
    base = dict(zip(sec_ids, xs))
    # linear equivalence forces the negative section's multiplicity
    base[sec_ids[-1]] = q - sum(xs)
    base.update(zip(fiber_ids, ys))
    return base


def check_base(config: ResolvedConfiguration, q: int, base: dict[str, int]) -> None:
    """Raise InvalidAssignmentError unless the base divisor's class
    x*C0 + y*F on the ruled surface is divisible by q: mod q, x and y vanish.

    A0/A: S1..Sd and H1..Hu lie in C0 + e*p^r*F and S_{d+1} in C0. APRIME:
    all sections share one class C0 + b*F, so once each pair S_{2i-1}, S_{2i}
    sums to 0 (which gives the pair's tangencies their full-turn residues),
    only the fibers must sum to 0; the pairs' first sections, which
    `_draw_base` sums to q, need not.
    """
    params = config.params
    sec_ids = config.section_ids
    fibers = sum(base[f] for f in config.fiber_ids)
    if params.family is Family.APRIME:
        for a, b in zip(sec_ids[0::2], sec_ids[1::2]):
            if (base[a] + base[b]) % q:
                raise InvalidAssignmentError(f"the APRIME pair {a}, {b} does not sum to 0 mod {q}")
        broken = fibers % q
    else:
        x_total = sum(base[c] for c in sec_ids[:-1])
        broken = (x_total + base[sec_ids[-1]]) % q or (
            params.e * params.chain_length * x_total + fibers) % q
    if broken:
        raise InvalidAssignmentError(f"the multiplicities break linear equivalence mod {q}")


Rule = tuple[bool, frozenset[int]]


def residue_rules(config: ResolvedConfiguration, q: int) -> tuple[Rule, ...]:
    """The residues each node may carry at q, one rule (allow, listed) per
    node in node order: residue a is allowed exactly when
    `(a in listed) is allow`. Exempt nodes get (True, {q - 1}), the full
    turn only; the others (False, {0} | F), all but 0 and the bad set F."""
    good = (False, frozenset(badset.bad_set(q, 1).members).union((0,)))
    full_turn = (True, frozenset((q - 1,)))
    return tuple(full_turn if node in config.exempt_nodes else good for node in config.nodes)


@dataclass(frozen=True)
class AsymptoticReport:
    ok: bool
    bad_nodes: tuple[tuple[tuple[str, str, int], int], ...]  # (node, residue)


def _bad_nodes(residues: Iterable[tuple[tuple[str, str, int], int]],
               rules: Iterable[Rule]) -> Iterator[tuple[tuple[str, str, int], int]]:
    """(node, residue) for each node whose residue breaks its rule (`rules`
    holds one per node, in node order), computed as they are consumed."""
    return ((node, a) for (node, a), (allow, listed) in zip(residues, rules)
            if (a in listed) is not allow)


def verify_asymptotic(config: ResolvedConfiguration, assign: BranchAssignment) -> AsymptoticReport:
    """Check every node residue against `residue_rules`."""
    bad = tuple(_bad_nodes(assign.residues(config), residue_rules(config, assign.q)))
    return AsymptoticReport(ok=not bad, bad_nodes=bad)


def check_max_tries(max_tries: int) -> None:
    """Raise DomainError unless the sampler's draw count is non-negative."""
    if max_tries < 0:
        raise DomainError(f"max_tries must be non-negative, got {max_tries}")


def _draws(
    problem: PartitionProblem, seed: int, max_tries: int
) -> Iterator[tuple[dict[str, int], Iterator[tuple[tuple[str, str, int], int]]] | None]:
    """The sampler's seeded draws, one generator per (seed, try index) so
    any scheduling of tries reproduces them: each is None if a multiplicity
    collapses mod q (`BranchAssignment.from_base` would raise), else the
    drawn base and its `_bad_nodes`. A chain multiplicity is computed only
    when a node reading it is consumed (`ChainMultiplicities`), so a draw
    dropped at an early node costs O(tangencies + nodes read)."""
    config, q = problem.config, problem.q
    rules = residue_rules(config, q)
    neg_inv = NegatedInverses(q)
    for t in range(max_tries):
        base = _draw_base(problem, random.Random(f"{seed}:{t}"))
        try:
            nus = ChainMultiplicities(config, base, neg_inv)
        except InvalidAssignmentError:
            yield None
            continue
        yield base, _bad_nodes(node_residues(config.nodes, nus, neg_inv), rules)


def sample_with_stats(
    problem: PartitionProblem, seed: int, max_tries: int = DEFAULT_MAX_TRIES
) -> tuple[BranchAssignment | NotFound, int]:
    """Seeded rejection sampling: returns (the first draw that obeys
    `residue_rules`, draws used), or (NotFound, max_tries).

    A draw is dropped at its first bad node, and only the kept draw becomes
    a `BranchAssignment`; `sampler_diagnostics` replays the same draws for
    the reports that say how close they came."""
    check_max_tries(max_tries)
    for t, draw in enumerate(_draws(problem, seed, max_tries), start=1):
        if draw is not None and next(draw[1], None) is None:
            return BranchAssignment.from_base(problem.config, problem.q, draw[0]), t
    return NotFound(tries=max_tries), max_tries


def sampler_diagnostics(problem: PartitionProblem, seed: int, max_tries: int) -> dict:
    """The not-found report fields of a failed `sample_with_stats(problem,
    seed, max_tries)`: `zero_hits` draws had a multiplicity collapsing mod q;
    `fewest_bad` is the fewest rule-breaking nodes in one other draw, and
    `worst_node` the first of them (both None if every draw collapsed). A
    draw's bad nodes are counted only until they reach the best count so far,
    since past it the draw cannot replace the best one."""
    zero_hits, fewest_bad, worst_node = 0, None, None
    for draw in _draws(problem, seed, max_tries):
        zero_hits += draw is None
        bad = list(islice(draw[1], fewest_bad)) if draw else []
        if bad and (fewest_bad is None or len(bad) < fewest_bad):
            fewest_bad, worst_node = len(bad), bad[0][0]
    return {"zero_hits": zero_hits, "fewest_bad": fewest_bad, "worst_node": worst_node}


def _section_steps(problem: PartitionProblem) -> list[tuple[str, str | None]]:
    """Phase-1 variable order for the backtracking search: one step per
    section unknown, as (component, partner). Setting the component to v
    sets its partner, if any, to (beta - v) mod q: the second section of an
    APRIME pair (beta = 0), or A0/A's negative section at the last step
    (beta = -s, with s the sum of the earlier section unknowns)."""
    sec_ids = problem.config.section_ids
    if problem.config.params.family is Family.APRIME:
        return list(zip(sec_ids[0::2], sec_ids[1::2]))
    *x_comps, neg = sec_ids
    return [(comp, None) for comp in x_comps[:-1]] + [(x_comps[-1], neg)]


# Total bits the node-image memo of one search may hold (one image is q
# bits); past it the memo is cleared. Images are pure functions of their
# key, so clearing changes speed only.
_IMAGE_MEMO_BITS = 1 << 26

_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class NodeImages(dict):
    """Residue images of nodes linear in one unknown, computed on first lookup.

    A node whose two end multiplicities are a1*v + b1 and a2*v + b2 (mod q)
    in an unknown v has the image

        {v in Z/q : some allowed a has a*(a1*v + b1) + (a2*v + b2) = 0},

    for a rule (allow, listed) from `residue_rules`, held under the key
    (rule, a1, b1, a2, b2) as an int with bit v set. It includes every v at
    which both ends vanish, since every a then works. Shifting v by
    t = b1/a1 (or b2/a2 when a1 = 0) turns the image into a bit rotation of
    the image of (a1, b1 - a1*t, a2, b2 - a2*t), so nodes that differ by a
    translation of v share one evaluation.

    An evaluation costs one step per residue in the rule's `listed` set
    (the full turn at an exempt node, F and 0 elsewhere), not one per v:
    for a fixed residue a the node equation is linear in v, so it has one
    root, none, or every v. Inverses come from `rootcover.NegatedInverses`,
    which computes q - x^-1 mod q for the few x that occur, on first use.
    """

    def __init__(self, q: int) -> None:
        super().__init__()
        self.q = q
        self.full = (1 << q) - 1
        self._neg_inv = NegatedInverses(q)

    def __missing__(self, key: tuple[Rule, int, int, int, int]) -> int:
        rule, a1, b1, a2, b2 = key
        q, neg_inv = self.q, self._neg_inv
        t = -b1 * neg_inv[a1] % q if a1 else -b2 * neg_inv[a2] % q if a2 else 0
        if t:
            base = self[rule, a1, (b1 - a1 * t) % q, a2, (b2 - a2 * t) % q]
            img = ((base >> t) | (base << (q - t))) & self.full
        else:
            img = self._evaluate(*key)
        if (len(self) + 1) * q > _IMAGE_MEMO_BITS:
            self.clear()
        self[key] = img
        return img

    def _evaluate(self, rule: Rule, a1: int, b1: int, a2: int, b2: int) -> int:
        q, neg_inv = self.q, self._neg_inv
        if not (a1 or b1):
            # the first end vanishes at every v: v is in the image exactly
            # when the second end vanishes too
            if a2:
                return 1 << (b2 * neg_inv[a2] % q)
            return 0 if b2 else self.full
        # Where the first end is nonzero the residue is a exactly at the roots
        # of (a*a1 + a2)*v + (a*b1 + b2): start every v at the verdict on
        # unlisted residues, and give the roots of the listed ones `allow`.
        allow, listed = rule
        bits = bytearray((not allow,)) * q
        for a in listed:
            den = (a * a1 + a2) % q
            if den:
                bits[(a * b1 + b2) * neg_inv[den] % q] = allow
            elif (a * b1 + b2) % q == 0:
                bits = bytearray((allow,)) * q  # the residue is a at every v
                break
        if a1:
            v = b1 * neg_inv[a1] % q  # the first end vanishes here only
            bits[v] = (a2 * v + b2) % q == 0
        return int(bits.translate(_BINARY_DIGITS)[::-1], 2)


def _reach_step(cur: int, sol: int, target: int) -> int:
    """The bitset of sums x + v <= target, x in cur (within [0, target]) and
    v in sol (nonempty). Once bit `target` of cur is set, cur is
    low | [lo, target] and the sums cover [lo + min(sol), target]: only low
    is shifted, and only by the values below that interval (or below
    target + 1, if it is empty). Otherwise the sparser of cur and sol is
    the one iterated: the sums are symmetric, so the first step, from
    cur = 1, is one shift."""
    mask = (1 << (target + 1)) - 1
    nxt = 0
    if cur >> target:
        lo = (cur ^ mask).bit_length()
        edge = min(lo + (sol & -sol).bit_length() - 1, target + 1)
        nxt = mask >> edge << edge
        cur &= (1 << lo) - 1
        sol &= (1 << edge) - 1
    elif cur.bit_count() < sol.bit_count():
        cur, sol = sol, cur
    for v, bit in enumerate(bin(sol)[:1:-1]):
        if bit == "1":
            nxt |= cur << v
    return nxt & mask


def _order(rng: random.Random, q: int) -> array:
    """`rng.sample(range(1, q), q - 1)` as an array, drawn inline: the same
    `getrandbits` calls (randbelow's rejection loop on m = q-1, .., 1, then
    the pool swap), so the same permutation and the same generator state."""
    pool = list(range(1, q))
    getrandbits = rng.getrandbits
    m = q - 1
    k = m.bit_length()
    low = 1 << k >> 1
    while m:
        j = getrandbits(k)
        if j < m:
            m -= 1
            pool[j], pool[m] = pool[m], pool[j]
            if m < low:
                k -= 1
                low >>= 1
    pool.reverse()
    return array("q", pool)


def search_assignment(
    problem: PartitionProblem,
    seed: int,
    node_budget: int = 200_000,
) -> BranchAssignment | NotFound:
    """Deterministic constraint-guided search for a good assignment.

    Rejection sampling (`sample_with_stats`) needs every node residue of an
    independent draw to land in the good set at once, which becomes
    hopeless when the number of nodes is large relative to q (the bad set
    covers ~44% of residues at q = 101). This search exploits the
    configuration's structure instead: fibers are pairwise disjoint, so
    once the section multiplicities are fixed, each fiber unknown is
    constrained independently of the others except through the sum-to-q
    equation.

    Both phases read a node's feasible values from one memoised `NodeImages`
    bitset owned by this call. Phase 1 runs a depth-first search over the
    few section unknowns (`_section_steps`); a section-section node's image
    is computed ahead, when the earlier of its steps sets its value, into
    the later step's mask, and each step tries its seeded order (`_order`,
    cut below the power of two above its bound) against its mask.
    Phase 2 reads node ends from one table, form[c] = (alpha, beta): c's
    multiplicity is alpha*v + beta in the current unknown v. It intersects,
    per fiber, the images of that fiber's nodes, keeps values 1..cap, and
    solves the remaining sum constraint by a bitset subset-sum sweep over
    the fibers (`_reach_step`).

    One attempt is one phase-1 candidate tried (passing or not) or one
    phase-2 node image intersected; each of 8 seeded restarts gets a slice
    of `node_budget` attempts. The seed only permutes value orders, so
    identical (problem, seed) yields identical output. A restart that
    empties its search space within its slice is a proof that q has no
    good assignment; an exhaustive DFS makes the same attempts in every
    value order, so the later restarts are counted in closed form, not run.
    Returns NotFound with the number of attempts if the budget runs out or
    the search space is exhausted.
    """
    cfg = problem.config
    params = cfg.params
    q = problem.q
    paired = params.family is Family.APRIME
    rules = residue_rules(cfg, q)
    images = NodeImages(q)
    steps = _section_steps(problem)
    n_steps = len(steps)
    pos = {comp: idx for idx, (comp, _partner) in enumerate(steps)}

    # Fibers in component order, R1..Rw before F1..F_delta (the sampler
    # draws them the other way round); the seeded value orders index into it.
    fiber_ids = cfg.fiber_ids[params.delta:] + cfg.fiber_ids[:params.delta]
    tangency_of = {tang.fiber: tang for tang in cfg.tangencies}

    # A node touching no fiber must join an earlier step's component, at v,
    # to a later one's, at (1, 0): the earlier step keeps it as (later step,
    # rule, whether its first end is the earlier one). Every other node joins
    # its fiber's phase-2 constraints as (rule, first end, second end).
    ahead: list[list[tuple[int, Rule, bool]]] = [[] for _ in range(n_steps)]
    fiber_nodes: dict[str, list[tuple[Rule, str, str]]] = {f: [] for f in fiber_ids}
    for node, fiber, rule in zip(cfg.nodes, cfg.node_fibers, rules):
        i, j, _count = node
        if fiber is not None:
            fiber_nodes[fiber].append((rule, i, j))
        elif i in pos and j in pos and pos[i] != pos[j]:
            early, late = sorted((pos[i], pos[j]))
            ahead[early].append((late, rule, pos[i] == early))
        else:
            raise ValueError(f"section node {node} does not join the components of two search steps")

    attempts = 0
    n_y = len(fiber_ids)
    # A step's candidates leave each later step 1 and, in A0/A, each fiber 1
    weight, reserve = (1, 0) if paired else (params.e * params.chain_length, n_y)
    # entries of steps and fibers not yet entered may be stale; none is read before it is set
    form: dict[str, tuple[int, int]] = {}

    def solve_fibers(s: int) -> bool:
        """Phase 2: pick one good value per fiber hitting the exact sum.

        Each fiber's feasible values are the intersection of its nodes'
        images (one attempt each, stopping at the first empty
        intersection), cut to 1..cap. A bitset subset-sum sweep (bit s of
        reach[t] says the first t fibers can sum to s) then decides the
        sum-to-target equation exactly, and a backward walk sets one
        solution in the table, in value orders drawn from the restart's
        generator.
        """
        nonlocal attempts
        # target >= n_y: dfs's hi leaves reserve = n_y in A0/A, and
        # min_feasible_q puts q above delta = n_y in APRIME
        target = q if paired else q - weight * s
        cap = min(target - (n_y - 1), q - 1)
        window = ((1 << cap) - 1) << 1  # values 1..cap
        feasible: list[int] = []
        for f in fiber_ids:
            # the fiber is v; the k-th curve of its chain is v + k*(nu_a + nu_b)
            form[f] = (1, 0)
            if (tang := tangency_of.get(f)) is not None:
                ends = sum(form[c][1] for c in tang.sections)
                for k, gid in enumerate(tang.chain, start=1):
                    form[gid] = (1, k * ends % q)
            sol = images.full
            for rule, i, j in fiber_nodes[f]:
                attempts += 1
                if attempts > budget_cap:
                    return False
                sol &= images[(rule, *form[i], *form[j])]
                if not sol:
                    return False
            # No chain multiplicity vanishes on 1..cap: G_k = 0 only at
            # v = -k*(nu_a + nu_b), where node F-G_1 or G_{k-1}-G_k has
            # residue 0, which every rule refuses, or else at v = 0
            sol &= window
            if not sol:
                return False
            feasible.append(sol)
        reach = [1]
        for sol in feasible:
            nxt = _reach_step(reach[-1], sol, target)
            if nxt == 0:
                return False
            reach.append(nxt)
        if not (reach[-1] >> target) & 1:
            return False
        orders_y = [_order(rng, q) for _ in range(n_y)]
        s = target
        for t in range(n_y - 1, -1, -1):
            chosen = next(v for v in orders_y[t]
                          if v <= s and (feasible[t] >> v) & 1 and (reach[t] >> (s - v)) & 1)
            form[fiber_ids[t]] = (0, chosen)
            s -= chosen
        assert s == 0
        return True

    def dfs(idx: int, s: int, pending: list[int]) -> bool:
        """Phase 1 from step `idx`, where s sums the earlier steps' values
        and pending[k] is the mask the earlier steps' values leave step k."""
        nonlocal attempts
        comp, partner = steps[idx]
        hi = (q - weight * (s + n_steps - idx - 1) - reserve) // weight
        beta = 0 if paired else -s
        # Every candidate and every fixed section lies in 1..q-1, and so does
        # the partner (beta - v) mod q: APRIME has beta = 0, and in A0/A
        # v <= hi gives weight*(s + v) <= q - reserve with weight = e*p^r >= 2,
        # so 0 < s + v < q. No node end vanishes: the images alone decide.
        mask = pending[idx]
        last = idx == n_steps - 1
        if paired and last:
            values = (hi,)  # APRIME's pair values sum to q: the last one is forced
        else:
            # the order cut to the values below the power of two above hi,
            # built once per restart and bit length of hi
            cut = (idx, hi.bit_length())
            values = below.get(cut)
            if values is None:
                lim = 1 << cut[1]
                values = below[cut] = orders[idx] if lim >= q else [v for v in orders[idx] if v < lim]
        for v in values:
            if v > hi:
                continue
            attempts += 1
            if attempts > budget_cap:
                return False
            if not (mask >> v) & 1:
                continue
            form[comp] = (0, v)
            if partner is not None:
                form[partner] = (0, (beta - v) % q)
            if last:
                found = solve_fibers(s + v)
            else:
                nxt = pending
                if ahead[idx]:
                    nxt = pending.copy()
                    for later, rule, first in ahead[idx]:
                        nxt[later] &= images[(rule, 0, v, 1, 0) if first else (rule, 1, 0, 0, v)]
                found = dfs(idx + 1, s + v, nxt)
            if found:
                return True
            if attempts > budget_cap:
                return False
        return False

    # Deterministic restarts: each gets a fresh seeded value order and a
    # slice of the global attempt budget, so one unlucky ordering cannot
    # burn the whole budget. Nothing else draws from a restart's `rng`
    # after its section orders, so `solve_fibers` can draw the per-fiber
    # orders only when it reconstructs a solution.
    found = None
    restarts = 8
    slice_budget = max(1, node_budget // restarts)
    for restart in range(restarts):
        rng = random.Random(f"search:{seed}:{restart}")
        orders = [_order(rng, q) for _ in range(n_steps)]
        below: dict[tuple[int, int], Iterable[int]] = {}
        start = attempts
        budget_cap = min(node_budget, attempts + slice_budget)
        if dfs(0, 0, [images.full] * n_steps):
            found = BranchAssignment.from_base(cfg, q, {c: form[c][1] for c in cfg.base_ids})
            break
        if attempts >= node_budget:
            break
        if attempts <= budget_cap:
            # The DFS emptied its search space under its cap: q has no good
            # assignment. An exhaustive DFS tries every candidate whatever
            # the value order, and draws nothing until it succeeds, so each
            # later restart would spend the same attempts, within its slice.
            attempts = min(attempts + (attempts - start) * (restarts - restart - 1), node_budget)
            break
    # dfs reaches itself through its closure: break the cycle, so `images` is freed now
    dfs = None
    return NotFound(tries=attempts) if found is None else found
