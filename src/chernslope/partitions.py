"""Seeded search for branch multiplicities with good node residues.

The multiplicity data of a degree-q cover is a solution of a weighted
composition problem (families A0/A: e*p^r per section unknown plus 1 per
fiber unknown summing to q; APRIME: a length-l partition of q for the
paired sections and a length-delta one for the fibers). `residue_rule`
says which residues each node may carry: the good set, except at the
structurally exempt full-turn nodes of APRIME's paired tangencies, which
must carry q - 1. `sample_with_stats` draws uniform compositions of the
residual after assigning 1 everywhere and keeps a draw that obeys the rule
(`sampler_diagnostics` replays a failed run's draws for the reports that
say how close they came); `search_assignment` is the deterministic
backtracking search for the cases where such draws are too rare. `pipeline.find_assignment` runs the two in
that order.
"""
from __future__ import annotations

import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import islice

# `good_residues` stays importable here: perfbench/'s tracer hooks the name on
# this module (tests/test_bench_sites.py checks that every hooked name resolves).
from .badset import good_residues, good_table  # noqa: F401
from .geometry import Family, ResolvedConfiguration
from .numtheory import DomainError, is_prime
from .rootcover import BranchAssignment, InvalidAssignmentError, NegatedInverses


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
        if not is_prime(self.q) or self.q == self.config.params.p:
            raise DomainError(f"q must be a prime different from p, got {self.q}")
        if self.q < min_feasible_q(self.config.params):
            raise DomainError(f"q = {self.q} is infeasible for these parameters")


@dataclass(frozen=True)
class NotFound:
    """Returned (not raised) when no good assignment shows up in time."""

    tries: int
    zero_hits: int         # draws rejected for a multiplicity collapsing mod q
    fewest_bad: int | None  # best (smallest) number of offending nodes seen
    worst_node: tuple[str, str, int] | None  # an offending node from the best draw


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Uniform composition of `total` into `parts` non-negative integers."""
    if parts == 1:
        return [total]
    cuts = sorted(rng.sample(range(total + parts - 1), parts - 1))
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
    if problem.config.family is Family.APRIME:
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
    x_units = rng.randint(0, slack // weight)
    xs = [x + 1 for x in _composition(rng, x_units, n_x)]
    ys = [y + 1 for y in _composition(rng, slack - weight * x_units, n_y)]
    base = dict(zip(sec_ids, xs))
    # linear equivalence forces the negative section's multiplicity
    base[sec_ids[-1]] = q - sum(xs)
    base.update(zip(fiber_ids, ys))
    return base


def check_base(config: ResolvedConfiguration, q: int, base: dict[str, int]) -> None:
    """Raise InvalidAssignmentError unless an A0/A base keeps the linear
    equivalences `_draw_base` builds in: mod q, all sections sum to 0, and
    e*p^r times S1..Sd, H1..Hu plus all fibers sum to 0. An APRIME base is
    not checked."""
    params = config.params
    if params.family is Family.APRIME:
        return
    *x_ids, neg = config.section_ids
    x_total = sum(base[c] for c in x_ids)
    weighted = params.e * params.chain_length * x_total + sum(base[f] for f in config.fiber_ids)
    if (x_total + base[neg]) % q or weighted % q:
        raise InvalidAssignmentError(f"the multiplicities break linear equivalence mod {q}")


def residue_rule(
    config: ResolvedConfiguration, q: int
) -> Callable[[tuple[str, str, int]], bytes]:
    """The residues each node may carry at q, as a function of the node
    returning a q-byte table (byte a is 1 when a is allowed): only the full
    turn q - 1 at an exempt node, the good set elsewhere."""
    good = good_table(q, 1)
    exempt = config.exempt_nodes
    full_turn = bytes(q - 1) + b"\x01"
    return lambda node: full_turn if node in exempt else good


@dataclass(frozen=True)
class AsymptoticReport:
    ok: bool
    bad_nodes: tuple[tuple[tuple[str, str, int], int], ...]  # (node, residue)


def verify_asymptotic(config: ResolvedConfiguration, assign: BranchAssignment) -> AsymptoticReport:
    """Check every node residue against `residue_rule`."""
    allowed = residue_rule(config, assign.q)
    bad = tuple((node, a) for node, a in assign.residues(config) if not allowed(node)[a])
    return AsymptoticReport(ok=not bad, bad_nodes=bad)


def _draws(
    problem: PartitionProblem, seed: int, max_tries: int
) -> Iterator[tuple[BranchAssignment, Iterator[tuple[str, str, int]]] | None]:
    """The sampler's seeded draws, one generator per (seed, try index) so
    any scheduling of tries reproduces them: each is None if a multiplicity
    collapses mod q, else the assignment and its nodes that break
    `residue_rule`, in node order and computed as they are consumed."""
    allowed = residue_rule(problem.config, problem.q)
    tables = [allowed(node) for node in problem.config.nodes]
    neg_inv = NegatedInverses(problem.q)
    for t in range(max_tries):
        base = _draw_base(problem, random.Random(f"{seed}:{t}"))
        try:
            assign = BranchAssignment.from_base(problem.config, problem.q, base)
        except InvalidAssignmentError:
            yield None
            continue
        residues = assign.residues(problem.config, neg_inv)
        yield assign, (node for (node, a), table in zip(residues, tables) if not table[a])


def sample_with_stats(
    problem: PartitionProblem, seed: int, max_tries: int = 200
) -> tuple[BranchAssignment | NotFound, int]:
    """Seeded rejection sampling: returns (the first draw that obeys
    `residue_rule`, draws used), or (NotFound, max_tries).

    A draw is dropped at its first bad node, so the NotFound carries no
    fewest_bad or worst_node; `sampler_diagnostics` replays the same draws
    for the reports that print them."""
    zero_hits = 0
    for t, draw in enumerate(_draws(problem, seed, max_tries), start=1):
        if draw is None:
            zero_hits += 1
        elif next(draw[1], None) is None:
            return draw[0], t
    return NotFound(tries=max_tries, zero_hits=zero_hits, fewest_bad=None, worst_node=None), max_tries


def sampler_diagnostics(
    problem: PartitionProblem, seed: int, max_tries: int
) -> tuple[int | None, tuple[str, str, int] | None]:
    """(fewest_bad, worst_node) over the draws of a failed
    `sample_with_stats(problem, seed, max_tries)`: the fewest rule-breaking
    nodes in one draw, and the first of them. A draw's bad nodes are counted
    only until they reach the best count so far, since past it the draw
    cannot replace the best one. Both are None if every draw collapsed."""
    fewest_bad: int | None = None
    worst_node = None
    for draw in _draws(problem, seed, max_tries):
        bad = list(islice(draw[1], fewest_bad)) if draw else []
        if bad and (fewest_bad is None or len(bad) < fewest_bad):
            fewest_bad, worst_node = len(bad), bad[0]
    return fewest_bad, worst_node


def _section_steps(problem: PartitionProblem) -> list[tuple[str, str | None]]:
    """Phase-1 variable order for the backtracking search: one step per
    section unknown, as (component, partner). Setting the component to v
    sets its partner, if any, to (beta - v) mod q: the second section of an
    APRIME pair (beta = 0), or A0/A's negative section at the last step
    (beta = -s, with s the sum of the earlier section unknowns)."""
    sec_ids = problem.config.section_ids
    if problem.config.family is Family.APRIME:
        return list(zip(sec_ids[0::2], sec_ids[1::2]))
    *x_comps, neg = sec_ids
    return [(comp, None) for comp in x_comps[:-1]] + [(x_comps[-1], neg)]


# Total bits the node-image memo of one search may hold (one image is q
# bits); past it the memo is cleared. Images are pure functions of their
# key, so clearing changes speed only.
_IMAGE_MEMO_BITS = 1 << 26

_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class NodeImages:
    """Memoised residue images of nodes whose ends are linear in one unknown.

    A node whose two end multiplicities are a1*v + b1 and a2*v + b2 (mod q)
    in an unknown v has the image

        {v in Z/q : some a with allowed[a] = 1 has a*(a1*v + b1) + (a2*v + b2) = 0},

    for a q-byte residue table `allowed` from `residue_rule`, held as an int
    with bit v set. It includes every v at which both ends
    vanish, since every a then works. Shifting v by t = b1/a1 (or b2/a2
    when a1 = 0) turns the image into a bit rotation of the image of
    (a1, b1 - a1*t, a2, b2 - a2*t), so nodes that differ by a translation
    of v share one evaluation.

    An evaluation costs one step per residue of the shorter of the table's
    allowed and disallowed lists (the full turn at an exempt node, F and 0
    elsewhere), not one per v: for a fixed residue a the node equation is
    linear in v, so it has one root, none, or every v.
    """

    def __init__(self, q: int) -> None:
        self.q = q
        self.full = (1 << q) - 1
        self._inv = [0] + [pow(v, -1, q) for v in range(1, q)]
        self._listed: dict[bytes, tuple[int, list[int]]] = {}
        self._memo: dict[tuple, int] = {}

    def __call__(self, allowed: bytes, a1: int, b1: int, a2: int, b2: int) -> int:
        key = (allowed, a1, b1, a2, b2)
        img = self._memo.get(key)
        if img is not None:
            return img
        q = self.q
        t = b1 * self._inv[a1] % q if a1 else b2 * self._inv[a2] % q
        if t:
            base = self(allowed, a1, (b1 - a1 * t) % q, a2, (b2 - a2 * t) % q)
            img = ((base >> t) | (base << (q - t))) & self.full
        else:
            img = self._evaluate(allowed, a1, b1, a2, b2)
        if (len(self._memo) + 1) * q > _IMAGE_MEMO_BITS:
            self._memo.clear()
        self._memo[key] = img
        return img

    def _residue_list(self, allowed: bytes) -> tuple[int, list[int]]:
        """(byte, residues): the residues whose table byte is `byte`, for
        whichever byte value is rarer in `allowed`."""
        listed = self._listed.get(allowed)
        if listed is None:
            byte = int(2 * allowed.count(1) <= self.q)
            residues, a = [], allowed.find(byte)
            while a >= 0:
                residues.append(a)
                a = allowed.find(byte, a + 1)
            listed = self._listed[allowed] = (byte, residues)
        return listed

    def _evaluate(self, allowed: bytes, a1: int, b1: int, a2: int, b2: int) -> int:
        q, inv = self.q, self._inv
        if not (a1 or b1):
            # the first end vanishes at every v: v is in the image exactly
            # when the second end vanishes too
            if a2:
                return 1 << ((q - b2) * inv[a2] % q)
            return 0 if b2 else self.full
        # Where the first end is nonzero the residue is a exactly at the roots
        # of (a*a1 + a2)*v + (a*b1 + b2): start from the other byte value and
        # give the roots of the listed residues the listed one.
        byte, residues = self._residue_list(allowed)
        bits = bytearray((1 - byte,)) * q
        for a in residues:
            den = (a * a1 + a2) % q
            if den:
                bits[-(a * b1 + b2) * inv[den] % q] = byte
            elif (a * b1 + b2) % q == 0:
                bits = bytearray((byte,)) * q  # the residue is a at every v
                break
        if a1:
            v = (q - b1) * inv[a1] % q  # the first end vanishes here only
            bits[v] = (a2 * v + b2) % q == 0
        return int(bits.translate(_BINARY_DIGITS)[::-1], 2)


def _set_bits(x: int) -> list[int]:
    """Positions of the set bits of x >= 0, ascending."""
    digits = bin(x)[:1:-1]
    return [i for i, c in enumerate(digits) if c == "1"]


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

    Both phases see every node they check as two ends linear in the
    unknown of the current step, and read its feasible values from one
    memoised `NodeImages` bitset owned by this call. Phase 1 runs a
    depth-first search over the few section unknowns (`_section_steps`):
    entering a step, it intersects the images of the section-section nodes
    the step completes and tries the step's candidates against that mask.
    Phase 2 intersects, per fiber, the images of that fiber's nodes, keeps
    values 1..cap with nonzero chain multiplicities, and solves the
    remaining sum constraint by a bitset subset-sum sweep over the fibers.

    One attempt is one phase-1 candidate tried (passing or not) or one
    phase-2 node image intersected; each of 8 seeded restarts gets a slice
    of `node_budget` attempts. The seed only permutes value orders, so
    identical (problem, seed) yields identical output. A restart that
    empties its search space within its slice is a proof that q has no
    good assignment; an exhaustive DFS makes the same attempts in every
    value order, so the later restarts are counted, not run. Returns
    NotFound with the number of attempts if the budget runs out or the
    search space is exhausted.
    """
    cfg = problem.config
    params = cfg.params
    q = problem.q
    paired = cfg.family is Family.APRIME
    allowed = residue_rule(cfg, q)
    images = NodeImages(q)
    steps = _section_steps(problem)
    n_steps = len(steps)

    pos: dict[str, int] = {}
    for idx, step in enumerate(steps):
        for comp in step:
            if comp is not None:
                pos[comp] = idx

    # Fibers in component order, R1..Rw before F1..F_delta (the sampler
    # draws them the other way round); the seeded value orders index into it.
    fiber_ids = cfg.fiber_ids[params.delta:] + cfg.fiber_ids[:params.delta]
    tangency_of = {tang.fiber: tang for tang in cfg.tangencies}

    # Split nodes: section-section ones are checkable during phase 1 (staged
    # by the later of the two section steps); every other node touches one
    # fiber and joins that fiber's phase-2 constraint set. Each is kept as
    # (allowed-residue table, first end, second end).
    stage_nodes: list[list[tuple[bytes, str, str]]] = [[] for _ in range(n_steps)]
    fiber_nodes: dict[str, list[tuple[bytes, str, str]]] = {f: [] for f in fiber_ids}
    for node, fiber in zip(cfg.nodes, cfg.node_fibers):
        i, j, _count = node
        if fiber is None:
            stage_nodes[max(pos[i], pos[j])].append((allowed(node), i, j))
        else:
            fiber_nodes[fiber].append((allowed(node), i, j))

    attempts = 0
    budget_cap = 0
    n_y = len(fiber_ids)
    # A step's candidates leave each later step 1 and, in A0/A, each fiber 1
    weight, reserve = (1, 0) if paired else (params.e * params.chain_length, n_y)
    nu: dict[str, int] = {}

    def image(rule: bytes, i: str, j: str, forms: dict[str, tuple[int, int]]) -> int:
        """Image of node (i, j) in the active unknown v: an end in `forms`
        is alpha*v + beta, any other end is fixed at its nu."""
        a1, b1 = forms.get(i) or (0, nu[i])
        a2, b2 = forms.get(j) or (0, nu[j])
        return images(rule, a1, b1, a2, b2)

    def solve_fibers(s: int) -> dict[str, int] | None:
        """Phase 2: pick one good value per fiber hitting the exact sum.

        Each fiber's feasible values are the intersection of its nodes'
        images (one attempt each, stopping at the first empty
        intersection), cut to 1..cap and to nonzero chain multiplicities.
        A bitset subset-sum sweep (bit s of reach[t] says the first t
        fibers can sum to s) then decides the sum-to-target equation
        exactly, and a backward walk reconstructs one solution in value
        orders drawn from the restart's generator.
        """
        nonlocal attempts
        target = q if paired else q - weight * s
        if target < n_y:
            return None
        cap = min(target - (n_y - 1), q - 1)
        window = ((1 << cap) - 1) << 1  # values 1..cap
        feasible: list[int] = []
        for f in fiber_ids:
            # the fiber is v; the k-th curve of its chain is v + k*(nu_a + nu_b)
            forms = {f: (1, 0)}
            tang = tangency_of.get(f)
            if tang is not None:
                a, b = tang.sections
                ends = nu[a] + nu[b]
                for k, gid in enumerate(tang.chain, start=1):
                    forms[gid] = (1, k * ends % q)
            sol = images.full
            for rule, i, j in fiber_nodes[f]:
                attempts += 1
                if attempts > budget_cap:
                    return None
                sol &= image(rule, i, j, forms)
                if not sol:
                    return None
            sol &= window
            # multiplicities along the fiber and its chain must stay nonzero
            for _, beta in forms.values():
                sol &= ~(1 << (-beta % q))
            if not sol:
                return None
            feasible.append(sol)
        mask = (1 << (target + 1)) - 1
        reach = [1]
        for sol in feasible:
            cur = reach[-1]
            nxt = 0
            for v in _set_bits(sol):
                nxt |= cur << v
            nxt &= mask
            if nxt == 0:
                return None
            reach.append(nxt)
        if not (reach[-1] >> target) & 1:
            return None
        orders_y = [rng.sample(range(1, q), q - 1) for _ in range(n_y)]
        out: dict[str, int] = {}
        s = target
        for t in range(n_y - 1, -1, -1):
            prev = reach[t]
            chosen = None
            for v in orders_y[t]:
                if v <= s and (feasible[t] >> v) & 1 and (prev >> (s - v)) & 1:
                    chosen = v
                    break
            assert chosen is not None
            out[fiber_ids[t]] = chosen
            s -= chosen
        assert s == 0
        return out

    def dfs(idx: int, s: int) -> dict[str, int] | None:
        """Phase 1 from step `idx`, where s sums the earlier steps' values.
        Entries of `nu` past `idx` may be stale; none is read before it is set."""
        nonlocal attempts
        if idx == n_steps:
            return solve_fibers(s)
        comp, partner = steps[idx]
        hi = (q - weight * (s + n_steps - idx - 1) - reserve) // weight
        beta = 0 if paired else -s
        forms = {comp: (1, 0)}
        if partner is not None:
            forms[partner] = (q - 1, beta % q)
        # Every candidate and every fixed section lies in 1..q-1, and a
        # candidate that would zero its partner is skipped, so no node end
        # vanishes: the images alone decide.
        mask = images.full
        for rule, i, j in stage_nodes[idx]:
            mask &= image(rule, i, j, forms)
        # APRIME's pair values sum to q, so its last one is forced (hi = q - s)
        values = (hi,) if paired and idx == n_steps - 1 else orders[idx]
        for v in values:
            if v > hi or (partner is not None and (beta - v) % q == 0):
                continue
            attempts += 1
            if attempts > budget_cap:
                return None
            if not (mask >> v) & 1:
                continue
            nu[comp] = v
            if partner is not None:
                nu[partner] = (beta - v) % q
            ys = dfs(idx + 1, s + v)
            if ys is not None:
                return ys
            if attempts > budget_cap:
                return None
        return None

    # Deterministic restarts: each gets a fresh seeded value order and a
    # slice of the global attempt budget, so one unlucky ordering cannot
    # burn the whole budget. Nothing else draws from a restart's `rng`
    # after its section orders, so `solve_fibers` can draw the per-fiber
    # orders only when it reconstructs a solution.
    restarts = 8
    slice_budget = max(1, node_budget // restarts)
    ys = None
    for restart in range(restarts):
        rng = random.Random(f"search:{seed}:{restart}")
        orders = [rng.sample(range(1, q), q - 1) for _ in range(n_steps)]
        start = attempts
        budget_cap = min(node_budget, attempts + slice_budget)
        nu.clear()
        ys = dfs(0, 0)
        if ys is not None or attempts >= node_budget:
            break
        if attempts <= budget_cap:
            # The DFS emptied its search space under its cap: q has no good
            # assignment. An exhaustive DFS tries every candidate whatever
            # the value order, and draws nothing until it succeeds, so each
            # later restart would spend the same attempts on the same proof;
            # count them through the loop's own cap arithmetic instead.
            per_run = attempts - start
            for _ in range(restart + 1, restarts):
                budget_cap = min(node_budget, attempts + slice_budget)
                attempts = min(attempts + per_run, budget_cap + 1)
                if attempts >= node_budget:
                    break
            break
    if ys is not None:
        nu.update(ys)
        return BranchAssignment.from_base(cfg, q, dict(nu))
    return NotFound(tries=attempts, zero_hits=0, fewest_bad=None, worst_node=None)
