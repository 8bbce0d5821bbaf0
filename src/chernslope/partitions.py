"""Seeded search for branch multiplicities with good node residues.

The multiplicity data of a degree-q cover is a solution of a weighted
composition problem (families A0/A: e*p^r per section unknown plus 1 per
fiber unknown summing to q; APRIME: a length-l partition of q for the
paired sections and a length-delta one for the fibers). `residue_rule`
says which residues each node may carry: the good set, except at the
structurally exempt full-turn nodes of APRIME's paired tangencies, which
must carry q - 1. `sample_with_stats` draws uniform compositions of the
residual after assigning 1 everywhere and keeps a draw that obeys the rule;
`search_assignment` is the deterministic backtracking search for the cases
where such draws are too rare. `pipeline.find_assignment` runs the two in
that order.
"""
from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

# `good_residues` stays importable here: perfbench/'s tracer hooks the name on
# this module (tests/test_bench_sites.py checks that every hooked name resolves).
from .badset import good_residues, good_table  # noqa: F401
from .geometry import Family, ResolvedConfiguration
from .numtheory import DomainError, is_prime
from .rootcover import BranchAssignment, InvalidAssignmentError


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

    @property
    def family(self) -> Family:
        return self.config.params.family

    @cached_property
    def draw_ids(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """(section ids, fiber ids) in the order `_draw_base` fills them:
        S1..S2l for APRIME, or S1..Sd, H1..Hu and last the negative section
        S_{d+1} for families A0/A; then F1..F_delta and R1..Rw."""
        params = self.config.params
        d = params.d
        secs = [f"S{i + 1}" for i in range(d)]
        if self.family is not Family.APRIME:
            secs += [f"H{i + 1}" for i in range(params.u)] + [f"S{d + 1}"]
        fibers = [f"F{t + 1}" for t in range(params.delta)]
        fibers += [f"R{i + 1}" for i in range(params.w)]
        return tuple(secs), tuple(fibers)


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
    sec_ids, fiber_ids = problem.draw_ids
    if problem.family is Family.APRIME:
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


def exempt_nodes(config: ResolvedConfiguration) -> frozenset[tuple[str, str, int]]:
    """Nodes excused from the good-residue requirement: the chain interiors
    and fiber-chain crossings of APRIME's paired tangencies, whose residue
    is structurally q - 1."""
    if config.params.family is not Family.APRIME:
        return frozenset()
    out: set[tuple[str, str, int]] = set()
    for tang in config.tangencies:
        if not tang.paired:
            continue
        out.add((tang.fiber, tang.chain[0], 1))
        for k in range(len(tang.chain) - 1):
            out.add((tang.chain[k], tang.chain[k + 1], 1))
    return frozenset(out)


def residue_rule(
    config: ResolvedConfiguration, q: int
) -> Callable[[tuple[str, str, int]], bytes]:
    """The residues each node may carry at q, as a function of the node
    returning a q-byte table (byte a is 1 when a is allowed): only the full
    turn q - 1 at an exempt node, the good set elsewhere."""
    good = good_table(q, 1)
    exempt = exempt_nodes(config)
    full_turn = bytes(q - 1) + b"\x01"
    return lambda node: full_turn if node in exempt else good


@dataclass(frozen=True)
class AsymptoticReport:
    ok: bool
    bad_nodes: tuple[tuple[tuple[str, str, int], int], ...]  # (node, residue)
    exempt_count: int


def verify_asymptotic(config: ResolvedConfiguration, assign: BranchAssignment) -> AsymptoticReport:
    """Check every node residue against `residue_rule`."""
    allowed = residue_rule(config, assign.q)
    bad = tuple((node, a) for node, a in assign.residues(config) if not allowed(node)[a])
    exempt_count = sum(node[2] for node in exempt_nodes(config))
    return AsymptoticReport(ok=not bad, bad_nodes=bad, exempt_count=exempt_count)


def sample_with_stats(
    problem: PartitionProblem, seed: int, max_tries: int = 200
) -> tuple[BranchAssignment | NotFound, int]:
    """Seeded retry loop; deterministic per-try generators keyed off
    (seed, try index) so any scheduling of tries reproduces the result.
    Returns (result, tries used)."""
    zero_hits = 0
    fewest_bad: int | None = None
    worst_node = None
    allowed = residue_rule(problem.config, problem.q)
    tables = [allowed(node) for node in problem.config.nodes]
    for t in range(max_tries):
        rng = random.Random(f"{seed}:{t}")
        base = _draw_base(problem, rng)
        try:
            assign = BranchAssignment.from_base(problem.config, problem.q, base)
        except InvalidAssignmentError:
            zero_hits += 1
            continue
        bad = [node for (node, a), table in zip(assign.residues(problem.config), tables)
               if not table[a]]
        if not bad:
            return assign, t + 1
        if fewest_bad is None or len(bad) < fewest_bad:
            fewest_bad = len(bad)
            worst_node = bad[0]
    nf = NotFound(tries=max_tries, zero_hits=zero_hits, fewest_bad=fewest_bad, worst_node=worst_node)
    return nf, max_tries


def _section_steps(problem: PartitionProblem):
    """Phase-1 variable order for the backtracking search: the section-type
    unknowns. Each step is (kind, comps) with kind in:
      "x"     -- one weighted section unknown (families A0/A)
      "xlast" -- same, but also reveals the derived negative section
      "a"     -- one APRIME pair unknown a_i (sets S_{2i-1}, S_{2i})
      "alast" -- forced final pair unknown
    """
    sec_ids, _ = problem.draw_ids
    if problem.family is Family.APRIME:
        pairs = list(zip(sec_ids[0::2], sec_ids[1::2]))
        return [("a", pair) for pair in pairs[:-1]] + [("alast", pairs[-1])]
    *x_comps, neg = sec_ids
    return [("x", (comp,)) for comp in x_comps[:-1]] + [("xlast", (x_comps[-1], neg))]


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
    of v share one evaluation of the node residue at every v.
    """

    def __init__(self, q: int) -> None:
        self.q = q
        self.full = (1 << q) - 1
        self._inv = [0] + [pow(v, -1, q) for v in range(1, q)]
        self._neg_inv = [(q - x) % q for x in self._inv]
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

    def _evaluate(self, allowed: bytes, a1: int, b1: int, a2: int, b2: int) -> int:
        q = self.q
        neg_inv = self._neg_inv
        # the residue -m_j/m_i at every v; neg_inv[0] = 0 sends a vanishing
        # first end to residue 0, which no rule allows
        bits = bytearray(map(allowed.__getitem__, [
            (a2 * v + b2) * neg_inv[(a1 * v + b1) % q] % q for v in range(q)
        ]))
        if a1:
            zeros = ((q - b1) * self._inv[a1] % q,)
        else:
            zeros = range(q) if b1 == 0 else ()
        for v in zeros:
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
    depth-first search over the few section unknowns: entering a step, it
    intersects the images of the section-section nodes the step completes,
    clears the values at which a node end vanishes, and tries the step's
    candidates against that mask. Phase 2 intersects, per fiber, the images
    of that fiber's nodes, keeps values 1..cap with nonzero chain
    multiplicities, and solves the remaining sum constraint by a bitset
    subset-sum sweep over the fibers.

    One attempt is one phase-1 candidate tried (passing or not) or one
    phase-2 node image intersected; each of 8 seeded restarts gets a slice
    of `node_budget` attempts. The seed only permutes value orders, so
    identical (problem, seed) yields identical output. Returns NotFound
    with the number of attempts if the budget runs out or the search space
    is exhausted.
    """
    cfg = problem.config
    params = cfg.params
    q = problem.q
    allowed = residue_rule(cfg, q)
    images = NodeImages(q)
    steps = _section_steps(problem)
    n_steps = len(steps)
    weight = params.e * params.chain_length

    pos: dict[str, int] = {}
    for idx, (_, comps) in enumerate(steps):
        for comp in comps:
            pos[comp] = idx

    # Fiber-type components (special fibers and general fibers alike).
    fiber_ids = [c.cid for c in cfg.components if c.kind in ("fiber", "general_fiber")]
    chain_of: dict[str, tuple] = {}
    fiber_of_chain: dict[str, str] = {}
    for tang in cfg.tangencies:
        for k, gc in enumerate(tang.chain, start=1):
            chain_of[gc] = (tang, k)
            fiber_of_chain[gc] = tang.fiber

    def fiber_touched(comp: str) -> str | None:
        if comp in fiber_of_chain:
            return fiber_of_chain[comp]
        if comp in fiber_ids:
            return comp
        return None

    # Split nodes: section-section ones are checkable during phase 1 (staged
    # by the later of the two section steps); every other node involves
    # exactly one fiber and joins that fiber's phase-2 constraint set. Each
    # is kept as (allowed-residue table, first end, second end).
    stage_nodes: list[list[tuple[bytes, str, str]]] = [[] for _ in range(n_steps)]
    fiber_nodes: dict[str, list[tuple[bytes, str, str]]] = {f: [] for f in fiber_ids}
    for node in cfg.nodes:
        i, j, _count = node
        touched = {f for f in (fiber_touched(i), fiber_touched(j)) if f is not None}
        if not touched:
            stage_nodes[max(pos[i], pos[j])].append((allowed(node), i, j))
        else:
            assert len(touched) == 1, "node touching two distinct fibers"
            fiber_nodes[touched.pop()].append((allowed(node), i, j))
    chains_of_fiber: dict[str, list[str]] = {f: [] for f in fiber_ids}
    for gc, f in fiber_of_chain.items():
        chains_of_fiber[f].append(gc)

    attempts = 0
    budget_cap = 0
    orders: list[list[int]] = [[] for _ in range(n_steps)]

    n_sec = n_steps
    n_y = len(fiber_ids)

    def _linear_form(comp: str, nu: dict[str, int]) -> tuple[int, int]:
        """Value of `comp` as alpha*v + beta in the active fiber's unknown v."""
        entry = chain_of.get(comp)
        if entry is not None:
            tang, k = entry
            a, b = tang.sections
            return 1, (k * (nu[a] + nu[b])) % q
        if comp in fiber_nodes:
            return 1, 0
        return 0, nu[comp] % q

    def solve_fibers(nu: dict[str, int], xsum: int) -> dict[str, int] | None:
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
        target = q if problem.family is Family.APRIME else q - weight * xsum
        if target < n_y:
            return None
        cap = min(target - (n_y - 1), q - 1)
        window = ((1 << cap) - 1) << 1  # values 1..cap
        feasible: list[int] = []
        for f in fiber_ids:
            sol = images.full
            for rule, i, j in fiber_nodes[f]:
                attempts += 1
                if attempts > budget_cap:
                    return None
                sol &= images(rule, *_linear_form(i, nu), *_linear_form(j, nu))
                if not sol:
                    return None
            sol &= window
            # multiplicities along the chain must stay nonzero
            for gc in chains_of_fiber[f]:
                sol &= ~(1 << (-_linear_form(gc, nu)[1] % q))
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

    nu: dict[str, int] = {}

    def stage_mask(idx: int, xsum: int) -> int:
        """Step values passing every section-section node the step completes.

        No node end vanishes at a candidate: candidates lie in 1..q-1,
        those of an "xlast" step skip the value zeroing S_{d+1}, and earlier
        sections carry values in 1..q-1. So the images alone decide.
        """
        kind, comps = steps[idx]
        forms = {comps[0]: (1, 0)}
        if kind == "xlast":
            forms[comps[1]] = (q - 1, (q - xsum) % q)
        elif kind in ("a", "alast"):
            forms[comps[1]] = (q - 1, 0)
        mask = images.full
        for rule, i, j in stage_nodes[idx]:
            a1, b1 = forms.get(i) or (0, nu[i])
            a2, b2 = forms.get(j) or (0, nu[j])
            mask &= images(rule, a1, b1, a2, b2)
        return mask

    def dfs(idx: int, xsum: int, asum: int) -> dict[str, int] | None:
        nonlocal attempts
        if idx == n_sec:
            return solve_fibers(nu, xsum)
        kind, comps = steps[idx]
        if kind == "x":
            hi = (q - weight * (xsum + n_sec - idx - 1) - n_y) // weight
            candidates = (v for v in orders[idx] if v <= hi)
        elif kind == "xlast":
            hi = (q - weight * (xsum + n_sec - idx - 1) - n_y) // weight
            candidates = (v for v in orders[idx] if v <= hi and (q - xsum - v) % q != 0)
        elif kind == "a":
            hi = q - asum - (n_sec - idx - 1)
            candidates = (v for v in orders[idx] if v <= hi)
        else:  # alast
            forced = q - asum
            candidates = (forced,) if 1 <= forced <= q - 1 else ()
        mask = stage_mask(idx, xsum)
        for v in candidates:
            attempts += 1
            if attempts > budget_cap:
                return None
            if not (mask >> v) & 1:
                continue
            if kind in ("x", "xlast"):
                nu[comps[0]] = v
                if kind == "xlast":
                    nu[comps[1]] = (q - xsum - v) % q
                nxt = (xsum + v, asum)
            else:
                nu[comps[0]] = v
                nu[comps[1]] = q - v
                nxt = (xsum, asum + v)
            ys = dfs(idx + 1, *nxt)
            if ys is not None:
                return ys
            if attempts > budget_cap:
                return None
            for comp in comps:
                nu.pop(comp, None)
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
        for i in range(n_steps):
            orders[i] = rng.sample(range(1, q), q - 1)
        budget_cap = min(node_budget, attempts + slice_budget)
        nu.clear()
        ys = dfs(0, 0, 0)
        if ys is not None or attempts >= node_budget:
            break
    if ys is not None:
        nu.update(ys)
        return BranchAssignment.from_base(cfg, q, dict(nu))
    return NotFound(tries=attempts, zero_hits=0, fewest_bad=None, worst_node=None)


def count_estimate(problem: PartitionProblem) -> float:
    """Leading term of the number of positive solutions as q grows."""
    params = problem.config.params
    q = problem.q
    if problem.family is Family.APRIME:
        l, delta = params.l, params.delta
        log_count = (
            (l - 1) * math.log(q) - math.lgamma(l)
            + (delta - 1) * math.log(q) - math.lgamma(delta)
        )
        return math.exp(log_count)
    n = params.d + params.u + params.delta + params.w
    weight = params.e * params.chain_length
    log_count = (n - 1) * math.log(q) - math.lgamma(n) - (params.d + params.u) * math.log(weight)
    return math.exp(log_count)
