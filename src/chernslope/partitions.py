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

from .badset import good_residues
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
    q, d, u, w, delta = problem.q, params.d, params.u, params.w, params.delta
    base: dict[str, int] = {}
    if problem.family is Family.APRIME:
        a_parts = [x + 1 for x in _composition(rng, q - params.l, params.l)]
        for i, a in enumerate(a_parts):
            base[f"S{2 * i + 1}"] = a
            base[f"S{2 * i + 2}"] = q - a
        y_parts = [y + 1 for y in _composition(rng, q - delta, delta)]
        for t, y in enumerate(y_parts, start=1):
            base[f"F{t}"] = y
        return base

    weight = params.e * params.chain_length
    n_x, n_y = d + u, delta + w
    slack = q - weight * n_x - n_y
    x_units = rng.randint(0, slack // weight)
    xs = [x + 1 for x in _composition(rng, x_units, n_x)]
    ys = [y + 1 for y in _composition(rng, slack - weight * x_units, n_y)]
    for i in range(d):
        base[f"S{i + 1}"] = xs[i]
    for i in range(u):
        base[f"H{i + 1}"] = xs[d + i]
    # linear equivalence forces the negative section's multiplicity
    base[f"S{d + 1}"] = q - sum(xs)
    for t in range(delta):
        base[f"F{t + 1}"] = ys[t]
    for i in range(w):
        base[f"R{i + 1}"] = ys[delta + i]
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
) -> Callable[[tuple[str, str, int]], frozenset[int]]:
    """The residues each node may carry at q, as a function of the node:
    only the full turn q - 1 at an exempt node, the good set elsewhere."""
    good = good_residues(q, 1)
    exempt = exempt_nodes(config)
    full_turn = frozenset((q - 1,))
    return lambda node: full_turn if node in exempt else good


@dataclass(frozen=True)
class AsymptoticReport:
    ok: bool
    bad_nodes: tuple[tuple[tuple[str, str, int], int], ...]  # (node, residue)
    exempt_count: int


def verify_asymptotic(config: ResolvedConfiguration, assign: BranchAssignment) -> AsymptoticReport:
    """Check every node residue against `residue_rule`."""
    allowed = residue_rule(config, assign.q)
    bad = tuple((node, a) for node, a in assign.residues(config) if a not in allowed(node))
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
    for t in range(max_tries):
        rng = random.Random(f"{seed}:{t}")
        base = _draw_base(problem, rng)
        try:
            assign = BranchAssignment.from_base(problem.config, problem.q, base)
        except InvalidAssignmentError:
            zero_hits += 1
            continue
        bad = [node for node, a in assign.residues(problem.config) if a not in allowed(node)]
        if not bad:
            return assign, t + 1
        if fewest_bad is None or len(bad) < fewest_bad:
            fewest_bad = len(bad)
            worst_node = bad[0]
    nf = NotFound(tries=max_tries, zero_hits=zero_hits, fewest_bad=fewest_bad, worst_node=worst_node)
    return nf, max_tries


def sample_assignment(
    problem: PartitionProblem, seed: int, max_tries: int = 200
) -> BranchAssignment | NotFound:
    return sample_with_stats(problem, seed, max_tries)[0]


def _section_steps(problem: PartitionProblem):
    """Phase-1 variable order for the backtracking search: the section-type
    unknowns. Each step is (kind, comps) with kind in:
      "x"     -- one weighted section unknown (families A0/A)
      "xlast" -- same, but also reveals the derived negative section
      "a"     -- one APRIME pair unknown a_i (sets S_{2i-1}, S_{2i})
      "alast" -- forced final pair unknown
    """
    params = problem.config.params
    steps: list[tuple[str, tuple[str, ...]]] = []
    if problem.family is Family.APRIME:
        for i in range(params.l):
            kind = "alast" if i == params.l - 1 else "a"
            steps.append((kind, (f"S{2 * i + 1}", f"S{2 * i + 2}")))
        return steps
    d, u = params.d, params.u
    x_comps = [f"S{i + 1}" for i in range(d)] + [f"H{i + 1}" for i in range(u)]
    for i, comp in enumerate(x_comps):
        if i == len(x_comps) - 1:
            steps.append(("xlast", (comp, f"S{d + 1}")))
        else:
            steps.append(("x", (comp,)))
    return steps


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
    equation. Phase 1 runs a depth-first search over the few section
    unknowns, checking section-section node residues as soon as both ends
    are fixed. Phase 2 computes, per fiber, the set of values making all
    of that fiber's node residues good (and its exceptional-chain
    multiplicities nonzero), then solves the remaining sum constraint by a
    bitset subset-sum sweep over the fibers. The seed only permutes value
    orders, so identical (problem, seed) yields identical output. Returns
    NotFound with the number of value attempts if the budget runs out.
    """
    cfg = problem.config
    params = cfg.params
    q = problem.q
    allowed = residue_rule(cfg, q)
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
    # exactly one fiber and joins that fiber's phase-2 constraint set.
    stage_nodes: list[list[tuple[str, str, int]]] = [[] for _ in range(n_steps)]
    fiber_nodes: dict[str, list[tuple[str, str, int]]] = {f: [] for f in fiber_ids}
    for node in cfg.nodes:
        i, j, _count = node
        touched = {f for f in (fiber_touched(i), fiber_touched(j)) if f is not None}
        if not touched:
            stage_nodes[max(pos[i], pos[j])].append(node)
        else:
            assert len(touched) == 1, "node touching two distinct fibers"
            fiber_nodes[touched.pop()].append(node)
    chains_of_fiber: dict[str, list[str]] = {f: [] for f in fiber_ids}
    for gc, f in fiber_of_chain.items():
        chains_of_fiber[f].append(gc)

    def node_ok(node, nu: dict[str, int]) -> bool:
        """Residue test of a staged (section-section) node."""
        vi, vj = nu[node[0]], nu[node[1]]
        if vi == 0 or vj == 0:
            return False
        return (-vj * pow(vi, q - 2, q)) % q in allowed(node)

    attempts = 0
    budget_cap = 0
    orders: list[list[int]] = [[] for _ in range(n_steps)]

    n_sec = n_steps
    n_y = len(fiber_ids)

    # Seeded per-fiber value orders for reconstruction (favoring variety).
    orders_y: list[list[int]] = [[] for _ in range(n_y)]
    feasible_sets: list[set[int]] = []

    inv = [0] * q
    if q > 1:
        inv[1] = 1
        for v in range(2, q):
            inv[v] = (q - (q // v) * inv[q % v]) % q

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

        Every multiplicity attached to a fiber (the fiber itself and its
        exceptional chain) is linear in the fiber's unknown v, so each node
        residue constraint pins v to the image of the allowed residue set
        under a Moebius map; intersecting those images gives the fiber's
        feasible values directly. A bitset subset-sum sweep (bit s of
        reach[t] says the first t fibers can sum to s) then decides the
        sum-to-target equation exactly, and a backward walk reconstructs
        one solution in seeded order.
        """
        nonlocal attempts
        feasible_sets.clear()
        target = q if problem.family is Family.APRIME else q - weight * xsum
        if target < n_y:
            return None
        cap = min(target - (n_y - 1), q - 1)
        feasible: list[list[int]] = []
        for f in fiber_ids:
            solutions: set[int] | None = None
            for node in fiber_nodes[f]:
                attempts += 1
                if attempts > budget_cap:
                    return None
                a1, b1 = _linear_form(node[0], nu)
                a2, b2 = _linear_form(node[1], nu)
                sols: set[int] = set()
                vacuous = False
                for a in allowed(node):
                    den = (a * a1 + a2) % q
                    num = (-(a * b1 + b2)) % q
                    if den == 0:
                        if num == 0:
                            vacuous = True
                            break
                        continue
                    sols.add(num * inv[den] % q)
                if vacuous:
                    continue
                solutions = sols if solutions is None else (solutions & sols)
                if not solutions:
                    break
            if solutions is not None and not solutions:
                return None
            # multiplicities along the chain must stay nonzero, and v >= 1
            forbidden = {(-_linear_form(gc, nu)[1]) % q for gc in chains_of_fiber[f]}
            forbidden.add(0)
            if solutions is None:
                vals = [v for v in range(1, cap + 1) if v not in forbidden]
            else:
                vals = sorted(v for v in solutions if 1 <= v <= cap and v not in forbidden)
            if not vals:
                return None
            feasible.append(vals)
            feasible_sets.append(set(vals))
        mask = (1 << (target + 1)) - 1
        reach = [1]
        for vals in feasible:
            cur = reach[-1]
            nxt = 0
            for v in vals:
                nxt |= cur << v
            nxt &= mask
            if nxt == 0:
                return None
            reach.append(nxt)
        if not (reach[-1] >> target) & 1:
            return None
        out: dict[str, int] = {}
        s = target
        for t in range(n_y - 1, -1, -1):
            prev = reach[t]
            chosen = None
            for v in orders_y[t]:
                if v in feasible_sets[t] and v <= s and (prev >> (s - v)) & 1:
                    chosen = v
                    break
            assert chosen is not None
            out[fiber_ids[t]] = chosen
            s -= chosen
        assert s == 0
        return out

    nu: dict[str, int] = {}

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
        for v in candidates:
            attempts += 1
            if attempts > budget_cap:
                return None
            if kind in ("x", "xlast"):
                nu[comps[0]] = v
                if kind == "xlast":
                    nu[comps[1]] = (q - xsum - v) % q
                nxt = (xsum + v, asum)
            else:
                nu[comps[0]] = v
                nu[comps[1]] = q - v
                nxt = (xsum, asum + v)
            if all(node_ok(node, nu) for node in stage_nodes[idx]):
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
    # burn the whole budget.
    restarts = 8
    slice_budget = max(1, node_budget // restarts)
    ys = None
    for restart in range(restarts):
        rng = random.Random(f"search:{seed}:{restart}")
        for i in range(n_steps):
            orders[i] = rng.sample(range(1, q), q - 1)
        for i in range(n_y):
            orders_y[i] = rng.sample(range(1, q), q - 1)
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
