"""Arrangements of sections and fibers on ruled surfaces, and their log
resolutions.

`build_resolution` produces the full combinatorial model of the resolved
pair (components with self-intersections and genera, nodes with
multiplicities, tangency chains) and records its structure: the section
and fiber ids in draw order, the fiber each node touches and the exempt
nodes. `log_chern_pair` evaluates the log Chern numbers from that census,
and `log_chern_closed`, `component_count` and `node_count` evaluate the
closed forms. Census and closed forms must agree exactly, and the test
suite insists on it.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations

from .numtheory import is_prime


class DegenerateParameterError(ValueError):
    """Raised when a parameter choice makes a denominator vanish."""


class Family(str, enum.Enum):
    A0 = "A0"          # d tangent sections + negative section + special fibers
    A = "A"            # A0 plus u extra sections and w general fibers
    APRIME = "APRIME"  # d = 2l paired tangent sections, no negative section


@dataclass(frozen=True)
class ArrangementParams:
    """Parameters (p, r, e, d, g, u, w) of one arrangement family.

    p^r is the tangency multiplicity of each pair of sections; e the number
    of tangency points per pair; d the number of tangent sections (even,
    d = 2l, for APRIME); g the base-curve genus; u and w count the extra
    sections/general fibers of family A.
    """

    family: Family
    p: int
    r: int
    e: int
    d: int
    g: int = 0
    u: int = 0
    w: int = 0

    def __post_init__(self) -> None:
        fam = Family(self.family)
        object.__setattr__(self, "family", fam)
        if not is_prime(self.p):
            raise DegenerateParameterError(f"p must be prime, got {self.p}")
        if self.r < 1 or self.e < 1 or self.g < 0 or self.u < 0 or self.w < 0:
            raise DegenerateParameterError("need r, e >= 1 and g, u, w >= 0")
        if fam is Family.APRIME:
            if self.d < 4 or self.d % 2:
                raise DegenerateParameterError("APRIME needs even d >= 4")
            if self.g or self.u or self.w:
                raise DegenerateParameterError("APRIME has g = u = w = 0")
        else:
            if self.d < 3:
                raise DegenerateParameterError("need d >= 3")
            if fam is Family.A0 and (self.u or self.w):
                raise DegenerateParameterError("A0 has u = w = 0")

    @property
    def chain_length(self) -> int:
        """Length p^r of the exceptional chain over each tangency point."""
        return self.p**self.r

    @property
    def l(self) -> int:
        if self.family is not Family.APRIME:
            raise DegenerateParameterError("l = d/2 only makes sense for APRIME")
        return self.d // 2

    @property
    def delta(self) -> int:
        """Number of tangency points: e per pair of tangent sections."""
        return self.e * self.d * (self.d - 1) // 2

    @property
    def upsilon(self) -> int:
        """Node/genus bookkeeping correction of family A over A0.

        u(u-1)e p^r/2 section crossings among the new sections, u*d*e*p^r
        with the old ones, u*delta fiber crossings, 2(g-1)u genus terms and
        w(u+d-1) crossings of each general fiber with the d+1 old and u new
        sections minus its own genus deficit.
        """
        if self.family is Family.A0:
            return 0
        em = self.e * self.chain_length
        return (
            self.u * (self.u - 1) * em // 2
            + self.u * self.d * em
            + self.u * self.delta
            + 2 * (self.g - 1) * self.u
            + self.w * (self.u + self.d - 1)
        )


@dataclass(frozen=True)
class Component:
    cid: str
    kind: str  # section | negative_section | fiber | general_fiber | exceptional
    self_int: int
    genus: int


@dataclass(frozen=True)
class Tangency:
    """One resolved tangency point: two sections, the fiber through it and
    the exceptional chain, ordered from the fiber end to the section end."""

    sections: tuple[str, str]
    fiber: str
    chain: tuple[str, ...]


@dataclass(frozen=True)
class ResolvedConfiguration:
    """The census, plus its structure as `build_resolution` records it:
    consumers read these fields instead of working them out from ids."""

    components: tuple[Component, ...]
    nodes: tuple[tuple[str, str, int], ...]  # unordered id pair, multiplicity
    tangencies: tuple[Tangency, ...]
    c1sq_ambient: int
    c2_ambient: int
    params: ArrangementParams
    # S1..Sd, H1..Hu and last the negative section S_{d+1} of A0/A
    section_ids: tuple[str, ...]
    fiber_ids: tuple[str, ...]  # F1..F_delta, then R1..Rw
    node_fibers: tuple[str | None, ...]  # per node, the fiber it touches, if any
    # APRIME's paired tangencies: the fiber-chain node and the chain links,
    # whose residue is structurally the full turn q - 1
    exempt_nodes: frozenset[tuple[str, str, int]]

    @property
    def t2(self) -> int:
        return sum(count for _, _, count in self.nodes)

    @cached_property
    def base_ids(self) -> tuple[str, ...]:
        """Ids of the components that take a base multiplicity (all but the
        exceptional chain curves), in component order."""
        return tuple(c.cid for c in self.components if c.kind != "exceptional")

    @cached_property
    def chain_position(self) -> dict[str, tuple[Tangency, int]]:
        """Each chain curve's tangency and position k, 1 at the fiber end."""
        return {gid: (tang, k) for tang in self.tangencies
                for k, gid in enumerate(tang.chain, start=1)}


def build_resolution(params: ArrangementParams) -> ResolvedConfiguration:
    """Explicit component/node census of the minimal log resolution.

    Over each tangency point the p^r blow-ups leave a chain
    G_1, .., G_{p^r} with self-intersections -2, .., -2, -1; the fiber
    strict transform meets G_1 (one blow-up drop, so F^2 = -1), the two
    sections pass through every centre and end on G_{p^r}.
    """
    m = params.chain_length
    em = params.e * m
    d, g, u, w = params.d, params.g, params.u, params.w
    comps: list[Component] = []
    nodes: list[tuple[str, str, int]] = []
    tangs: list[Tangency] = []
    node_fibers: list[str | None] = []
    exempt: set[tuple[str, str, int]] = set()

    def touching(fiber: str | None) -> None:
        """Record `fiber` for the nodes appended since the last call."""
        node_fibers.extend([fiber] * (len(nodes) - len(node_fibers)))

    sec_ids = [f"S{i}" for i in range(1, d + 1)]
    sec_self = em - (d - 1) * em
    for sid in sec_ids:
        comps.append(Component(sid, "section", sec_self, g))
    has_neg = params.family is not Family.APRIME
    neg_id = f"S{d + 1}"
    if has_neg:
        comps.append(Component(neg_id, "negative_section", -em, g))
    h_ids = [f"H{i}" for i in range(1, u + 1)]
    for hid in h_ids:
        comps.append(Component(hid, "section", em, g))
    r_ids = [f"R{i}" for i in range(1, w + 1)]
    for rid in r_ids:
        comps.append(Component(rid, "general_fiber", 0, 0))

    t = 0
    for i, j in combinations(range(1, d + 1), 2):
        for _ in range(params.e):
            t += 1
            fid = f"F{t}"
            comps.append(Component(fid, "fiber", -1, 0))
            chain = tuple(f"G{t}.{k}" for k in range(1, m + 1))
            for k, gid in enumerate(chain, start=1):
                comps.append(Component(gid, "exceptional", -1 if k == m else -2, 0))
            sa, sb = f"S{i}", f"S{j}"
            nodes.append((sa, chain[-1], 1))
            nodes.append((sb, chain[-1], 1))
            links = [(fid, chain[0], 1)] + [(chain[k], chain[k + 1], 1) for k in range(m - 1)]
            nodes += links
            # the fiber crosses every section not tangent at this point
            for k in range(1, d + 1):
                if k not in (i, j):
                    nodes.append((fid, f"S{k}", 1))
            if has_neg:
                nodes.append((fid, neg_id, 1))
            for hid in h_ids:
                nodes.append((fid, hid, 1))
            touching(fid)
            # APRIME pairs S_{2i-1}, S_{2i} share one ruling class
            if params.family is Family.APRIME and i % 2 == 1 and j == i + 1:
                exempt.update(links)
            tangs.append(Tangency((sa, sb), fid, chain))
    assert t == params.delta

    for a_idx, hid in enumerate(h_ids):
        for sid in sec_ids:
            nodes.append((hid, sid, em))
        for other in h_ids[a_idx + 1:]:
            nodes.append((hid, other, em))
    touching(None)
    for rid in r_ids:
        for sid in sec_ids:
            nodes.append((rid, sid, 1))
        if has_neg:
            nodes.append((rid, neg_id, 1))
        for hid in h_ids:
            nodes.append((rid, hid, 1))
        touching(rid)

    n_blowups = params.delta * m
    return ResolvedConfiguration(
        components=tuple(comps),
        nodes=tuple(nodes),
        tangencies=tuple(tangs),
        c1sq_ambient=8 * (1 - g) - n_blowups,
        c2_ambient=4 * (1 - g) + n_blowups,
        params=params,
        section_ids=tuple(sec_ids + h_ids + ([neg_id] if has_neg else [])),
        fiber_ids=tuple([tang.fiber for tang in tangs] + r_ids),
        node_fibers=tuple(node_fibers),
        exempt_nodes=frozenset(exempt),
    )


def log_chern_pair(config: ResolvedConfiguration) -> tuple[int, int]:
    """(c1bar^2, c2bar) of the resolved pair, straight from the census."""
    sum_sq = sum(c.self_int for c in config.components)
    sum_g = sum(c.genus - 1 for c in config.components)
    t2 = config.t2
    c1b = config.c1sq_ambient - sum_sq + 2 * t2 + 4 * sum_g
    c2b = config.c2_ambient + t2 + 2 * sum_g
    return c1b, c2b


def log_chern_closed(params: ArrangementParams) -> tuple[int, int, Fraction]:
    """(c1bar^2, c2bar, limiting slope) from the closed forms.

    For families A0/A the limiting slope is c1bar^2 / c2bar. For APRIME the
    l*e*p^r chain points of the paired sections acquire full-turn residues,
    which shifts the limit to c1bar^2 / (c2bar + l*e*p^r).
    """
    m = params.chain_length
    em = params.e * m
    d, g, delta = params.d, params.g, params.delta
    if params.family is Family.APRIME:
        c1b = 8 - 4 * d + d * em * (d - 2) + delta * (2 * d - 4 - m)
        c2b = (d - 2) * (delta - 2)
        denom = c2b + params.l * em
        if denom == 0:
            raise DegenerateParameterError("degenerate slope denominator")
        return c1b, c2b, Fraction(c1b, denom)

    c1b = (d - 1) * (2 * delta + 4 * (g - 1) - em) + m * delta
    c2b = (d - 1) * (2 * (g - 1) + delta)
    if params.family is Family.A:
        ups = params.upsilon
        c1b += -em * params.u + 2 * ups
        c2b += ups
    if c2b == 0:
        raise DegenerateParameterError("degenerate slope denominator")
    return c1b, c2b, Fraction(c1b, c2b)


def component_count(params: ArrangementParams) -> int:
    """Closed form of `len(build_resolution(params).components)`: the d
    tangent sections, the negative section of A0/A, the u extra sections,
    the w general fibers, and over each of the delta tangency points its
    fiber and its chain of p^r curves."""
    sections = params.d + (params.family is not Family.APRIME) + params.u
    return sections + params.w + params.delta * (1 + params.chain_length)


def node_count(params: ArrangementParams) -> int:
    """Closed form of the census node count `build_resolution(params).t2`.

    Each of the delta tangency points has m = p^r chain nodes (fiber-G_1
    and G_k-G_{k+1}) and one node per section: the two tangent ones on
    G_m, and the fiber's crossings with the other d - 2, the negative
    section of A0/A and the u extra ones. The extra sections meet the d
    tangent sections and each other with multiplicity e*m, and each
    general fiber crosses every section once.
    """
    m = params.chain_length
    d, u, w = params.d, params.u, params.w
    sections = d + (params.family is not Family.APRIME) + u
    return (params.delta * (m + sections)
            + params.e * m * (u * d + u * (u - 1) // 2)
            + w * sections)


def limit_slope(params: ArrangementParams) -> Fraction:
    return log_chern_closed(params)[2]
