"""Chern numbers of q-th root covers branched along a resolved arrangement.

A branch assignment attaches a multiplicity in {1, .., q-1} to every
component; the cover's Chern numbers are the degree-q leading terms of the
log Chern numbers corrected by one Dedekind-sum/length contribution per
node. The residue of a node is determined by the two multiplicities
meeting there.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .geometry import ResolvedConfiguration, log_chern_pair
from .numtheory import DomainError, ceil_isqrt, dedekind_data, is_prime


class InvalidAssignmentError(ValueError):
    """A multiplicity collapsed to 0 mod q, or fell outside {1, .., q-1}."""


class NegatedInverses(dict):
    """q - nu^-1 mod q by multiplicity nu, computed on first lookup."""

    def __init__(self, q: int) -> None:
        super().__init__()
        self.q = q

    def __missing__(self, nu: int) -> int:
        value = self[nu] = self.q - pow(nu, -1, self.q)
        return value


def node_residues(nodes: Iterable[tuple[str, str, int]], nus: Mapping[str, int],
                  neg_inv: NegatedInverses) -> Iterator[tuple[tuple[str, str, int], int]]:
    """(node, residue) for each node, in order and computed as the iterator
    is consumed. The residue of a node (i, j) is the unique 0 < a < q with
    nu_i * a + nu_j = 0 (mod q), that is nu_j * (q - nu_i^-1) mod q, with
    q = neg_inv.q. Swapping the ends replaces a by its inverse mod q, which
    leaves the node invariants c and l unchanged."""
    q = neg_inv.q
    return ((node, nus[node[1]] * neg_inv[nus[node[0]]] % q) for node in nodes)


class ChainRoots(dict):
    """The least root k >= 1 of k*s + y = 0 (mod q) in closed form, by s.

    With g = gcd(s, q) and m = q/g, the equation has a root exactly when g
    divides y, and then its least root is (y/g)*t mod m, where
    t = -(s/g)^-1 mod m; self[s] = (g, t, m), computed on first lookup. At
    s = 0, g = q divides no y that is nonzero mod q: there is no root. At
    prime q and s != 0, g = 1 and the root is -y * s^-1 mod q.
    """

    def __init__(self, q: int) -> None:
        super().__init__()
        self.q = q

    def __missing__(self, s: int) -> tuple[int, int, int]:
        g = math.gcd(s, self.q)
        m = self.q // g
        value = self[s] = (g, -pow(s // g, -1, m) % m, m)
        return value


class ChainMultiplicities(dict):
    """Every component's multiplicity from those of the base components.

    Over a tangency with section multiplicities a, b and fiber multiplicity
    y, the k-th chain curve carries k*s + y mod q, s = a + b; it is computed
    on first lookup. Building the mapping checks the base (every base
    component given, none 0 mod q, nothing else) and reads each tangency's
    s and y once: its chain of n curves collapses exactly when the least
    root k of k*s + y = 0 (mod q) (`ChainRoots`) is at most n, and
    InvalidAssignmentError then names the first such curve. The root is
    looked up only when y + n*s >= q: below that, no k*s + y reaches q. So
    no chain multiplicity is computed before it is read, and a draw
    rejected at its first nodes costs O(tangencies), not O(components).
    """

    __slots__ = ("q", "_position", "_ends")

    def __init__(self, config: ResolvedConfiguration, q: int, base: Mapping[str, int],
                 roots: ChainRoots | None = None) -> None:
        super().__init__({cid: base.get(cid, 0) % q for cid in config.base_ids})
        if 0 in self.values():
            cid = next(cid for cid, nu in self.items() if nu == 0)
            if cid not in base:
                raise InvalidAssignmentError(f"no multiplicity given for {cid}")
            raise InvalidAssignmentError(f"nu({cid}) = 0 mod {q}")
        if len(base) != len(self):  # chain multiplicities are derived, not given
            unknown = next(cid for cid in base if cid not in self)
            raise InvalidAssignmentError(f"{unknown} is not a base component")
        if roots is None:
            roots = ChainRoots(q)
        self.q = q
        self._position = config.chain_position
        self._ends = ends = {}  # (s, y) by the tangency's fiber
        for tang in config.tangencies:
            a, b = tang.sections
            s = (self[a] + self[b]) % q
            fiber = tang.fiber
            y = self[fiber]
            n = len(tang.chain)
            if y + n * s >= q:  # else every k*s + y, k <= n, lies in (0, q)
                g, t, m = roots[s]
                if not y % g and (k := y // g * t % m) <= n:
                    raise InvalidAssignmentError(f"nu({tang.chain[k - 1]}) = 0 mod {q}")
            ends[fiber] = (s, y)

    def __missing__(self, gid: str) -> int:
        tang, k = self._position[gid]
        s, y = self._ends[tang.fiber]
        nu = self[gid] = (k * s + y) % self.q
        return nu


@dataclass(frozen=True)
class BranchAssignment:
    """Multiplicities for every component of a configuration, mod q."""

    q: int
    nus: Mapping[str, int]

    def __post_init__(self) -> None:
        for cid, nu in self.nus.items():
            if not 0 < nu < self.q:
                raise InvalidAssignmentError(f"nu({cid}) = {nu} not in (0, {self.q})")
        object.__setattr__(self, "nus", MappingProxyType(dict(self.nus)))

    @classmethod
    def from_base(
        cls, config: ResolvedConfiguration, q: int, base: Mapping[str, int]
    ) -> "BranchAssignment":
        """Extend multiplicities on the non-exceptional components to the
        chains (`ChainMultiplicities`). `base` must name exactly the base
        components."""
        nus = ChainMultiplicities(config, q, base)
        return cls(q=q, nus={**nus, **{gid: nus[gid] for gid in config.chain_position}})

    def residues(self, config: ResolvedConfiguration) -> Iterator[tuple[tuple[str, str, int], int]]:
        """`node_residues` of every node of the configuration, in node order."""
        if not is_prime(self.q):
            raise DomainError(f"q must be prime, got {self.q}")
        return node_residues(config.nodes, self.nus, NegatedInverses(self.q))


@dataclass(frozen=True)
class SingularityRecord:
    node: tuple[str, str, int]
    a: int
    hj_digits: tuple[int, ...]
    c: Fraction
    l: int


@dataclass(frozen=True)
class CoverInvariants:
    q: int
    c1sq: Fraction
    c2: Fraction
    chi: Fraction
    slope: Fraction
    c_correction: Fraction  # sum over nodes of c(a, q) * multiplicity
    l_correction: int       # sum over nodes of l(a, q) * multiplicity
    defect_bound: int | None
    singularities: tuple[SingularityRecord, ...]


def defect_bound(q: int, t2: int) -> int:
    """(6 ceil(sqrt(q)) + 7) * t2, the conservative node-correction cap."""
    if q < 17:
        raise DomainError(f"defect bound needs q >= 17, got {q}")
    return (6 * ceil_isqrt(q) + 7) * t2


def chern_of_cover(config: ResolvedConfiguration, assign: BranchAssignment) -> CoverInvariants:
    q = assign.q
    c1b, c2b = log_chern_pair(config)
    c1, c2 = config.c1sq_ambient, config.c2_ambient

    residues = list(assign.residues(config))
    counts = Counter()
    for node, a in residues:
        counts[a] += node[2]
    data = {a: dedekind_data(q, a) for a in counts}

    # q*c(a, q) = 12q*s(a, q) + q*l(a, q) is an integer (the denominator of
    # s divides 12q), so the c-correction is an integer sum over q and c1^2
    # is one Fraction over q
    qc = {a: d.s.numerator * (12 * q // d.s.denominator) + q * d.length for a, d in data.items()}
    qc_corr = sum(qc[a] * n for a, n in counts.items())
    l_corr = sum(data[a].length * n for a, n in counts.items())

    c1sq_x = Fraction((c1b * q + 2 * (c2 - c2b)) * q + c1 - c1b + 2 * c2b - 2 * c2 - qc_corr, q)
    c2_x = Fraction(c2b * q + (c2 - c2b) + l_corr)
    if c2_x == 0:
        raise InvalidAssignmentError("cover has vanishing c2")
    chi = (c1sq_x + c2_x) / 12
    if chi.denominator != 1:
        # Noether's formula: a library bug, not bad input
        raise RuntimeError(f"c1^2 + c2 = {c1sq_x + c2_x} is not divisible by 12 at q = {q}")

    # a record's digits, c and l, built once per distinct residue
    fields = {a: (d.digits, Fraction(qc[a], q), d.length) for a, d in data.items()}
    sings = tuple(SingularityRecord(node, a, *fields[a]) for node, a in residues)
    bound = defect_bound(q, config.t2) if q >= 17 else None
    return CoverInvariants(
        q=q,
        c1sq=c1sq_x,
        c2=c2_x,
        chi=chi,
        slope=c1sq_x / c2_x,
        c_correction=Fraction(qc_corr, q),
        l_correction=l_corr,
        defect_bound=bound,
        singularities=sings,
    )
