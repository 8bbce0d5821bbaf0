"""Chern numbers of q-th root covers branched along a resolved arrangement.

A branch assignment attaches a multiplicity in {1, .., q-1} to every
component; the cover's Chern numbers are the degree-q leading terms of the
log Chern numbers corrected by one Dedekind-sum/length contribution per
node. The residue of a node is determined by the two multiplicities
meeting there.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .geometry import ResolvedConfiguration, log_chern_pair
from .numtheory import DomainError, ceil_isqrt, check_prime_q, dedekind_data


class InvalidAssignmentError(ValueError):
    """A base multiplicity missing, unknown or 0 mod q, or a chain multiplicity 0 mod q."""


class NegatedInverses(dict):
    """q - nu^-1 mod q by nu at a prime q, computed on first lookup."""

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


class ChainMultiplicities(dict):
    """Every component's multiplicity from those of the base components.

    The k-th chain curve over a tangency with section multiplicities a, b
    and fiber multiplicity y carries k*s + y mod q, s = a + b, computed on
    first lookup. Building the mapping checks the base (every base
    component given, none 0 mod q, nothing else) and reads each tangency's
    s and y once. At prime q (`BranchAssignment.from_base` checks it) its
    chain of n curves collapses exactly when k = y*(q - s^-1) mod q, the one
    root of k*s + y = 0, is at most n. The root is read from `neg_inv`, the
    memo node residues share, only when y + n*s >= q: below that (and at
    s = 0) no k*s + y reaches q. So a rejected draw costs O(tangencies).
    """

    __slots__ = ("q", "_position", "_ends")

    def __init__(self, config: ResolvedConfiguration, base: Mapping[str, int],
                 neg_inv: NegatedInverses) -> None:
        self.q = q = neg_inv.q
        super().__init__({cid: base.get(cid, 0) % q for cid in config.base_ids})
        if 0 in self.values():
            cid = next(cid for cid, nu in self.items() if nu == 0)
            if cid not in base:
                raise InvalidAssignmentError(f"no multiplicity given for {cid}")
            raise InvalidAssignmentError(f"nu({cid}) = 0 mod {q}")
        if len(base) != len(self):  # chain multiplicities are derived, not given
            unknown = next(cid for cid in base if cid not in self)
            raise InvalidAssignmentError(f"{unknown} is not a base component")
        self._position = config.chain_position
        self._ends = ends = {}  # (s, y) by the tangency's fiber
        for tang in config.tangencies:
            a, b = tang.sections
            s = (self[a] + self[b]) % q
            fiber = tang.fiber
            y = self[fiber]
            n = len(tang.chain)
            if y + n * s >= q and (k := y * neg_inv[s] % q) <= n:
                raise InvalidAssignmentError(f"nu({tang.chain[k - 1]}) = 0 mod {q}")
            ends[fiber] = (s, y)

    def __missing__(self, gid: str) -> int:
        tang, k = self._position[gid]
        s, y = self._ends[tang.fiber]
        nu = self[gid] = (k * s + y) % self.q
        return nu


@dataclass(frozen=True)
class BranchAssignment:
    """Multiplicities in {1, .., q-1} for every component, at a prime q != p.
    `from_base` is the one checked constructor; a direct call checks nothing
    (tests use it for assignments the library would refuse)."""

    q: int
    nus: Mapping[str, int]

    @classmethod
    def from_base(
        cls, config: ResolvedConfiguration, q: int, base: Mapping[str, int]
    ) -> "BranchAssignment":
        """Check q, then extend the base multiplicities to the chains
        (`ChainMultiplicities`); `base` must name exactly the base components."""
        check_prime_q(q, config.params.p)
        nus = ChainMultiplicities(config, base, NegatedInverses(q))
        for gid in config.chain_position:  # computes each chain multiplicity
            nus[gid]
        return cls(q, MappingProxyType(dict(nus)))

    def residues(self, config: ResolvedConfiguration) -> Iterator[tuple[tuple[str, str, int], int]]:
        """`node_residues` of every node of the configuration, in node order."""
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
