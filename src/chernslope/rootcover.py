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
from typing import Iterator, Mapping

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
        chains: over a tangency with section multiplicities a, b and fiber
        multiplicity y, the k-th chain curve carries k(a + b) + y mod q.
        `base` must name exactly the base components."""
        nus: dict[str, int] = {}
        for cid in config.base_ids:
            if cid not in base:
                raise InvalidAssignmentError(f"no multiplicity given for {cid}")
            nu = base[cid] % q
            if nu == 0:
                raise InvalidAssignmentError(f"nu({cid}) = 0 mod {q}")
            nus[cid] = nu
        if len(base) != len(nus):  # chain multiplicities are derived, not given
            unknown = next(cid for cid in base if cid not in nus)
            raise InvalidAssignmentError(f"{unknown} is not a base component")
        for tang in config.tangencies:
            s = (nus[tang.sections[0]] + nus[tang.sections[1]]) % q
            y = nus[tang.fiber]
            for k, gid in enumerate(tang.chain, start=1):
                nu = (k * s + y) % q
                if nu == 0:
                    raise InvalidAssignmentError(f"nu({gid}) = 0 mod {q}")
                nus[gid] = nu
        return cls(q=q, nus=nus)

    def residues(self, config: ResolvedConfiguration) -> Iterator[tuple[tuple[str, str, int], int]]:
        """(node, residue) for every node of the configuration, in node
        order and computed as the iterator is consumed. The residue of a
        node (i, j) is the unique 0 < a < q with nu_i * a + nu_j = 0 (mod q),
        that is nu_j * (q - nu_i^-1) mod q, with q - nu^-1 memoised by
        multiplicity. Swapping the ends replaces a by its inverse mod q,
        which leaves the node invariants c and l unchanged."""
        q = self.q
        if not is_prime(q):
            raise DomainError(f"q must be prime, got {q}")
        neg_inv = NegatedInverses(q)
        nus = self.nus
        return ((node, nus[node[1]] * neg_inv[nus[node[0]]] % q) for node in config.nodes)


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

    # q*c(a, q) = 12q*s(a, q) + q*l(a, q) is an integer, so the c-correction
    # is an integer sum over q and c1^2 is one Fraction over q
    c = {a: d.c for a, d in data.items()}
    qc_corr = sum(c[a].numerator * (q // c[a].denominator) * n for a, n in counts.items())
    l_corr = sum(data[a].length * n for a, n in counts.items())

    c1sq_x = Fraction((c1b * q + 2 * (c2 - c2b)) * q + c1 - c1b + 2 * c2b - 2 * c2 - qc_corr, q)
    c2_x = Fraction(c2b * q + (c2 - c2b) + l_corr)
    if c2_x == 0:
        raise InvalidAssignmentError("cover has vanishing c2")
    chi = (c1sq_x + c2_x) / 12
    if chi.denominator != 1:
        # Noether's formula: a library bug, not bad input
        raise RuntimeError(f"c1^2 + c2 = {c1sq_x + c2_x} is not divisible by 12 at q = {q}")

    sings = tuple(
        SingularityRecord(node=node, a=a, hj_digits=data[a].digits, c=c[a], l=data[a].length)
        for node, a in residues
    )
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
