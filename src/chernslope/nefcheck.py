"""Nefness surrogate for the canonical class of the degree-q cover.

Writing M = q*K + (q-1)*D_red on the resolved surface, the canonical class
of the (resolution of the) cover pairs with the relevant curve classes as
(1/q) M . C up to the usual pullback factors. Every entry here is computed
twice when possible: once from the closed forms and once from the
configuration census via adjunction (K.C = 2g - 2 - C^2) plus node
incidences; the two must agree exactly.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .geometry import ArrangementParams, Family, ResolvedConfiguration, build_resolution
from .numtheory import DomainError, check_prime_q, is_prime


def t_value(params: ArrangementParams, q: int) -> Fraction:
    """Coefficient of the general fiber class in M's decomposition."""
    em = params.e * params.chain_length
    d, g, delta = params.d, params.g, params.delta
    if params.family is Family.APRIME:
        return Fraction((q - 1) * (params.l * em + delta) - q * (2 + em))
    return Fraction(delta + params.w + Fraction(d * em, 2), 1) * (q - 1) - q * (2 - 2 * g + em)


def closed_entries(params: ArrangementParams, q: int) -> dict[str, Fraction]:
    """Closed-form intersection values, keyed by curve-class label."""
    check_prime_q(q, params.p)
    em = params.e * params.chain_length
    d, g, u, w, delta = params.d, params.g, params.u, params.w, params.delta
    t = t_value(params, q)
    entries: dict[str, Fraction] = {}
    if params.family is Family.APRIME:
        entries["K.Sbar_i"] = (
            -Fraction((q - 1) * (d - 2) * em, 2) + em * (d - 1) + t
        ) / q
        # the negative section is not part of the branch divisor here, so no 1/q
        entries["K.Sbar_neg"] = Fraction(q * (em - 2) + delta * (q - 1))
        entries["K.Fbar_general"] = Fraction(2 * params.l * (q - 1) - 2 * q)
    else:
        entries["K.Sbar_i"] = (
            -Fraction((q - 1) * (d - 2) * em, 2)
            + em * (d - 1) + t + (q - 1) * u * em
        ) / q
        entries["K.Sbar_neg"] = Fraction(q * (2 * g - 2) + em + (delta + w) * (q - 1), q)
        entries["K.Fbar_general"] = Fraction((d - 1) * q - (d + 1) + (q - 1) * u)
        if u:
            entries["K.Hbar_i"] = (Fraction((q - 1) * d * em, 2) + t + (q - 1) * u * em) / q
        if w:
            entries["K.Rbar_i"] = entries["K.Fbar_general"] / q
    entries["K.Gbar_end"] = Fraction(q - 2, q)
    if params.chain_length > 2:
        entries["K.Gbar_interior"] = Fraction(0)
    if params.chain_length > 1:
        entries["K.Gbar_first"] = Fraction(0)
    return entries


def config_entries(config: ResolvedConfiguration, q: int) -> dict[str, Fraction]:
    """The same labels recomputed from the census: for each branch
    component C, (1/q)(q(2g - 2 - C^2) + (q - 1)(C^2 + incidences))."""
    check_prime_q(q, config.params.p)
    params = config.params
    m = params.chain_length
    # H1..Hu: the sections after the d tangent ones (kind "section" too)
    extra_sections = config.section_ids[params.d:params.d + params.u]
    incidences: Counter[str] = Counter()
    for a, b, count in config.nodes:
        incidences[a] += count
        incidences[b] += count

    def label(comp) -> str:
        if comp.kind == "section":
            return "K.Hbar_i" if comp.cid in extra_sections else "K.Sbar_i"
        if comp.kind == "negative_section":
            return "K.Sbar_neg"
        if comp.kind == "general_fiber":
            return "K.Rbar_i"
        if comp.kind == "fiber":
            return "K.Fbar_special"
        _, k = config.chain_position[comp.cid]
        if k == m:
            return "K.Gbar_end"
        return "K.Gbar_first" if k == 1 else "K.Gbar_interior"

    out: dict[str, Fraction] = {}
    for comp in config.components:
        val = Fraction(
            q * (2 * comp.genus - 2 - comp.self_int)
            + (q - 1) * (comp.self_int + incidences[comp.cid]),
            q,
        )
        key = label(comp)
        if key in out and out[key] != val:
            raise DomainError(f"non-uniform intersection value for class {key}")
        out[key] = val
    return out


@dataclass(frozen=True)
class NefReport:
    params: ArrangementParams
    q: int
    entries: dict[str, Fraction]          # closed forms
    config_entries: dict[str, Fraction]   # census recomputation
    t_value: Fraction

    @property
    def mismatched_labels(self) -> tuple[str, ...]:
        shared = set(self.entries) & set(self.config_entries)
        return tuple(sorted(k for k in shared if self.entries[k] != self.config_entries[k]))

    @property
    def all_nef(self) -> bool:
        values = list(self.entries.values()) + list(self.config_entries.values())
        return all(v >= 0 for v in values)


def nef_report(params: ArrangementParams, q: int) -> NefReport:
    return NefReport(
        params=params,
        q=q,
        entries=closed_entries(params, q),
        config_entries=config_entries(build_resolution(params), q),
        t_value=t_value(params, q),
    )


def min_nef_q(params: ArrangementParams, q_cap: int = 10007) -> int | None:
    """Smallest prime q >= 17, q != p, with every entry non-negative."""
    for q in range(17, q_cap + 1):
        if is_prime(q) and q != params.p:
            entries = closed_entries(params, q)
            if all(v >= 0 for v in entries.values()):
                return q
    return None
