"""End-to-end report: target slope -> parameters -> sampled degree-q cover.

`run_pipeline` chains the density solver with (optionally) a sampled cover:
a prime q is chosen (or taken from the hint), a good branch assignment is
searched with a deterministic seed schedule (`find_assignment`, doubling q
while it fails), and the cover invariants plus the nef summary at q are
attached. Identical inputs yield byte-identical JSON. Parameter sets whose
resolved configuration would be enormous skip the sampled leg and say so in
the report.
"""
from __future__ import annotations

import sys
from dataclasses import asdict, dataclass

from . import density
from .geometry import Family, ResolvedConfiguration, build_resolution, component_count, node_count
from .nefcheck import closed_entries, t_value
from .numtheory import DomainError, check_prime_q, next_prime
from .partitions import (
    DEFAULT_MAX_TRIES,
    NotFound,
    PartitionProblem,
    check_max_tries,
    sample_with_stats,
    sampler_diagnostics,
    search_assignment,
    verify_asymptotic,
)
from .rootcover import BranchAssignment, CoverInvariants, chern_of_cover
from .serialize import canonical_json

DEFAULT_COMPONENT_CAP = 250_000
DEFAULT_NODE_CAP = 20_000


def find_assignment(
    config: ResolvedConfiguration, q: int, seed: int, max_tries: int
) -> tuple[BranchAssignment | NotFound, int, str | None]:
    """Rejection sampling, then the deterministic backtracking search, at q.

    Returns (result, draws, method): `draws` counts the sampler's draws and
    `method` is "rejection", "backtracking" or None. On failure the result
    is the search's NotFound, whose `tries` counts its attempts; a report
    that says how the sampler's draws failed gets that from
    `sampler_diagnostics`.
    """
    check_max_tries(max_tries)
    problem = PartitionProblem(config, q)
    sampled, draws = sample_with_stats(problem, seed=seed, max_tries=max_tries)
    if not isinstance(sampled, NotFound):
        return sampled, draws, "rejection"
    found = search_assignment(problem, seed=seed)
    if isinstance(found, NotFound):
        return found, draws, None
    # a sampler hit has passed the residue rule already; the search's has not
    if not verify_asymptotic(config, found).ok:
        raise RuntimeError(f"backtracking search returned a bad assignment at q = {q}")
    return found, draws, "backtracking"


def cover_fields(cover: CoverInvariants) -> dict:
    """The cover invariants that the `slope` and `cover` reports share."""
    return {
        "c1sq": cover.c1sq, "c2": cover.c2, "chi": cover.chi,
        "slope": cover.slope, "slope_approx": float(cover.slope),
        "c_correction": cover.c_correction, "l_correction": cover.l_correction,
        "defect_bound": cover.defect_bound,
    }


@dataclass(frozen=True)
class PipelineResult:
    report: dict

    def to_json(self) -> str:
        return canonical_json(self.report)

    @property
    def status(self) -> str:
        return self.report["status"]


def run_pipeline(
    target,
    epsilon,
    p: int = 2,
    family: Family | str = Family.A,
    q_hint: int | None = None,
    seed: int = 0,
    g: int = 0,
    e: int = 1,
    w: int = 1,
    sample: bool = True,
    component_cap: int = DEFAULT_COMPONENT_CAP,
    node_cap: int = DEFAULT_NODE_CAP,
    max_tries: int = DEFAULT_MAX_TRIES,
) -> PipelineResult:
    check_max_tries(max_tries)
    family = Family(family)
    target, epsilon = density.as_fraction(target), density.as_fraction(epsilon)
    # the report's *_approx fields are floats, and a limit slope within
    # epsilon of the target stays below target + epsilon
    if target + epsilon > sys.float_info.max:
        raise DomainError("target + epsilon is beyond float range")
    if family is Family.APRIME:
        solved = density.solve_family_aprime(target, epsilon, p=p)
    else:
        solved = density.solve_family_a(target, epsilon, p=p, g=g, e=e, w=w)

    report: dict = {
        "target": solved.target,
        "target_approx": float(solved.target),
        "epsilon": solved.epsilon,
        "family": family.value,
        "p": p,
        "seed": seed,
        "status": solved.status,
        "diagnostics": solved.diagnostics,
        "sampled": None,
    }
    if solved.params is not None:
        report["params"] = asdict(solved.params)
        report["limit_slope"] = solved.achieved_limit
        report["limit_slope_approx"] = float(solved.achieved_limit)
        report["error"] = solved.error
        report["error_approx"] = float(solved.error)
    else:
        report["params"] = None

    if not (sample and solved.status == "ok" and solved.params is not None):
        return PipelineResult(report)

    params = solved.params
    est = component_count(params)
    if est > component_cap:
        report["sampled"] = {
            "skipped": f"configuration would have ~{est} components "
                       f"(cap {component_cap}); rerun with a larger cap or a looser epsilon",
        }
        return PipelineResult(report)

    t2 = node_count(params)
    if t2 > node_cap:
        report["sampled"] = {
            "skipped": f"configuration has {t2} nodes (cap {node_cap}); "
                       f"a good assignment would need a prime q far beyond desk scale",
        }
        return PipelineResult(report)
    config = build_resolution(params)
    # Rejection sampling needs q well above the node count, which is never
    # below `min_feasible_q`, so start the prime search there; if neither the
    # sampler nor the deterministic backtracking search lands an assignment,
    # double q and retry. A cover whose slope misses the target by epsilon
    # or more escalates like a failed search. A pinned q is tried alone, and
    # only an unpinned q = p steps on.
    if q_hint is not None:
        check_prime_q(q_hint, p)
    q = q_hint if q_hint is not None else next_prime(max(17, t2))
    attempts_log: list[dict] = []
    for escalation in range(1 if q_hint is not None else 6):
        if escalation:
            q = next_prime(2 * q)
        while q == p:
            q = next_prime(q + 1)
        result, draws, method = find_assignment(config, q, seed, max_tries)
        if method is None:
            status = "not_found"
            attempts_log.append({
                "q": q,
                "rejection_tries": draws,
                "search_attempts": result.tries,
            })
        else:
            cover = chern_of_cover(config, result)
            if abs(cover.slope - solved.target) < solved.epsilon:
                status = "ok"
                break
            status = "off_target"
            attempts_log.append({
                "q": q,
                "method": method,
                "slope": cover.slope,
                "slope_approx": float(cover.slope),
            })
    report["status"] = status
    if status == "not_found":
        report["sampled"] = {
            "q": q,
            "tries": result.tries,
            **sampler_diagnostics(PartitionProblem(config, q), seed, max_tries),
            "escalations": attempts_log,
        }
        return PipelineResult(report)

    limit = solved.achieved_limit
    nef = closed_entries(params, q)
    report["sampled"] = {
        "q": q,
        "method": method,
        "tries": draws,
        **cover_fields(cover),
        "slope_vs_limit_approx": abs(float(cover.slope) - float(limit)),
        "nef": {
            "all_nonnegative": all(v >= 0 for v in nef.values()),
            "t_value": t_value(params, q),
        },
    }
    if status == "off_target":
        report["sampled"]["escalations"] = attempts_log
    return PipelineResult(report)
