"""The three benchmark workloads: inputs built from the seed, and how each
op runs through chernslope's public entry points.

An op is one pipeline report, one sweep CSV row, or one library call. Every
op yields one canonical text output, which the checker inspects.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from chernslope import badset, cli, nefcheck, numtheory, pipeline, prank, serialize
from chernslope.geometry import ArrangementParams, Family
from chernslope.partitions import NotFound

WORKLOADS = ("slope-search", "sweep-rejection", "bounds-census")
DEFAULT_SEED = 0

# Sampled slope reports, run with pipeline seed 0 whatever the workload seed:
# the backtracking search's time is heavy-tailed in its seed (NOTES.md), so a
# varying pipeline seed would make the batch time spread wider than any bound.
SLOPE_CASES = (
    (Fraction(2), Fraction(4, 5)),
    (Fraction(5, 2), Fraction(4, 5)),
    (Fraction(9, 4), Fraction(1, 2)),
    (Fraction(5, 2), Fraction(1, 2)),
)
# Reports whose sampled leg is skipped: APRIME (5/2, 1/10) builds 66 592
# components and stops at the node cap; A (3, 1/10) stops at the component cap.
CAP_SKIP_CASES = (
    ("APRIME", Fraction(5, 2), Fraction(1, 10)),
    ("A", Fraction(3), Fraction(1, 10)),
)
FAMILY_A_ARGS = ["--family", "A", "--p", "2", "--u", "1", "--w", "1"]


@dataclass(frozen=True)
class Call:
    """One entry-point call; a sweep call yields one op per CSV row."""

    kind: str
    op_id: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)


def build(workload: str, seed: int) -> list[Call]:
    """The workload's calls; the same (workload, seed) gives the same calls."""
    if workload == "slope-search":
        calls = [
            Call("pipeline", f"pipeline APRIME {t} {e}",
                 kwargs=dict(target=t, epsilon=e, family="APRIME", seed=0))
            for t, e in SLOPE_CASES
        ]
        calls += [
            Call("pipeline", f"pipeline {fam} {t} {e} cap-skip",
                 kwargs=dict(target=t, epsilon=e, family=fam, seed=seed))
            for fam, t, e in CAP_SKIP_CASES
        ]
        calls.append(Call("sweep", "sweep A d=4", args=tuple(
            ["sweep", *FAMILY_A_ARGS, "--d", "4", "--q-min", "40", "--q-max", "75",
             "--seed", str(seed)])))
        return calls
    if workload == "sweep-rejection":
        return [Call("sweep", "sweep A d=3", args=tuple(
            ["sweep", *FAMILY_A_ARGS, "--d", "3", "--q-min", "4000", "--q-max", "12000",
             "--seed", str(seed)]))]
    if workload == "bounds-census":
        return _bounds_census(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _prev_prime(n: int) -> int:
    while not numtheory.is_prime(n):
        n -= 1
    return n


def _bounds_census(seed: int) -> list[Call]:
    # The seed moves the large moduli by less than 2% (so per-op cost stays
    # put); the default seed gives exactly 10007, 9973, 1000003, 4001, 20011.
    rng = random.Random(f"bounds-census:{seed}")
    off = [0] * 5 if seed == DEFAULT_SEED else [rng.randrange(200) for _ in range(5)]
    calls = [Call("verify_bounds", f"verify_bounds q={q}", args=(q,))
             for q in numtheory.primes_between(17, 1000)]
    q_big = numtheory.next_prime(10000 + off[0])
    calls.append(Call("verify_bounds", f"verify_bounds q={q_big}", args=(q_big,)))
    q_dk = _prev_prime(9999 - off[1])
    calls.append(Call("dedekind_all", f"dedekind_data q={q_dk} all a", args=(q_dk,)))
    q_bad = numtheory.next_prime(10**6 + off[2])
    calls.append(Call("bad_set", f"bad_set q={q_bad}", args=(q_bad,)))
    q_nef = numtheory.next_prime(4000 + off[3])
    for d in (16, 24):
        params = ArrangementParams(Family.APRIME, p=2, r=4, e=1, d=d)
        calls.append(Call("nef", f"nef_report APRIME d={d} q={q_nef}", args=(params, q_nef)))
    grid = [ArrangementParams(Family.A, p=p, r=r, e=1, d=d, u=u, w=w)
            for p, r, d, u, w in itertools.product([2, 3], [1, 2], [3, 4], [1, 2], [1, 2])][:16]
    for pp in grid:
        calls.append(Call("nef_min", f"min_nef_q A p={pp.p} r={pp.r} d={pp.d} u={pp.u} w={pp.w}",
                          args=(pp,)))
    q_pr = numtheory.next_prime(20000 + off[4])
    calls.append(Call("prank", f"prank q={q_pr}", args=(q_pr, 3, (5000, 5000, 5000, q_pr - 15000))))
    return calls


class Capture:
    """Hooks kept on in every run: they record each returned assignment (for
    the checker) and each sweep row's duration (one op per row)."""

    SITES = ((pipeline, "sample_with_stats"), (cli, "sample_with_stats"),
             (pipeline, "search_assignment"), (cli, "search_assignment"))

    def __init__(self) -> None:
        self.assignments: list = []   # (config, assignment) per found result
        self.row_seconds: list[tuple[int, float]] = []
        self._saved: list = []

    def install(self) -> None:
        for module, attr in self.SITES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._record_assignment(fn))
        row_fn = cli._sweep_row
        self._saved.append((cli, "_sweep_row", row_fn))
        rows = self.row_seconds

        def timed_row(task):
            start = time.perf_counter()
            row = row_fn(task)
            rows.append((row["q"], time.perf_counter() - start))
            return row

        cli._sweep_row = timed_row

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _record_assignment(self, fn):
        found = self.assignments

        def hooked(problem, *args, **kwargs):
            result = fn(problem, *args, **kwargs)
            assign = result[0] if isinstance(result, tuple) else result
            if not isinstance(assign, NotFound):
                found.append((problem.config, assign))
            return result

        return hooked


@dataclass
class OpResult:
    op_id: str
    kind: str
    output: str
    seconds: float
    raised: bool = False
    assignments: list = field(default_factory=list)


def run_call(call: Call, capture: Capture, tracer=None) -> list[OpResult]:
    """Run one call; sweep calls are split into one OpResult per CSV row."""
    capture.assignments.clear()
    capture.row_seconds.clear()
    start = time.perf_counter()
    try:
        if call.kind == "sweep":
            return _run_sweep(call, capture, tracer)
        output = _run_single(call)
    except Exception as exc:  # noqa: BLE001 - an op that raises is counted, not fatal
        return [OpResult(call.op_id, call.kind, f"raised {type(exc).__name__}: {exc}",
                         time.perf_counter() - start, raised=True)]
    return [OpResult(call.op_id, call.kind, output, time.perf_counter() - start,
                     assignments=list(capture.assignments))]


def _run_single(call: Call) -> str:
    canon = serialize.canonical_json
    if call.kind == "pipeline":
        return pipeline.run_pipeline(**call.kwargs).to_json()
    if call.kind == "verify_bounds":
        return canon(badset.verify_bounds(call.args[0], 1))
    if call.kind == "dedekind_all":
        q = call.args[0]
        return canon([numtheory.dedekind_data(q, a) for a in range(1, q)])
    if call.kind == "bad_set":
        return canon(badset.bad_set(call.args[0], 1))
    if call.kind == "nef":
        params, q = call.args
        return _nef_output(params, q, None)
    if call.kind == "nef_min":
        params = call.args[0]
        q0 = nefcheck.min_nef_q(params)
        return _nef_output(params, q0, q0)
    if call.kind == "prank":
        q, p, mults = call.args
        data = prank.CyclicCoverData(q=q, p=p, mults=mults)
        return canon({"q": q, "p": p, "mults": mults,
                      "genus": prank.genus(data), "B": prank.prank_upper_bound(data)})
    raise ValueError(f"unknown op kind {call.kind!r}")


def _nef_output(params, q, min_q) -> str:
    report = nefcheck.nef_report(params, q)
    return serialize.canonical_json({
        "min_nef_q": min_q, "report": report,
        "mismatched_labels": report.mismatched_labels, "all_nef": report.all_nef,
    })


def _run_sweep(call: Call, capture: Capture, tracer) -> list[OpResult]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(call.args))
    text = out.getvalue()
    if tracer is not None:
        tracer.counters["serialize.bytes"] += len(text.encode())
    if code != 0:
        raise RuntimeError(f"sweep exited {code}: {err.getvalue().strip()}")
    lines = text.splitlines()
    header, rows = lines[0], lines[1:]
    by_q = {q: secs for q, secs in capture.row_seconds}
    found = {assign.q: (config, assign) for config, assign in capture.assignments}
    results = []
    for line in rows:
        q = int(line.split(",", 1)[0])
        results.append(OpResult(
            f"{call.op_id} q={q}", "sweep_row", header + "\n" + line, by_q[q],
            assignments=[found[q]] if q in found else []))
    return results
