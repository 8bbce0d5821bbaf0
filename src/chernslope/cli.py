"""Command-line interface.

Reports go to stdout as JSON (exact rationals as {"num", "den"} pairs;
floats only in *_approx fields); logs and errors go to stderr. Exit codes:
0 success, 1 stdout closed by its reader, 2 invalid input, 3 search
exhausted / cap hit / sampled cover off the target slope. A key=value
config file can predefine any long option; explicit flags win.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from fractions import Fraction

from . import nefcheck, pipeline, prank
from .badset import bad_set, verify_bounds
from .geometry import ArrangementParams, Family, build_resolution, log_chern_closed, log_chern_pair
from .numtheory import dedekind_data, is_prime, primes_between
from .partitions import NotFound, PartitionProblem, check_base, sampler_diagnostics
# cli never calls these itself (`pipeline.find_assignment` does), but the
# capture and tracing hooks in perfbench/ look them up on this module with
# getattr, so they stay importable from it.
from .partitions import sample_with_stats, search_assignment  # noqa: F401
from .rootcover import BranchAssignment, chern_of_cover
from .serialize import canonical_json

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_FOUND = 3


def _emit(obj) -> None:
    print(canonical_json(obj))


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _params_from_args(args) -> ArrangementParams:
    return ArrangementParams(
        family=Family(args.family), p=args.p, r=args.r, e=args.e,
        d=args.d, g=args.g, u=args.u, w=args.w,
    )


def _fraction(text: str) -> Fraction:
    """A rational option value such as 3, 1/2 or 0.25."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in '{text}'") from None


def _read_base(path: str) -> dict[str, int]:
    """Component multiplicities from a JSON object of integers keyed by id."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object of multiplicities")
    for k, v in raw.items():
        if type(v) is not int:  # not bool, float or string either
            raise ValueError(f"{path}: the multiplicity of {k} is {json.dumps(v)}, "
                             "not an integer")
    return raw


def _add_family_options(sub,*, default_family="A0") -> None:
    sub.add_argument("--family", default=default_family, choices=[f.value for f in Family])
    sub.add_argument("--p", type=int, default=2)
    sub.add_argument("--r", type=int, default=1)
    sub.add_argument("--e", type=int, default=1)
    sub.add_argument("--d", type=int, default=3)
    sub.add_argument("--g", type=int, default=0)
    sub.add_argument("--u", type=int, default=0)
    sub.add_argument("--w", type=int, default=0)


def _cmd_dedekind(args) -> int:
    data = dedekind_data(args.q, args.a)
    _emit({
        "q": data.q, "a": data.a, "digits": list(data.digits), "length": data.length,
        "s": data.s, "s_approx": float(data.s),
        "c": data.c, "c_approx": float(data.c),
    })
    return EXIT_OK


def _cmd_badset(args) -> int:
    C = _fraction(args.C)
    fs = bad_set(args.q, C)
    out = {
        "q": fs.q, "C": C, "size": len(fs.members),
        "bad": fs.members, "good": fs.complement,
    }
    if args.verify:
        rep = verify_bounds(args.q, C)
        out["bounds"] = {
            "cardinality_ok": rep.card_bound_ok,
            "length_ok": rep.length_bound_ok,
            "sum_ok": rep.sum_bound_ok,
            "worst_length": {"a": rep.worst_length[0], "l": rep.worst_length[1]},
            "worst_scaled_sum": {"a": rep.worst_scaled_sum[0], "value": rep.worst_scaled_sum[1]},
            "ok": rep.ok,
        }
    _emit(out)
    return EXIT_OK


def _cmd_arrangement(args) -> int:
    params = _params_from_args(args)
    c1b, c2b, slope = log_chern_closed(params)
    out = {
        "params": params,
        "delta": params.delta,
        "closed": {"c1sq_bar": c1b, "c2_bar": c2b,
                   "limit_slope": slope, "limit_slope_approx": float(slope)},
    }
    if not args.closed_only:
        config = build_resolution(params)
        b1, b2 = log_chern_pair(config)
        out["census"] = {
            "components": len(config.components),
            "t2": config.t2,
            "c1sq_bar": b1,
            "c2_bar": b2,
            "c1sq_ambient": config.c1sq_ambient,
            "c2_ambient": config.c2_ambient,
        }
        if args.full:
            out["census"]["component_list"] = [
                {"id": c.cid, "kind": c.kind, "self": c.self_int, "genus": c.genus}
                for c in config.components
            ]
            out["census"]["nodes"] = [list(n) for n in config.nodes]
    _emit(out)
    return EXIT_OK


def _cmd_search(args) -> int:
    config = build_resolution(_params_from_args(args))
    result, draws, method = pipeline.find_assignment(config, args.q, args.seed, args.max_tries)
    if isinstance(result, NotFound):
        fewest_bad, worst_node = sampler_diagnostics(
            PartitionProblem(config, args.q), args.seed, args.max_tries)
        _emit({"status": "not_found", "tries": draws, "zero_hits": result.zero_hits,
               "fewest_bad": fewest_bad,
               "worst_node": list(worst_node) if worst_node else None})
        return EXIT_NOT_FOUND
    _emit({"status": "ok", "q": result.q, "tries": draws, "method": method,
           "nus": dict(result.nus)})
    return EXIT_OK


def _cmd_cover(args) -> int:
    params = _params_from_args(args)
    config = build_resolution(params)
    if args.base_file:
        base = _read_base(args.base_file)
        assign = BranchAssignment.from_base(config, args.q, base)
        check_base(config, args.q, base)
        draws = 0
    else:
        result, draws, _ = pipeline.find_assignment(config, args.q, args.seed, args.max_tries)
        if isinstance(result, NotFound):
            _emit({"status": "not_found", "tries": result.tries})
            return EXIT_NOT_FOUND
        assign = result
    cover = chern_of_cover(config, assign)
    out = {"status": "ok", "q": args.q, "tries": draws, **pipeline.cover_fields(cover)}
    if args.singularities:
        out["singularities"] = [
            {"node": list(s.node), "a": s.a, "l": s.l, "c": s.c, "digits": list(s.hj_digits)}
            for s in cover.singularities
        ]
    _emit(out)
    return EXIT_OK


def _cmd_slope(args) -> int:
    result = pipeline.run_pipeline(
        target=_fraction(args.target), epsilon=_fraction(args.eps), p=args.p,
        family=Family(args.family), q_hint=args.q_hint, seed=args.seed,
        g=args.g, e=args.e, w=args.w, sample=not args.no_sample,
        component_cap=args.component_cap, node_cap=args.node_cap,
        max_tries=args.max_tries,
    )
    print(result.to_json())
    return EXIT_OK if result.status == "ok" else EXIT_NOT_FOUND


def _cmd_prank(args) -> int:
    mults = tuple(int(x) for x in args.mults.split(","))
    data = prank.CyclicCoverData(q=args.q, p=args.p, mults=mults)
    orbits = prank.frobenius_orbits(args.q, args.p)
    out = {
        "q": args.q, "p": args.p, "mults": list(mults),
        "genus": prank.genus(data),
        "B": prank.prank_upper_bound(data),
        "orbits": [list(o) for o in orbits],
    }
    if is_prime(args.q):
        # i -> p*i is one cycle on 1..q-1 exactly when p generates (Z/q)*
        out["primitive_root"] = len(orbits) == 1
    _emit(out)
    return EXIT_OK


def _cmd_nef(args) -> int:
    params = _params_from_args(args)
    if args.find:
        threshold = nefcheck.min_nef_q(params, q_cap=args.q_cap)
        if threshold is None:
            _emit({"status": "not_found", "q_cap": args.q_cap})
            return EXIT_NOT_FOUND
        rep = nefcheck.nef_report(params, threshold)
        _emit({"status": "ok", "min_nef_q": threshold, "entries": rep.entries,
               "all_nonnegative": rep.all_nef, "t_value": rep.t_value})
        return EXIT_OK
    if args.q is None:
        raise ValueError("nef needs --q or --find")
    rep = nefcheck.nef_report(params, args.q)
    _emit({
        "q": args.q,
        "entries": rep.entries,
        "config_entries": rep.config_entries,
        "mismatched_labels": list(rep.mismatched_labels),
        "all_nonnegative": rep.all_nef,
        "t_value": rep.t_value,
    })
    return EXIT_OK


def _sweep_row(task) -> dict:
    """One CSV row; `task` is (config, limit slope, q, seed, max_tries)."""
    config, limit, q, seed, max_tries = task
    result, draws, _ = pipeline.find_assignment(config, q, seed, max_tries)
    if isinstance(result, NotFound):
        # the writer leaves the cover's columns empty
        return {"q": q, "seed": seed, "status": "not_found", "tries": draws,
                "limit_slope_approx": float(limit)}
    cover = chern_of_cover(config, result)
    return {
        "q": q, "seed": seed, "status": "ok", "tries": draws,
        "c1sq": str(cover.c1sq), "c2": str(cover.c2), "chi": str(cover.chi),
        "slope_approx": float(cover.slope),
        "limit_slope_approx": float(limit),
        "abs_err_approx": abs(float(cover.slope) - float(limit)),
        "c_correction": str(cover.c_correction),
        "defect_bound": cover.defect_bound,
    }


def _per_q_seed(master_seed: int, q: int) -> int:
    digest = hashlib.sha256(f"{master_seed}:{q}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _cmd_sweep(args) -> int:
    params = _params_from_args(args)
    # neither depends on q: build once
    config = build_resolution(params)
    _, _, limit = log_chern_closed(params)
    primes = [q for q in primes_between(args.q_min, args.q_max) if q != params.p]
    tasks = [(config, limit, q, _per_q_seed(args.seed, q), args.max_tries) for q in primes]
    rows = [_sweep_row(t) for t in tasks]  # in prime order

    fieldnames = ["q", "seed", "status", "tries", "c1sq", "c2", "chi", "slope_approx",
                  "limit_slope_approx", "abs_err_approx", "c_correction", "defect_bound"]
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    _log(f"sweep: {len(rows)} primes in [{args.q_min}, {args.q_max}]")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValueError, which `main` prints as one line;
    `add_subparsers` builds the subcommands' parsers from this class too."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chernslope",
        description="Exact invariants of cyclic branched covers: continued "
                    "fractions, residue classes, slopes, and search reports.",
    )
    parser.add_argument("--config", help="key=value file of option defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("dedekind", help="HJ expansion, Dedekind sum and c-invariant of (a, q)")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--a", type=int, required=True)
    s.set_defaults(func=_cmd_dedekind)

    s = sub.add_parser("badset", help="bad/good residue split at a prime q")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--C", default="1")
    s.add_argument("--verify", action="store_true", help="also check the size/length/sum bounds")
    s.set_defaults(func=_cmd_badset)

    s = sub.add_parser("arrangement", help="resolved arrangement census and closed forms")
    _add_family_options(s)
    s.add_argument("--closed-only", action="store_true")
    s.add_argument("--full", action="store_true", help="include full component/node lists")
    s.set_defaults(func=_cmd_arrangement)

    s = sub.add_parser("search", help="seeded search for a good branch assignment")
    _add_family_options(s)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-tries", type=int, default=200)
    s.set_defaults(func=_cmd_search)

    s = sub.add_parser("cover", help="Chern numbers of the degree-q cover")
    _add_family_options(s)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-tries", type=int, default=200)
    s.add_argument("--base-file", help="JSON file of component multiplicities (skips sampling)")
    s.add_argument("--singularities", action="store_true")
    s.set_defaults(func=_cmd_cover)

    s = sub.add_parser("slope", help="end-to-end: target slope -> parameters -> sampled cover")
    s.add_argument("--target", required=True)
    s.add_argument("--eps", default="1/100")
    s.add_argument("--p", type=int, default=2)
    s.add_argument("--family", default="A", choices=[f.value for f in Family if f is not Family.A0])
    s.add_argument("--q-hint", type=int)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--g", type=int, default=0)
    s.add_argument("--e", type=int, default=1)
    s.add_argument("--w", type=int, default=1)
    s.add_argument("--no-sample", action="store_true")
    s.add_argument("--component-cap", type=int, default=pipeline.DEFAULT_COMPONENT_CAP)
    s.add_argument("--node-cap", type=int, default=pipeline.DEFAULT_NODE_CAP)
    s.add_argument("--max-tries", type=int, default=200)
    s.set_defaults(func=_cmd_slope)

    s = sub.add_parser("prank", help="genus and p-rank bound of cyclic cover data")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--mults", required=True, help="comma-separated multiplicities")
    s.set_defaults(func=_cmd_prank)

    s = sub.add_parser("nef", help="canonical-class intersection table at q")
    _add_family_options(s)
    s.add_argument("--q", type=int)
    s.add_argument("--find", action="store_true", help="find the smallest workable prime q")
    s.add_argument("--q-cap", type=int, default=10007)
    s.set_defaults(func=_cmd_nef)

    s = sub.add_parser("sweep", help="CSV of sampled cover invariants over a prime range")
    _add_family_options(s)
    s.add_argument("--q-min", type=int, required=True)
    s.add_argument("--q-max", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-tries", type=int, default=200)
    s.add_argument("--out", help="output CSV path (default: stdout)")
    s.set_defaults(func=_cmd_sweep)

    return parser


_TRUE, _FALSE = ("1", "true", "yes"), ("0", "false", "no")


def _options_by_command(parser: argparse.ArgumentParser) -> dict[str, dict[str, argparse.Action]]:
    """Each subcommand's long options, keyed by flag, without --help."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {flag: action for action in p._actions if action.dest != "help"
               for flag in action.option_strings}
        for name, p in sub.choices.items()
    }


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Turn `--config FILE` key=value pairs into leading CLI defaults.

    A key is skipped when the chosen subcommand lacks it but another one
    has it, so one file can serve several subcommands; a key no subcommand
    has is an error. A flag that takes no value (`verify`, `no_sample`, ...)
    is given as 1/true/yes to set it or 0/false/no to leave it unset.
    """
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        raise ValueError("--config needs a file path")
    path = argv[idx + 1]
    rest = argv[:idx] + argv[idx + 2:]
    commands = _options_by_command(parser)
    options = commands.get(rest[0], {}) if rest else {}
    injected: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            flag = f"--{key.replace('_', '-')}"
            if not any(flag in opts for opts in commands.values()):
                raise ValueError(f"unknown config key '{key}'")
            action = options.get(flag)
            if action is None:
                continue
            if action.nargs != 0:
                injected += [flag, value]
            elif value.lower() in _TRUE:
                injected.append(flag)
            elif value.lower() not in _FALSE:
                raise ValueError(f"config key '{key}' takes 1/true/yes or 0/false/no, got '{value}'")
    # config-derived options go right after the subcommand so explicit flags win
    if not rest:
        return rest
    return rest[:1] + injected + rest[1:]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout: not bad input. Point stdout at devnull so
        # the flush at exit stays quiet, and exit 1 as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:  # bad input, the library's errors included
        _log(f"error: {exc}")
        return EXIT_INVALID
    except MemoryError:  # an input too large to hold, such as an O(q) table at huge q
        _log("error: out of memory for this input")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
