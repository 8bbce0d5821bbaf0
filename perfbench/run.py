"""chernslope benchmark: one workload per run, or all three in turn.

    python3 perfbench/run.py --workload slope-search --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

A run repeats the workload's batch of ops (same inputs each time) for about
`--seconds` seconds, at least twice, and reports medians over batches. `--trace 0` measures
the end-to-end metrics with nothing wrapped but the result-capture hooks;
`--trace 1` alternates untraced and traced batches and reports per-layer
metrics from the traced ones. Every op's output is checked. The last line of
stdout is one JSON object: correct, attempted, failed, metrics. See NOTES.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_RUNS = 7
# A fresh interpreter imports the package and the CLI, then builds the inputs.
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]\n"
    "import chernslope, chernslope.cli, workloads\n"
    "workloads.build(sys.argv[3], int(sys.argv[4]))\n"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="slope-search, sweep-rejection, bounds-census or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repin", action="store_true",
                    help="rewrite this workload's pinned hashes in golden.json "
                         "(default seed and --trace 0 only)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "chernslope", "__init__.py")):
        print(f"error: no chernslope sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["CHERNSLOPE_WORKERS"] = "1"  # sweep forks a pool otherwise
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import chernslope
    if not os.path.abspath(chernslope.__file__).startswith(SRC + os.sep):
        print(f"error: imported chernslope from {chernslope.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.repin and (args.seed != workloads.DEFAULT_SEED or args.trace):
        print("error: --repin needs the default seed and --trace 0", file=sys.stderr)
        return 2
    return run_workload(args)


def run_workload(args) -> int:
    import checks
    import tracing
    import workloads

    setup = measure_setup(args.workload, args.seed) if args.trace == 0 else []
    calls = workloads.build(args.workload, args.seed)
    capture = workloads.Capture()
    tracer = tracing.Tracer() if args.trace else None

    golden = checks.load_golden()
    pins = None
    if args.seed == workloads.DEFAULT_SEED and not args.repin:
        pins = golden.get(args.workload, {})
    first_ops = None
    problems: dict[str, list[str]] = {}
    untraced, traced = [], []       # per batch: (wall, cpu)
    op_seconds = []                 # per untraced batch: each op's seconds
    layer_rows = []
    raised = 0
    capture.install()
    start = time.perf_counter()
    try:
        while True:
            use_trace = tracer is not None and len(untraced) > len(traced)
            if use_trace:
                tracer.reset()
                tracer.install()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                ops = [op for call in calls
                       for op in workloads.run_call(call, capture, tracer if use_trace else None)]
            finally:
                wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
                if use_trace:
                    tracer.uninstall()
            if use_trace:
                traced.append((wall, cpu))
                layer_rows.append(tracer.layer_metrics())
            else:
                untraced.append((wall, cpu))
                op_seconds.append([op.seconds for op in ops])
            raised += sum(op.raised for op in ops)
            if first_ops is None:
                # Checked once, then the captured assignments are let go, so
                # later batches hold no more memory than the first.
                first_ops = ops
                check_start = time.perf_counter()
                for op in ops:
                    found = checks.check(op, pins)
                    if found:
                        problems[op.op_id] = found
                    op.assignments = []
                start += time.perf_counter() - check_start  # checking is not measuring
            else:
                differ = [a.op_id for a, b in zip(first_ops, ops) if a.output != b.output]
                if len(ops) != len(first_ops):
                    differ.append("(op count)")
                for op_id in differ:
                    problems.setdefault(op_id, []).append("output differs between batches")
            del ops
            elapsed = time.perf_counter() - start
            batch = statistics.median(w for w, _ in untraced + traced)
            # at least two batches: two untraced, or one untraced and one traced
            enough = len(untraced) + len(traced) >= 2
            if enough and elapsed + batch > args.seconds:
                break
    finally:
        capture.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    n_ops = len(first_ops)
    failures = [op.op_id for op in first_ops if checks.is_failure(op)]
    correct = not problems and raised == 0

    if args.repin:
        if not correct:
            print(json.dumps(problems, indent=1), file=sys.stderr)
            print("error: refusing to pin outputs that fail their checks", file=sys.stderr)
            return 1
        golden[args.workload] = {op.op_id: checks.digest(op.output) for op in first_ops}
        with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")

    med = lambda rows, i: statistics.median(r[i] for r in rows)  # noqa: E731
    # Each op is timed as its fastest batch (the inputs repeat), so one
    # scheduler hiccup in one batch does not become the slowest op; the metric
    # averages the slowest 1% of ops (at least one), because the single slowest
    # of 888 ~10 ms sweep rows is mostly machine noise.
    per_op = [min(times) for times in zip(*op_seconds)]
    top = sorted(range(n_ops), key=per_op.__getitem__, reverse=True)[:math.ceil(n_ops / 100)]
    summary = {
        "wall_s": (med(untraced, 0), "s", f"median of {len(untraced)} batches"),
        "cpu_s": (med(untraced, 1), "s", f"median of {len(untraced)} batches"),
        "slowest_op_s": (statistics.mean(per_op[i] for i in top), "s",
                         f"mean of slowest {len(top)} ops, each the min of {len(untraced)} "
                         f"batches; slowest: {first_ops[top[0]].op_id}"),
        "peak_rss_mb": (peak_rss_mb, "MB", "whole run"),
        "fail_share": (len(failures) / n_ops, "ratio", f"{len(failures)} of {n_ops} ops"),
        "mismatch_share": (len(problems) / n_ops, "ratio", f"{len(problems)} of {n_ops} ops"),
    }
    if setup:
        summary["setup_s"] = (statistics.median(setup), "s",
                              f"median of {len(setup)} fresh interpreters")
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if tracer is not None:
        for name in layer_rows[0]:
            summary[name] = (statistics.median(r[name] for r in layer_rows), units[name],
                             f"median of {len(layer_rows)} traced batches")
        summary["trace.overhead_s"] = (med(traced, 0) - med(untraced, 0), "s",
                                       "traced minus untraced wall_s")

    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": correct,
        "attempted": n_ops * (len(untraced) + len(traced)),
        "failed": raised,
        "metrics": {n: {"value": summary[n][0], "unit": units[n]} for n in names},
    }
    record = {"provenance": provenance(args), "summary": summary, "problems": problems,
              "batches": {"untraced": untraced, "traced": traced, "setup_s": setup},
              "failures": failures, "op_seconds": {op.op_id: t for op, t in zip(first_ops, per_op)},
              "result": result}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    if tracer is not None:
        tracer.write_spans(stem + ".spans.jsonl")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {n_ops} ops per batch, "
          f"{len(untraced)} untraced + {len(traced)} traced batches")
    for name, (value, unit, note) in summary.items():
        print(f"  {name:40s} {value:>14.6g} {unit:6s} {note}")
    for op_id, found in problems.items():
        print(f"  MISMATCH {op_id}: {'; '.join(found)}")
    print(json.dumps({"provenance": record["provenance"]}, sort_keys=True))
    print(json.dumps(result))
    return 0


def measure_setup(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, HERE, workload, str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def provenance(args) -> dict:
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    pkg = os.path.join(SRC, "chernslope")
    src_loc, src_hash = {}, hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                data = fh.read()
            src_loc[name[:-3]] = data.count(b"\n")
            src_hash.update(name.encode() + b"\0" + data)

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "commit": commit, "src_sha256": src_hash.hexdigest(), "src_loc": src_loc,
        "python": platform.python_version(), "mpmath": version("mpmath"),
        "numpy": version("numpy"), "nproc": os.cpu_count(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "CHERNSLOPE_WORKERS": os.environ["CHERNSLOPE_WORKERS"],
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    results = {}
    for workload in ("slope-search", "sweep-rejection", "bounds-census"):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
