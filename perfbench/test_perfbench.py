"""Tests of the benchmark itself: python3 -m pytest perfbench"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from chernslope.pipeline import run_pipeline  # noqa: E402
from workloads import Call  # noqa: E402

SMALL_SWEEP = Call("sweep", "sweep A d=3", args=(
    "sweep", *workloads.FAMILY_A_ARGS, "--d", "3", "--q-min", "4000", "--q-max", "4100",
    "--seed", "0"))


def _small_calls() -> list[Call]:
    slope = workloads.build("slope-search", 0)
    census = workloads.build("bounds-census", 0)
    picked = [c for c in census if c.op_id in ("verify_bounds q=17", "prank q=20011")]
    picked.append(next(c for c in census if c.kind == "nef_min"))
    return [slope[0], slope[-2], SMALL_SWEEP, *picked]


def _run(calls, tracer=None):
    capture = workloads.Capture()
    capture.install()
    if tracer is not None:
        tracer.install()
    try:
        return [op for call in calls for op in workloads.run_call(call, capture, tracer)]
    finally:
        if tracer is not None:
            tracer.uninstall()
        capture.uninstall()


def test_traced_and_untraced_outputs_are_byte_identical():
    calls = _small_calls()
    plain = _run(calls)
    tracer = tracing.Tracer()
    traced = _run(calls, tracer)
    assert [op.op_id for op in plain] == [op.op_id for op in traced]
    assert [op.output for op in plain] == [op.output for op in traced]
    assert not any(op.raised for op in plain)
    layers = tracer.layer_metrics()
    for layer in ("pipeline", "cli", "partitions.sample", "partitions.search", "badset",
                  "numtheory", "rootcover", "nefcheck", "geometry", "density", "prank"):
        assert layers[f"{layer}.calls"] > 0, layer
    # uninstall restores every wrapped attribute
    for module, attr, _layer in tracing.CALL_SITES:
        assert not hasattr(getattr(module, attr), "__wrapped__"), (module.__name__, attr)


def test_small_outputs_match_their_pins():
    pins = checks.load_golden()
    ops = _run(_small_calls())
    for op in ops:
        if op.op_id.startswith("sweep"):
            continue  # the small sweep is not a pinned workload
        workload = "slope-search" if op.kind == "pipeline" else "bounds-census"
        assert checks.check(op, pins[workload]) == [], op.op_id


def test_workload_inputs_are_reproducible_from_the_seed():
    for workload in workloads.WORKLOADS:
        for seed in (0, 7):
            assert workloads.build(workload, seed) == workloads.build(workload, seed)
        assert workloads.build(workload, 0) != workloads.build(workload, 7)
    census = {c.op_id for c in workloads.build("bounds-census", 0)}
    for op_id in ("verify_bounds q=10007", "dedekind_data q=9973 all a", "bad_set q=1000003",
                  "nef_report APRIME d=24 q=4001", "prank q=20011"):
        assert op_id in census


def test_checker_flags_tampered_outputs():
    pins = checks.load_golden()["slope-search"]
    call = workloads.build("slope-search", 0)[0]
    op = _run([call])[0]
    assert checks.check(op, pins) == []

    report = json.loads(op.output)
    op.output = op.output.replace('"p": 2', '"p":  2')
    assert any("pinned" in p for p in checks.check(op, pins))

    report["sampled"]["chi"] = {"num": "7", "den": "2"}
    op.output = json.dumps(report)
    problems = checks.check(op, None)
    assert any("chi" in p and "integer" in p for p in problems)

    report["sampled"]["chi"] = {"num": "1", "den": "1"}
    report["sampled"]["slope"] = {"num": "3", "den": "1"}
    op.output = json.dumps(report)
    assert any("slope" in p for p in checks.check(op, None))


def test_checker_flags_tampered_sweep_row_and_census_output():
    row_op = next(op for op in _run([SMALL_SWEEP]) if checks.CHECKERS["sweep_row"](op) == [])
    header, line = row_op.output.split("\n")
    fields = line.split(",")
    fields[6] = fields[6] + "/5"  # chi column
    row_op.output = header + "\n" + ",".join(fields)
    assert checks.check(row_op, None)

    row_op.assignments = []
    row_op.output = header + "\n" + line
    assert any("assignment" in p for p in checks.check(row_op, None))

    census_op = _run([workloads.build("bounds-census", 0)[0]])[0]
    bad = json.loads(census_op.output)
    bad["sum_bound_ok"] = False
    census_op.output = json.dumps(bad)
    assert checks.check(census_op, None)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-rejection", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_golden_pipeline_case():
    """The ROADMAP golden case (about 45 s): its canonical JSON is pinned."""
    out = run_pipeline(Fraction(14, 5), Fraction(4, 5), family="APRIME", seed=2).to_json()
    assert hashlib.sha256(out.encode()).hexdigest().startswith("4863aba66c3a5cb3")
