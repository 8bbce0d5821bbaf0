"""Results shared between test modules.

The pinned APRIME case (target 14/5, eps 4/5, seed 2) takes tens of seconds
per run. Tests that only read its result share one run; reproducibility
tests compare that run with a fresh one of their own. The two slope reports
above 3 are pinned in tests/test_golden_cli.py and checked in
tests/test_acceptance.py from one run each.
"""
import contextlib
import io
import os
from fractions import Fraction
from pathlib import Path

import pytest

from chernslope import cli, pipeline
from chernslope.pipeline import run_pipeline

# pytest's `pythonpath` setting reaches only this process; the CLI tests run
# `python -m chernslope.cli` in child processes, which find src/ through the
# environment instead.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

APRIME_CASE = dict(target=Fraction(14, 5), epsilon=Fraction(4, 5), family="APRIME", seed=2)


@pytest.fixture(scope="session")
def aprime_result():
    """One `run_pipeline` of the APRIME case; tests must not modify it."""
    return run_pipeline(**APRIME_CASE)


@pytest.fixture(scope="session")
def slope_above_three():
    """`slope --target 7/2 --eps 1 --family APRIME --seed 0 --p P`, run once
    per P: (exit code, stdout, and the configuration and assignment the
    report's cover was built from). Tests must not modify them."""
    runs = {}

    def run(p):
        if p not in runs:
            found = []
            find = pipeline.find_assignment

            def recording(config, q, seed, max_tries):
                result = find(config, q, seed, max_tries)
                found.append((config, result[0]))
                return result

            out = io.StringIO()
            with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
                mp.setattr(pipeline, "find_assignment", recording)
                code = cli.main(["slope", "--target", "7/2", "--eps", "1", "--family", "APRIME",
                                 "--seed", "0", "--p", str(p)])
            runs[p] = (code, out.getvalue(), *found[-1])
        return runs[p]

    return run
