"""Results shared between test modules.

The pinned APRIME case (target 14/5, eps 4/5, seed 2) takes tens of seconds
per run. Tests that only read its result share one run; reproducibility
tests compare that run with a fresh one of their own.
"""
import os
from fractions import Fraction
from pathlib import Path

import pytest

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
