"""Every call site the benchmark hooks must exist on its module.

`perfbench/` wraps functions by (module, attribute) at the names their
callers look up at call time; a refactor that drops one of those names
would crash the benchmark, so it fails here instead.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def sites():
    tracing, workloads = load("tracing"), load("workloads")
    traced = [(m, attr) for m, attr, _layer in tracing.CALL_SITES]
    return traced + list(workloads.Capture.SITES)


@pytest.mark.parametrize("module, attr", sites(),
                         ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_call_site_resolves(module, attr):
    assert callable(getattr(module, attr, None))
