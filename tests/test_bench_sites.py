"""Every call site the benchmark hooks must exist on its module.

`perfbench/` wraps functions by (module, attribute) at the names their
callers look up at call time; a refactor that drops one of those names
would crash the benchmark, so it fails here instead.
"""
import ast
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


def test_every_definition_is_used_or_hooked():
    # a function, class or method that nothing under src/ names and no
    # benchmark hook reads is dead code, or an oracle that belongs in tests/
    src = Path(__file__).resolve().parents[1] / "src" / "chernslope"
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    defined = {node.name for node in nodes
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    used = {node.id for node in nodes if isinstance(node, ast.Name)}
    used |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    hooked = {attr for _module, attr in sites()}
    dunder = {name for name in defined if name.startswith("__") and name.endswith("__")}
    assert sorted(defined - used - hooked - dunder) == []


def test_branch_assignments_are_built_only_by_from_base():
    # `BranchAssignment.from_base` checks q and the base; calling the class
    # directly checks nothing, so no code under src/ may do it elsewhere
    src = Path(__file__).resolve().parents[1] / "src" / "chernslope"

    def calls(node, names):
        return {(call.lineno, call.col_offset) for call in ast.walk(node)
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) in names}

    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        built, gated = calls(tree, {"BranchAssignment"}), set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "BranchAssignment":
                built |= calls(cls, {"cls"})
                gated = calls(next(f for f in cls.body if getattr(f, "name", None) == "from_base"),
                              {"BranchAssignment", "cls"})
                assert gated
        assert built == gated, path.name
