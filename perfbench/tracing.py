"""In-memory span tracing of chernslope's public functions, from outside.

The tracer replaces module attributes at their call sites (for example
`chernslope.pipeline.search_assignment`, the name `run_pipeline` looks up at
call time) with wrappers that record one span per call: name, start, end and
the index of the enclosing span. Nothing under `src/` changes, and removing
the wrappers restores the original functions.

A layer's self time is the summed duration of its spans minus the time their
direct child spans cover.
"""
from __future__ import annotations

import csv
import json
import time
import types
from collections import Counter

from chernslope import (
    badset,
    cli,
    density,
    nefcheck,
    numtheory,
    partitions,
    pipeline,
    prank,
    rootcover,
    serialize,
)
from chernslope.partitions import NotFound

# (module, attribute, layer). A function imported into several modules is
# wrapped in each module whose code calls it; a module's own internal calls
# (for example numtheory.dedekind_data -> dedekind_sum) are not split out.
# `serialize.jsonable` is left unwrapped: it recurses through its own module
# binding, so wrapping it would record one span per nested value.
CALL_SITES = [
    (pipeline, "run_pipeline", "pipeline"),
    (cli, "main", "cli"),
    (cli, "_sweep_row", "cli"),
    (density, "solve_family_a", "density"),
    (density, "solve_family_aprime", "density"),
    (pipeline, "build_resolution", "geometry"),
    (cli, "build_resolution", "geometry"),
    (nefcheck, "build_resolution", "geometry"),
    (pipeline, "sample_with_stats", "partitions.sample"),
    (cli, "sample_with_stats", "partitions.sample"),
    (pipeline, "search_assignment", "partitions.search"),
    (cli, "search_assignment", "partitions.search"),
    (partitions, "good_residues", "badset"),
    (badset, "bad_set", "badset"),
    (badset, "verify_bounds", "badset"),
    (rootcover, "dedekind_data", "numtheory"),
    (numtheory, "dedekind_data", "numtheory"),
    (badset, "dedekind_sum", "numtheory"),
    (badset, "hj_length", "numtheory"),
    (pipeline, "chern_of_cover", "rootcover"),
    (cli, "chern_of_cover", "rootcover"),
    (pipeline, "closed_entries", "nefcheck"),
    (nefcheck, "closed_entries", "nefcheck"),
    (nefcheck, "config_entries", "nefcheck"),
    (nefcheck, "min_nef_q", "nefcheck"),
    (nefcheck, "nef_report", "nefcheck"),
    (prank, "genus", "prank"),
    (prank, "prank_upper_bound", "prank"),
    (pipeline, "canonical_json", "serialize"),
    (serialize, "canonical_json", "serialize"),
]

LAYERS = (
    "partitions.search", "partitions.sample", "badset", "numtheory", "rootcover",
    "nefcheck", "geometry", "density", "prank", "pipeline", "cli", "serialize",
)


def _count(layer: str, counters: Counter, result) -> None:
    """Per-layer work counters, read off each traced call's return value."""
    if layer == "partitions.sample":
        found, tries = result
        counters["partitions.sample.draws"] += tries
        counters["partitions.sample.hits"] += not isinstance(found, NotFound)
    elif layer == "partitions.search":
        if isinstance(result, NotFound):
            counters["partitions.search.exhausted_attempts"] += result.tries
        else:
            counters["partitions.search.found"] += 1
    elif layer == "rootcover":
        counters["rootcover.nodes"] += len(result.singularities)
        counters["rootcover.distinct_residues"] += len({s.a for s in result.singularities})
    elif layer == "geometry":
        counters["geometry.components"] += len(result.components)
        counters["geometry.nodes"] += result.t2
    elif layer == "serialize" and isinstance(result, str):
        counters["serialize.bytes"] += len(result.encode())


class Tracer:
    """Records spans while installed; `install`/`uninstall` bracket a run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, str, int, int, int] | None] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, layer: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, layer, start, end, parent)
            _count(layer, counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, attr, layer in CALL_SITES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self.span(name, layer, fn))
        # CSV emission in `sweep` goes through cli's `csv` module binding.
        self._saved.append((cli, "csv", cli.csv))
        cli.csv = types.SimpleNamespace(DictWriter=self._csv_writer_class())

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _csv_writer_class(self):
        tracer = self

        class TracedDictWriter(csv.DictWriter):
            def writerows(self, rowdicts):
                return tracer.span("cli.csv_writerows", "serialize", super().writerows)(rowdicts)

        return TracedDictWriter

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Self time and call count per layer, plus the work counters."""
        child_ns = [0] * len(self.spans)
        for _name, _layer, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for i, (_name, layer, start, end, _parent) in enumerate(self.spans):
            self_ns[layer] += end - start - child_ns[i]
            calls[layer] += 1
        c = self.counters
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
            out[f"{layer}.calls"] = calls[layer]
        out["partitions.search.found_ratio"] = _ratio(
            c["partitions.search.found"], calls["partitions.search"])
        out["partitions.search.exhausted_attempts"] = c["partitions.search.exhausted_attempts"]
        out["partitions.sample.draws"] = c["partitions.sample.draws"]
        out["partitions.sample.hit_ratio"] = _ratio(
            c["partitions.sample.hits"], calls["partitions.sample"])
        for key in ("rootcover.nodes", "rootcover.distinct_residues",
                    "geometry.components", "geometry.nodes", "serialize.bytes"):
            out[key] = c[key]
        return out

    def write_spans(self, path: str) -> None:
        """One JSON array per span: [name, layer, start_ns, end_ns, parent index],
        where the parent index is the 0-based line of the enclosing span, or -1."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
