"""End-to-end report assembly and reproducibility."""
import contextlib
import io
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from chernslope import cli, density, pipeline
from chernslope.geometry import ArrangementParams, Family, build_resolution
from chernslope.pipeline import run_pipeline
from chernslope.rootcover import BranchAssignment
from chernslope.serialize import canonical_json
from oracles import jsonable, rat


class TestSerialization:
    def test_rational_encoding(self):
        assert rat(Fraction(3, 7)) == {"num": "3", "den": "7"}

    def test_canonical_json_is_sorted_and_stable(self):
        payload = {"b": Fraction(1, 2), "a": [Fraction(3), {"x": 1}]}
        first = canonical_json(payload)
        second = canonical_json({"a": [Fraction(3), {"x": 1}], "b": Fraction(1, 2)})
        assert first == second

    def test_jsonable_handles_nested_containers(self):
        out = jsonable({"k": (Fraction(1, 3), [Fraction(2)])})
        assert out == {"k": [{"num": "1", "den": "3"}, [{"num": "2", "den": "1"}]]}


class TestRunPipeline:
    def test_byte_identical_reruns(self, aprime_result):
        rerun = run_pipeline(Fraction(14, 5), Fraction(4, 5), family="APRIME", seed=2)
        assert aprime_result.to_json() == rerun.to_json()

    def test_sampled_leg_attaches_cover_invariants(self, aprime_result):
        result = aprime_result
        assert result.status == "ok"
        sampled = result.report["sampled"]
        assert sampled["method"] in ("rejection", "backtracking")
        assert (sampled["c1sq"] + sampled["c2"]) % 12 == 0
        assert sampled["nef"]["all_nonnegative"] in (True, False)

    def test_error_within_epsilon(self):
        result = run_pipeline(Fraction(3), Fraction(1, 10), family="A", seed=0,
                              sample=False)
        assert result.status == "ok"
        assert result.report["error"] < Fraction(1, 10)
        assert result.report["sampled"] is None

    def test_component_cap_skips_sampling(self):
        result = run_pipeline(Fraction(3), Fraction(1, 100), family="A", seed=0)
        assert result.status == "ok"
        assert "skipped" in result.report["sampled"]

    def test_node_cap_skips_sampling(self, monkeypatch):
        def refuse(params):
            raise AssertionError("the node cap needs no census")

        monkeypatch.setattr(pipeline, "build_resolution", refuse)
        result = run_pipeline(Fraction(5, 2), Fraction(1, 10), family="APRIME", seed=0)
        assert result.status == "ok"
        assert result.report["sampled"] == {
            "skipped": "configuration has 193536 nodes (cap 20000); "
                       "a good assignment would need a prime q far beyond desk scale",
        }

    def test_q_hint_is_respected(self):
        result = run_pipeline(Fraction(14, 5), Fraction(4, 5), family="APRIME",
                              seed=2, q_hint=8009)
        sampled = result.report["sampled"]
        assert sampled["q"] == 8009


class TestFindAssignment:
    def test_rejects_a_bad_backtracking_result(self, monkeypatch):
        config = build_resolution(ArrangementParams(Family.A, p=2, r=1, e=1, d=3, u=1, w=1))
        base = {"S1": 1, "S2": 1, "S3": 1, "H1": 1, "F1": 2, "F2": 2, "F3": 2, "R1": 3, "S4": 13}
        bad = BranchAssignment.from_base(config, 17, base)
        monkeypatch.setattr(pipeline, "search_assignment", lambda problem, seed: bad)
        with pytest.raises(RuntimeError):
            pipeline.find_assignment(config, 17, seed=0, max_tries=0)


class TestOffTarget:
    """A sampled cover must land within epsilon of the target slope, checked
    exactly. For APRIME (2, 3/20) the limit slope is 2.103 and the cover's
    slope at q = 127, 257, 521, ... is 1.807, 1.907, 1.980, ..."""

    def test_escalates_past_an_off_target_cover(self):
        result = run_pipeline(Fraction(2), Fraction(3, 20), family="APRIME", seed=0)
        assert result.status == "ok"
        sampled = result.report["sampled"]
        assert sampled["q"] == 257
        assert abs(sampled["slope"] - 2) < Fraction(3, 20)
        assert "escalations" not in sampled

    def test_pinned_q_ends_off_target(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["slope", "--target", "2", "--eps", "3/20", "--family", "APRIME",
                             "--q-hint", "127"])
        assert code == 3
        report = json.loads(out.getvalue())
        assert report["status"] == "off_target"
        sampled = report["sampled"]
        assert sampled["q"] == 127
        assert sampled["slope"] == {"num": "4859", "den": "2689"}
        assert sampled["escalations"] == [{
            "q": 127, "method": "backtracking", "slope": {"num": "4859", "den": "2689"},
            "slope_approx": 4859 / 2689,
        }]

    def test_escalations_run_out_off_target(self, monkeypatch):
        # every cover misses a target moved to 1
        solve = density.solve_family_aprime
        monkeypatch.setattr(density, "solve_family_aprime",
                            lambda *args, **kw: replace(solve(*args, **kw), target=Fraction(1)))
        result = run_pipeline(Fraction(2), Fraction(3, 20), family="APRIME", seed=0)
        assert result.status == "off_target"
        sampled = result.report["sampled"]
        steps = sampled["escalations"]
        assert [step["q"] for step in steps] == [127, 257, 521, 1049, 2099, 4201]
        assert sampled["q"] == 4201 and sampled["slope"] == steps[-1]["slope"]
        assert all(abs(step["slope"] - 1) >= Fraction(3, 20) for step in steps)
