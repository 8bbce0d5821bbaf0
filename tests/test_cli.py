"""Command-line interface: JSON/CSV output, exit codes, config files."""
import contextlib
import csv
import functools
import io
import json
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chernslope import cli, partitions, pipeline

CLI = [sys.executable, "-m", "chernslope.cli"]


def run_cli(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kw)


# family A, d=3, u=1, w=1 at q=17: the sections sum to 17, 2*(S1+S2+S3+H1) + fibers = 17
GOOD_BASE = {"S1": 1, "S2": 1, "S3": 1, "H1": 1, "F1": 2, "F2": 2, "F3": 2, "R1": 3, "S4": 13}


def cover_from_base(tmp_path, base):
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base))
    return run_cli("cover", "--family", "A", "--u", "1", "--w", "1",
                   "--q", "17", "--base-file", str(path))


class TestDedekind:
    def test_json_fields(self):
        proc = run_cli("dedekind", "--q", "7", "--a", "2")
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["digits"] == [4, 2]
        assert out["length"] == 2

    def test_rational_serialization(self):
        proc = run_cli("dedekind", "--q", "5", "--a", "1")
        out = json.loads(proc.stdout)
        assert out["s"] == {"num": "1", "den": "5"}

    def test_invalid_input_exits_2(self):
        proc = run_cli("dedekind", "--q", "6", "--a", "2")
        assert proc.returncode == 2


class TestBadset:
    def test_good_set_at_17(self):
        proc = run_cli("badset", "--q", "17")
        out = json.loads(proc.stdout)
        assert sorted(out["good"]) == [5, 7, 10, 12]

    def test_verify_flag(self):
        proc = run_cli("badset", "--q", "101", "--verify")
        out = json.loads(proc.stdout)
        assert out["bounds"]["ok"] is True


class TestArrangement:
    def test_closed_matches_census(self):
        proc = run_cli("arrangement", "--family", "A0", "--d", "3")
        out = json.loads(proc.stdout)
        assert out["closed"]["c1sq_bar"] == out["census"]["c1sq_bar"] == 6
        assert out["closed"]["c2_bar"] == out["census"]["c2_bar"] == 2
        assert out["census"]["components"] == 13

    def test_invalid_params_exit_2(self):
        proc = run_cli("arrangement", "--family", "A0", "--d", "2")
        assert proc.returncode == 2


class TestSearchAndCover:
    def test_search_small_prime_uses_fallback(self):
        proc = run_cli("search", "--family", "A", "--u", "1", "--w", "1",
                       "--q", "101", "--seed", "0", "--max-tries", "50")
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["status"] == "ok"
        assert out["method"] == "backtracking"

    def test_cover_from_base_file(self, tmp_path):
        proc = cover_from_base(tmp_path, GOOD_BASE)
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        c1sq = int(out["c1sq"]["num"])
        c2 = int(out["c2"]["num"])
        assert out["c1sq"]["den"] == out["c2"]["den"] == "1"
        assert (c1sq + c2) % 12 == 0

    def test_not_found_exits_3(self):
        # an impossible budget on a hard prime: rejection and backtracking
        # are both given almost no room
        proc = run_cli("cover", "--family", "APRIME", "--d", "16", "--r", "4",
                       "--q", "127", "--max-tries", "1")
        assert proc.returncode == 3


APRIME_SLOPE = ("slope", "--target", "14/5", "--eps", "4/5", "--family", "APRIME",
                "--seed", "2")


@pytest.fixture(scope="module")
def aprime_slope():
    """One CLI run of the pinned APRIME case, shared by the tests that read it."""
    return run_cli(*APRIME_SLOPE)


class TestSlope:
    def test_end_to_end_json(self, aprime_slope):
        proc = aprime_slope
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["status"] == "ok"
        assert out["sampled"]["method"] in ("rejection", "backtracking")

    def test_oversized_configuration_skips_sampling(self):
        proc = run_cli("slope", "--target", "5/2", "--eps", "1/10",
                       "--family", "APRIME", "--seed", "1")
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["status"] == "ok"
        assert "skipped" in out["sampled"]

    def test_reproducible(self, aprime_slope):
        assert aprime_slope.stdout == run_cli(*APRIME_SLOPE).stdout

    @pytest.mark.parametrize("p", ["17", "3"])
    def test_pinned_q_equal_to_p_exits_2(self, capsys, p):
        # a pinned q is tried as given, never stepped to the next prime
        args = ["slope", "--target", "2", "--eps", "1", "--family", "APRIME",
                "--p", p, "--q-hint", p]
        assert cli.main(args) == 2
        assert capsys.readouterr().err == f"error: q must be a prime different from p, got {p}\n"
        # a report that samples nothing never reads q
        assert cli.main(args + ["--no-sample"]) == 0


class TestPrank:
    def test_output(self):
        proc = run_cli("prank", "--q", "17", "--p", "3", "--mults", "1,2,14")
        out = json.loads(proc.stdout)
        assert out["primitive_root"] is True
        assert out["B"] == 0

    def test_non_primitive_root(self):
        proc = run_cli("prank", "--q", "17", "--p", "2", "--mults", "1,2,14")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["primitive_root"] is False  # 2^8 = 1 mod 17

    def test_out_of_memory_exits_2(self):
        # the q-long Frobenius table cannot be allocated: one error line, no
        # traceback. The address-space limit keeps a failure from eating memory.
        limit = 1 << 30
        proc = run_cli("prank", "--q", "1000000000000000003", "--p", "3",
                       "--mults", "1,1000000000000000002", timeout=60,
                       preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


class TestNef:
    def test_find_threshold(self):
        proc = run_cli("nef", "--family", "A0", "--d", "3", "--find")
        out = json.loads(proc.stdout)
        assert out["min_nef_q"] == 17
        assert out["all_nonnegative"] is True


class TestLargeModulus:
    NEF = ("nef", "--family", "A", "--d", "3", "--u", "1", "--w", "1", "--q")

    def test_primality_of_a_large_q_is_decided_in_bounded_time(self):
        proc = run_cli(*self.NEF, str(10**18 + 3), timeout=10)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["q"] == 10**18 + 3

    def test_q_beyond_the_exact_primality_range_exits_2(self):
        proc = run_cli(*self.NEF, str(3_317_044_064_679_887_385_961_981))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert len(proc.stderr.splitlines()) == 1


class TestSweep:
    def test_csv_shape_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["sweep", "--family", "A", "--u", "1", "--w", "1",
                "--q-min", "490", "--q-max", "525", "--seed", "9",
                "--max-tries", "100"]
        assert run_cli(*args, "--out", str(out1)).returncode == 0
        assert run_cli(*args, "--out", str(out2)).returncode == 0
        assert out1.read_text() == out2.read_text()
        rows = list(csv.DictReader(io.StringIO(out1.read_text())))
        assert [int(r["q"]) for r in rows] == sorted(int(r["q"]) for r in rows)
        assert {"q", "seed", "status", "tries", "c1sq", "c2", "chi",
                "slope_approx", "limit_slope_approx", "abs_err_approx",
                "c_correction", "defect_bound"} <= set(rows[0])


class TestInvalidInputExits2:
    @pytest.mark.parametrize("args", [
        ("badset", "--q", "17", "--C", "1/0"),
        ("slope", "--target", "1/0"),
        ("nef", "--d", "3"),
        ("slope", "--target", "0.3e400"),  # beyond the float range of `target_approx`
        # argparse's own errors: a value read as an option, a missing value,
        # a bad choice, no subcommand
        ("slope", "--target", "-1/2"),
        ("search", "--q"),
        ("cover", "--family", "Q", "--q", "17"),
        (),
    ])
    def test_one_error_line(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("args", [
        ("search", "--family", "A", "--u", "1", "--w", "1", "--q", "53", "--max-tries", "-3"),
        ("cover", "--family", "A", "--u", "1", "--w", "1", "--q", "53", "--max-tries", "-3"),
        ("slope", "--target", "5/2", "--eps", "1/2", "--family", "APRIME", "--max-tries", "-2"),
        ("sweep", "--family", "A", "--u", "1", "--w", "1", "--q-min", "50", "--q-max", "60",
         "--max-tries", "-1"),
        ("sweep", "--family", "A", "--u", "1", "--w", "1", "--q-min", "24", "--q-max", "28",
         "--max-tries", "-1"),  # no prime in range
    ], ids=["search", "cover", "slope", "sweep", "sweep-no-prime"])
    def test_negative_max_tries(self, capsys, args):
        assert cli.main(list(args)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: max_tries must be non-negative, got {args[-1]}\n"

    @pytest.mark.parametrize("args", [("--help",), ("search", "--help")])
    def test_help_still_prints_usage(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: chernslope")
        assert proc.stderr == ""

    @pytest.mark.parametrize("base", [
        [1, 2, 3], {"S1": None},
        # a float, an integral float, a bool and a string: none is a JSON integer
        *({**GOOD_BASE, "S1": value} for value in (1.9, 2.0, True, "3")),
    ])
    def test_base_file_not_an_object_of_integers(self, tmp_path, base):
        proc = cover_from_base(tmp_path, base)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert len(proc.stderr.splitlines()) == 1

    # each breaks a relation the sampler builds in, which leaves c1^2 non-integral
    @pytest.mark.parametrize("change", [{"S4": 14}, {"R1": 4}, {"S1": 2, "S4": 12}])
    def test_base_file_breaking_linear_equivalence(self, tmp_path, change):
        proc = cover_from_base(tmp_path, {**GOOD_BASE, **change})
        assert proc.returncode == 2
        assert proc.stderr == "error: the multiplicities break linear equivalence mod 17\n"

    def test_aprime_base_file_with_unpaired_sections(self, tmp_path):
        # every multiplicity 1: no pair sums to 0 mod q, and chi would not be an integer
        path = tmp_path / "base.json"
        path.write_text(json.dumps({cid: 1 for cid in ("S1", "S2", "S3", "S4", "F1", "F2",
                                                       "F3", "F4", "F5", "F6")}))
        proc = run_cli("cover", "--family", "APRIME", "--d", "4", "--q", "17",
                       "--base-file", str(path))
        assert proc.returncode == 2
        assert proc.stderr == "error: the APRIME pair S1, S2 does not sum to 0 mod 17\n"

    # at q = p = 2 this base once printed a cover with slope 5/34 and exit 0
    @pytest.mark.parametrize("q", [2, 91], ids=["q=p", "composite"])
    def test_base_file_q_not_a_prime_other_than_p(self, tmp_path, q):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({**{f"S{i}": 1 for i in range(1, 7)},
                                    **{f"F{i}": 1 for i in range(1, 11)}}))
        proc = run_cli("cover", "--family", "A0", "--p", "2", "--d", "5", "--q", str(q),
                       "--base-file", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: q must be a prime different from p, got {q}\n"

    # S9 does not exist; G1.1 is a chain curve, whose multiplicity is derived
    @pytest.mark.parametrize("extra", ["S9", "G1.1"])
    def test_base_file_key_naming_no_base_component(self, tmp_path, extra):
        proc = cover_from_base(tmp_path, {**GOOD_BASE, extra: 5})
        assert proc.returncode == 2
        assert proc.stderr == f"error: {extra} is not a base component\n"


# rational option values as `_fraction` reads them: integers, decimals,
# exponent forms (often near or past the float range) and fractions, of
# either sign
_digits = st.integers(0, 10**6).map(str)
_signed = st.builds(lambda sign, text: sign + text, st.sampled_from(["", "-"]), _digits)
_decimal = st.builds(lambda i, f: f"{i}.{f}", _signed, _digits)
_exponent = st.builds(lambda m, e: f"{m}e{e}", _signed | _decimal,
                      st.integers(-400, 400) | st.integers(300, 400))
_number = _signed | _decimal | _exponent | st.builds(lambda n, d: f"{n}/{d}", _signed, _digits)


class TestSlopeTargets:
    @given(_number, _number, st.sampled_from(["A", "APRIME"]))
    @example("0.3e400", "1/100", "A")
    @settings(max_examples=200, deadline=None)
    def test_any_target_and_eps_exit_cleanly(self, target, eps, family):
        # in process, so an escaping exception fails the test; `--target=`
        # keeps a leading minus sign from reading as an option
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["slope", f"--target={target}", f"--eps={eps}",
                             "--family", family, "--no-sample"])
        assert code in (0, 2, 3)


# argument vectors for every subcommand, mostly valid: small q (mostly primes),
# d <= 6, --max-tries <= 5, and `slope` only with --no-sample
_small_q = st.sampled_from([-1, 0, 1, 9, 2, 3, 17, 31, 53, 101, 127, 211, 307])
_max_tries = st.integers(-1, 5)


@st.composite
def _family_argv(draw):
    family = draw(st.sampled_from(["A0", "A", "APRIME"]))
    d = draw(st.sampled_from([4, 6]) if family == "APRIME" else st.integers(3, 6))
    u, w = (draw(st.integers(0, 1)), draw(st.integers(0, 1))) if family == "A" else (0, 0)
    argv = ["--family", family, "--p", str(draw(st.sampled_from([2, 3]))),
            "--r", str(draw(st.integers(1, 2))), "--e", str(draw(st.integers(1, 2))),
            "--d", str(d), "--u", str(u), "--w", str(w)]
    # half the vectors override one option with a value it refuses; the later flag wins
    return argv + draw(st.sampled_from(
        [[]] * 4 + [["--family", "Q"], ["--p", "4"], ["--d", "2"], ["--u", "-1"]]))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["dedekind", "badset", "arrangement", "search", "cover",
                                    "slope", "prank", "nef", "sweep"]))
    q = draw(_small_q)
    if command == "dedekind":
        return [command, "--q", str(q), "--a", str(draw(st.integers(-1, max(q, 1))))]
    if command == "badset":
        return [command, "--q", str(q), "--C", draw(st.sampled_from(["1", "1/2", "0"])),
                *draw(st.sampled_from([[], ["--verify"]]))]
    if command == "prank":
        mults = draw(st.sampled_from([f"1,{q - 1}", f"1,1,{q - 2}", "1,1", "x"]))
        return [command, "--q", str(q), "--p", str(draw(st.sampled_from([2, 3, 5]))),
                "--mults", mults]
    if command == "slope":
        return [command, "--target", draw(st.sampled_from(["2", "5/2", "14/5", "3", "1", "9"])),
                "--eps", draw(st.sampled_from(["1/100", "1/2", "-1"])),
                "--family", draw(st.sampled_from(["A", "APRIME"])),
                "--p", str(draw(st.sampled_from([2, 3]))),
                "--max-tries", str(draw(_max_tries)), "--no-sample"]
    argv = [command, *draw(_family_argv())]
    if command == "arrangement":
        return argv + draw(st.sampled_from([[], ["--closed-only"], ["--full"]]))
    if command == "nef":
        return argv + draw(st.sampled_from([["--q", str(q)], ["--find", "--q-cap", str(q)]]))
    tries = ["--seed", str(draw(st.integers(0, 3))), "--max-tries", str(draw(_max_tries))]
    if command == "sweep":
        q_min = draw(st.integers(-1, 120))
        return argv + ["--q-min", str(q_min), "--q-max", str(q_min + draw(st.integers(-2, 20))),
                       *tries]
    if command == "cover":
        tries += draw(st.sampled_from([[], ["--singularities"]]))
    return argv + ["--q", str(q), *tries]


class TestDrawnArguments:
    @given(_argv())
    # not-found runs: the sampler's 2 draws and the search's budget run out
    @example(["search", "--family", "A", "--u", "1", "--w", "1", "--d", "4", "--q", "53",
              "--max-tries", "2"])
    @example(["cover", "--family", "A", "--u", "1", "--w", "1", "--d", "4", "--q", "53",
              "--max-tries", "2"])
    @example(["sweep", "--family", "A", "--u", "1", "--w", "1", "--d", "4", "--q-min", "41",
              "--q-max", "60", "--max-tries", "2"])
    @settings(max_examples=150, deadline=None)
    def test_exit_codes(self, argv):
        # in process, so an escaping exception fails the test; a small search
        # budget keeps each call short
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            mp.setattr(pipeline, "search_assignment",
                       functools.partial(partitions.search_assignment, node_budget=2000))
            code = cli.main(argv)
        assert code in (0, 2, 3)
        if code == 2:
            assert err.getvalue().startswith("error: ")
            assert len(err.getvalue().splitlines()) == 1


class TestClosedStdout:
    def test_reader_closing_early_exits_1_quietly(self):
        # about 1 MB of JSON: the writer is still writing when the reader closes
        with subprocess.Popen(CLI + ["badset", "--q", "100003"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            assert proc.wait(timeout=60) == 1
            assert proc.stderr.read() == b""


class TestStdlibOnlyRuntime:
    def test_import_loads_no_third_party_module(self):
        # a fresh interpreter, so modules the test run loaded do not hide any
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import chernslope, chernslope.cli\n"
            "top = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(top - set(sys.stdlib_module_names) - {'chernslope'}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "opts.conf"
        cfg.write_text("q=7\na=2\n")
        via_file = run_cli("--config", str(cfg), "dedekind")
        assert json.loads(via_file.stdout)["q"] == 7
        overridden = run_cli("--config", str(cfg), "dedekind", "--q", "5", "--a", "1")
        assert json.loads(overridden.stdout)["q"] == 5

    def test_config_without_path_exits_2(self):
        proc = run_cli("dedekind", "--q", "7", "--a", "2", "--config")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")
        assert len(proc.stderr.splitlines()) == 1

    def test_boolean_key_takes_one_or_zero(self, tmp_path):
        cfg = tmp_path / "opts.conf"
        for value, has_bounds in (("1", True), ("yes", True), ("true", True),
                                  ("0", False), ("no", False), ("false", False)):
            cfg.write_text(f"q=101\nverify={value}\n")
            proc = run_cli("--config", str(cfg), "badset")
            assert proc.returncode == 0, (value, proc.stderr)
            assert ("bounds" in json.loads(proc.stdout)) is has_bounds, value

    def test_boolean_key_with_other_value_exits_2(self, tmp_path):
        cfg = tmp_path / "opts.conf"
        cfg.write_text("q=101\nverify=maybe\n")
        proc = run_cli("--config", str(cfg), "badset")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert len(proc.stderr.splitlines()) == 1

    def test_key_of_another_subcommand_is_skipped(self, tmp_path):
        # one file serving dedekind and search: seed/max_tries/family are search's
        cfg = tmp_path / "opts.conf"
        cfg.write_text("q=7\na=2\nseed=3\nmax_tries=50\nfamily=A\n")
        proc = run_cli("--config", str(cfg), "dedekind")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["digits"] == [4, 2]

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "opts.conf"
        cfg.write_text("q=7\na=2\nbogus_key=1\n")
        proc = run_cli("--config", str(cfg), "dedekind")
        assert proc.returncode == 2
        assert proc.stderr == "error: unknown config key 'bogus_key'\n"


def readme_examples():
    """The `chernslope ...` lines of README.md's sh blocks, as argument lists."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```sh\n(.*?)^```", readme.read_text(encoding="utf-8"), re.M | re.S)
    return [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
            if line.startswith("chernslope ")]


class TestReadmeExamples:
    def test_readme_has_examples(self):
        assert len(readme_examples()) >= 9

    @pytest.mark.parametrize("args", readme_examples(), ids=lambda args: " ".join(args))
    def test_example_exits_0(self, capsys, args):
        assert cli.main(args) == 0
        assert capsys.readouterr().out
