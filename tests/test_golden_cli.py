"""Golden CLI outputs: the first 16 hex digits of the sha256 of stdout.

The pins hold the behaviour of every subcommand fixed across refactors;
a deliberate output change has to update its pin here.
"""
import contextlib
import hashlib
import io
import json

import pytest

from chernslope import cli

FAMILY_A = ["--family", "A", "--p", "2", "--d", "3", "--u", "1", "--w", "1"]

GOLDEN = [
    (["dedekind", "--q", "17", "--a", "5"], 0, "d33204e00dc394f5"),
    (["badset", "--q", "101", "--verify"], 0, "1f630e4612c7b488"),
    # the whole O(q) good set, about a million integers
    (["badset", "--q", "1000003"], 0, "7cbdf3c1ac76b6a3"),
    (["arrangement", *FAMILY_A, "--full"], 0, "f8aaa3a38a1882e5"),
    (["search", *FAMILY_A, "--q", "101", "--seed", "1"], 0, "0d38a79cb19760c5"),
    # rejection fails within 50 draws, the backtracking search succeeds
    (["search", "--family", "A", "--u", "1", "--w", "1", "--q", "101", "--seed", "0",
      "--max-tries", "50"], 0, "16f456c573a2d012"),
    (["search", "--family", "A", "--u", "1", "--w", "1", "--d", "4", "--q", "53",
      "--max-tries", "20"], 3, "faf82012bbb8e604"),
    # exempt full-turn nodes take part in the sampler's fewest_bad/worst_node
    (["search", "--family", "APRIME", "--d", "6", "--r", "2", "--q", "101",
      "--max-tries", "30", "--seed", "3"], 3, "4dbb0a85bb1fa6e9"),
    (["cover", *FAMILY_A, "--q", "499", "--seed", "1", "--singularities"], 0,
     "cfa0d8ecd15f3ee8"),
    (["cover", "--family", "APRIME", "--d", "16", "--r", "4", "--q", "127",
      "--max-tries", "1"], 3, "f8ecdada043e5be5"),
    (["prank", "--q", "17", "--p", "3", "--mults", "5,5,5,2"], 0, "9b6609e85014e56b"),
    (["nef", "--family", "APRIME", "--d", "6", "--find"], 0, "c268f47a1716f395"),
    # the census table too: K.Hbar_i needs u >= 1, K.Gbar_interior needs p^r > 2
    (["nef", "--family", "A", "--d", "4", "--u", "2", "--w", "1", "--r", "2", "--q", "101"], 0,
     "61b36e9737f5efed"),
    (["slope", "--target", "3", "--eps", "1/10", "--family", "A", "--no-sample"], 0,
     "9ef3285545f33429"),
    (["sweep", *FAMILY_A, "--q-min", "490", "--q-max", "525"], 0, "a85c1cbe13d1906b"),
]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_stdout_hash(argv, code, digest):
    got_code, stdout = run_main(argv)
    assert got_code == code
    assert hashlib.sha256(stdout.encode()).hexdigest()[:16] == digest


def test_slope_not_found_reports_sampler_diagnostics():
    # At a pinned q = 127 both the sampler and the search give up; the report
    # carries the search's attempt count and the sampler's diagnostics.
    code, stdout = run_main(["slope", "--target", "14/5", "--eps", "4/5", "--family", "APRIME",
                             "--q-hint", "127", "--max-tries", "5"])
    assert code == 3
    sampled = json.loads(stdout)["sampled"]
    assert sampled["tries"] == 200001
    assert sampled["zero_hits"] == 5
    assert sampled["fewest_bad"] is None
    assert sampled["worst_node"] is None
    assert sampled["escalations"] == [{"q": 127, "rejection_tries": 5, "search_attempts": 200001}]
