"""Report bytes on the larger rings where the table kernels and the universe
sum identities do their work.

`report_digests.json` covers the shipped fixtures, whose rings have at most
16 elements. Three 64-element fixtures are built here: the commutative Z4^3
(27 ideals) and T(Z8) (the trivial extension of Z8, 13 ideals) and the
noncommutative UT2(Z4) (14 two-sided and 26 right ideals), each with a
two-sided and a right ideal given by generators. The ring-axiom scan, the
ideal lattices and closures, the quotients and the property battery must
keep the bytes recorded below: the sha256 of exit code, stdout and stderr,
as in `test_report_bytes.py`. The Z4^3 and UT2(Z4) bytes are those the
direct scans produced before the kernels moved onto table rows; the T(Z8)
bytes are those of the element-wise lattice joins and annihilator sums,
before they moved onto subgroup arithmetic.

A third fixture, Z32 over Z, untwisted, with U = (2), is the benchmark
ladder's Z32 rung. Its `lemma4.3` and `thm4.5` runs (seed 0) must keep the
bytes that the product-form sums of the truncated universe produced,
before the sum identities moved onto subgroup arithmetic.

The noncommutative UT2(Z2), untwisted over Z, has ideals whose left and
right annihilators differ. Its `lemma4.3` run (seed 0) must keep the bytes
it had when every check derived each ideal's annihilators itself, before
they were read from one record per (ideal, side).

The ring-axiom report is also pinned where the generator tests do their
work: on the 256-element Z256 and Z4^4, and on three tables that are not
rings, which exit 2 naming their first failing axiom and its
lexicographically first witness: Z4 x Z4 with + relabelled (distributivity
fails), an F2^3 algebra that is not associative, and a commutative loop of
order 6 (+ is not associative). These bytes are those of the element-pair
row tests, before the O(n^3) axioms moved onto additive generators.

`mn validate` is pinned where twist validation decides the cocycle
conditions from the tau kind: Z2 over Z^3_lex untwisted and Z4 over Z^3_lex
with tau a unit power (343^3 exponent triples each), GF4 over Z^2_lex with
Frobenius and tau a power of the unit 1, which Frobenius fixes, and the same
with the unit 2, which Frobenius moves: that one is scanned and exits 2
naming its associativity witness. These bytes are those of the tabulated
|W|^3 scan, before the decision.

The pins that changed were re-recorded once, when prop3.2 stopped drawing series:
each `verify` report lost the `"samples": 100` line of its params, and a
validated twist reports as `checked` the exponent triples its decision
covers, not a sample count. No other byte changed.

The three `props` pins and the Z32 `thm4.5` pin were re-recorded once
more, when SA's certificate became an index table over the two-sided
ideals (`ideals` and `K`, replacing one {I, J, K} entry per pair) and
sa-transfer's certificate lost its `K0` field. With those fields removed
the reports are the earlier ones, and the table read pair by pair gives
the earlier entries.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import mnseries
from mnseries.cli import fixture_dir
from mnseries.rings import ring_product, ring_zn
from oracles import f2_algebra_table, loop_table, relabelled_add_table, ut2_table
from test_report_bytes import run_digest

_Z4 = {"kind": "Zn", "n": 4}
_SWAP_1_2 = [0, 2, 1, *range(3, 16)]
_LOOP6 = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
          [3, 2, 5, 4, 1, 0], [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]]
_GF4 = {"kind": "table", **json.loads(fixture_dir().joinpath("gf4_ring.json").read_text())}
_FROBENIUS = {"generators": [[0, 1, 3, 2], "identity"]}


def _lex(k):
    return {"group": "Z^k_lex", "k": k}


FIXTURES = {
    # (a, b, c) in Z4^3 has id 16a + 4b + c
    "z4cubed": {
        "ring": {"kind": "product", "factors": [
            {"kind": "Zn", "n": 4},
            {"kind": "product", "factors": [{"kind": "Zn", "n": 4}, {"kind": "Zn", "n": 4}]}]},
        "ideals": {"U": {"kind": "twosided", "gens": [32, 2]},
                   "P": {"kind": "right", "gens": [20]}},
    },
    # [[a, b], [0, c]] in UT2(Z4) has id 16a + 4b + c
    "ut2_z4": {
        "ring": {"kind": "table", **ut2_table(4)},
        "ideals": {"U": {"kind": "twosided", "gens": [4]},
                   "P": {"kind": "right", "gens": [16]}},
    },
    # (a, b) in T(Z8), with (a, b)(c, d) = (ac, ad + bc), has id 8a + b
    "t_z8": {
        "ring": {"kind": "trivial_extension", "base": {"kind": "Zn", "n": 8}},
        "ideals": {"U": {"kind": "twosided", "gens": [16, 1]},
                   "P": {"kind": "right", "gens": [20]}},
    },
    "z32": {
        "ring": {"kind": "Zn", "n": 32},
        "group": {"group": "Z"},
        "twist": {"sigma": "identity", "tau": {"kind": "one"}},
        "ideals": {"U": {"kind": "twosided", "gens": [2]}},
    },
    # UT2(Z2), where left and right annihilators differ, untwisted over Z
    "ut2_z2": {
        "ring": {"kind": "table", **ut2_table(2)},
        "group": {"group": "Z"},
        "twist": {"sigma": "identity", "tau": {"kind": "one"}},
    },
    "z256": {"ring": {"kind": "Zn", "n": 256}},
    "z4_4": {"ring": {"kind": "product", "factors": [_Z4, {"kind": "product", "factors": [
        _Z4, {"kind": "product", "factors": [_Z4, _Z4]}]}]}},
    "relabelled": {"ring": {"kind": "table", **relabelled_add_table(
        ring_product(ring_zn(4), ring_zn(4)), _SWAP_1_2)}},
    "f2cubed": {"ring": {"kind": "table", **f2_algebra_table(
        3, {(1, 1): 4, (1, 2): 2, (2, 1): 0, (2, 2): 3})}},
    "loop6": {"ring": {"kind": "table", **loop_table(_LOOP6)}},
    "z2_z3lex": {"ring": {"kind": "Zn", "n": 2}, "group": _lex(3),
                 "twist": {"sigma": "identity", "tau": {"kind": "one"}}},
    "z4_z3lex_tau": {"ring": _Z4, "group": _lex(3), "twist": {
        "sigma": "identity", "tau": {"kind": "unit_power", "unit": 3,
                                     "exponent_rule": [[0, 1, 0], [0, 1, 1], [-1, 0, 2]]}}},
    "gf4_z2lex_u1": {"ring": _GF4, "group": _lex(2), "twist": {
        "sigma": _FROBENIUS,
        "tau": {"kind": "unit_power", "unit": 1, "exponent_rule": [[1, 0], [1, 1]]}}},
    "gf4_z2lex_u2": {"ring": _GF4, "group": _lex(2), "twist": {
        "sigma": _FROBENIUS,
        "tau": {"kind": "unit_power", "unit": 2, "exponent_rule": [[1, 0], [1, 1]]}}},
}

RUNS = {
    "validate": ["validate", "{fx}", "--format", "json"],
    "verify ring-axioms": ["verify", "{fx}", "--suite", "ring-axioms", "--format", "json"],
    "verify ideals": ["verify", "{fx}", "--suite", "ideals", "--format", "json"],
    "props": ["props", "{fx}", "--format", "json"],
    "verify lemma4.3": ["verify", "{fx}", "--suite", "lemma4.3", "--format", "json",
                        "--seed", "0"],
    "verify thm4.5": ["verify", "{fx}", "--suite", "thm4.5", "--format", "json",
                      "--seed", "0"],
}

DIGESTS = {
    "z4cubed verify ring-axioms":
        "78dbf7c4de2a1cabf857b33c969b37ba34ca9155f28c474eb0493c070eb0e200",
    "z4cubed verify ideals":
        "93ae2e04f1f7f6d1c16db444e6048a2b9b637491bbf0bf46373be5efea807e2c",
    "z4cubed props":
        "8f2f22d0a2280d675fdff3f259321cfab7de52d91cedb288caa051d7908bb2b3",
    "ut2_z4 verify ring-axioms":
        "d80077588a2b3c610544ee123aeb1d6862606f382e1bb6201b5aef02e86d38e3",
    "ut2_z4 verify ideals":
        "91eb8477b0018e5e749907874cb345498938927552ab488a9ab0c63313e3dcf6",
    "ut2_z4 props":
        "97f92c43fc76b00ff65e7c34b4f4d2681ebe6f52557bffbc9ae138a72ee009de",
    "t_z8 verify ideals":
        "e41d473bab4816162b1e0d825eb77449bd5316476b5bcdf1c9efa84f792d0002",
    "t_z8 props":
        "6e7ba22cdc899108634c1cef9e33fde6670510ccf5bca52dbe0083ad04d30f26",
    "z32 verify lemma4.3":
        "c6a0140c4189312808623bf667c39ab5626b87cdc9cf7f0889cd40d876a1f80d",
    "z32 verify thm4.5":
        "1522d337cff42b76f22582ec7b2796c1d5d511ce90b3a618cbabdd771617da15",
    "ut2_z2 verify lemma4.3":
        "e85f54a241ece4f37a86cb8d916e30e2a0944d7e13445a577c2d5f952c8de260",
    "z256 verify ring-axioms":
        "2b88d2437a9cfb6b3ed9890af804c8f45940a57e4da6188826d1ebd338dc647c",
    "z4_4 verify ring-axioms":
        "6743da2d541833b55c5c9e0f6c073b5c44779cfe0a759dbca2aa1df9c5db84ef",
    "relabelled verify ring-axioms":
        "7fb9c6c1ec47cbf2c498c02b7277d3a373635ca7dc0e7d63f89e4985734467db",
    "f2cubed verify ring-axioms":
        "c592a549d63b612b549c8cb1c4d350fb4c6e1d0ec5898740ee5f3c987bf053f6",
    "loop6 verify ring-axioms":
        "e7eff743bf66083327716b66fb142ebda030a6e89478665d3228fce93c17ff55",
    "z2_z3lex validate":
        "794e7fead3464db4802d391581ca5e8fa12335f59ca21390ffbcabbe314d6d05",
    "z4_z3lex_tau validate":
        "6e0bdd70f31b501afbb0acc4df7dc218503d438ea0af24612635e7023798f690",
    "gf4_z2lex_u1 validate":
        "8745351b8ad0c10c3a2282a8da65e726840b38e24e6108c3861ee3f9a3cd7dfd",
    "gf4_z2lex_u2 validate":
        "15cf986b4ef6ea377cc0405aee746e9368146e497807cf72e5716fafe2ef2f3a",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_kernel_reports_keep_their_bytes(tmp_path, name):
    label, run = name.split(" ", 1)
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps({"label": label, **FIXTURES[label]}))
    argv = [str(path) if arg == "{fx}" else arg for arg in RUNS[run]]
    assert run_digest(argv) == DIGESTS[name]


def test_a_reader_that_closes_the_pipe_early_leaves_no_traceback(tmp_path):
    """`mn props z4cubed --format json | head -1` after `head` has exited:
    the child's stdout is a pipe whose read end is already closed, so its
    first write of the report (24,778 bytes) fails whatever the pipe's
    buffer holds; the run ends with exit code 1 and no traceback."""
    path = tmp_path / "z4cubed.json"
    path.write_text(json.dumps({"label": "z4cubed", **FIXTURES["z4cubed"]}))
    src = os.path.dirname(os.path.dirname(mnseries.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "mnseries.cli", "props", str(path),
                               "--format", "json"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 1, err
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
