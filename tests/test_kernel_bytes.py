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
bytes that the product-form sums of `TruncatedUniverse.set_sum` produced,
before the sum identities moved onto subgroup arithmetic.
"""

from __future__ import annotations

import json

import pytest

from oracles import ut2_table
from test_report_bytes import run_digest

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
}

RUNS = {
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
        "8d6ebd19c5436ab19c35726d81ea692b05d5ad0a3403b317164308732b283c3b",
    "z4cubed verify ideals":
        "daed29743c1fb3cfd5261ff801efe98dec6ac0a16816bff3be19562171ec4e43",
    "z4cubed props":
        "12cdcd5ce8329eb1019e6412961a9737684741ba4fd06fc424e273d57423c81d",
    "ut2_z4 verify ring-axioms":
        "b09fa0bf754d998bbd30fe633dc74010cd90e3793cf69e64cc81d9d8c4add62b",
    "ut2_z4 verify ideals":
        "3b3cd21f73c0d64c972534e001bae094aeb7dca319af71838bba2025a2d4b775",
    "ut2_z4 props":
        "74665321e97232d62d2223d97ad89e407816f70eef68fd72a23725f24c452355",
    "t_z8 verify ideals":
        "157df95dc1b1032b7bb02811bf107539b6afcc0244960f3fbd365c52dd8b6e8b",
    "t_z8 props":
        "b5a4fa36614a32a9357b013e0548bfc8e7458547326b52bc1e48836a72c41fdc",
    "z32 verify lemma4.3":
        "01c5df75e9e5006ce8c9c93007f30c6b8e36eb9daec1799b99c1abb300c52448",
    "z32 verify thm4.5":
        "22134d888d9f939f801b2974e1bdd50e475d3521219f2dd2938354a52f47e3e8",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_kernel_reports_keep_their_bytes(tmp_path, name):
    label, run = name.split(" ", 1)
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps({"label": label, **FIXTURES[label]}))
    argv = [str(path) if arg == "{fx}" else arg for arg in RUNS[run]]
    assert run_digest(argv) == DIGESTS[name]
