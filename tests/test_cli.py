import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mnseries.cli as cli
import mnseries.ideals as ideals
import mnseries.properties as properties
import mnseries.rings as rings
import mnseries.series as series
import mnseries.transfer as transfer
from mnseries.cli import (SUITE_NAMES, canonical_json, emit_report, load_fixture, main,
                          resolve_fixture, run_suite, shipped_fixtures)
from mnseries.errors import ParseError, SuiteUnknown, ValidationError
from mnseries.groups import LexProductGroup
from mnseries.ideals import classify_kind, ideal_closure
from oracles import ut2_table

GOOD_FIXTURES = ("z4_example_5_5", "t_z4_example_5_6", "klein_fusible",
                 "gf4_frobenius", "z4_tau_power")


def test_shipped_fixture_listing():
    names = shipped_fixtures()
    for name in GOOD_FIXTURES + ("z4_tau_corrupted",):
        assert name in names


@pytest.mark.parametrize("name", GOOD_FIXTURES)
def test_shipped_fixtures_load_and_validate(name):
    fx = load_fixture(resolve_fixture(name))
    assert fx.label == name
    assert fx.ring.size in (4, 16)
    for suite in fx.suites:
        assert suite in SUITE_NAMES


def test_corrupted_fixture_fails_validation_with_witness():
    with pytest.raises(ValidationError) as exc:
        load_fixture(resolve_fixture("z4_tau_corrupted"))
    message = str(exc.value)
    assert "associativity witness" in message
    assert "cocycle-standard" in message


def test_corrupted_fixture_loads_without_validation():
    fx = load_fixture(resolve_fixture("z4_tau_corrupted"), validate=False)
    assert fx.twist is not None


def test_parse_errors(tmp_path):
    with pytest.raises(ParseError):
        resolve_fixture("no_such_fixture")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_fixture(bad)
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    with pytest.raises(ParseError):
        load_fixture(empty)


def test_bad_ideal_rejected(tmp_path):
    doc = {"label": "bad_ideal", "ring": {"kind": "Zn", "n": 4},
           "ideals": {"U": {"kind": "twosided", "members": [0, 1]}}}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_fixture(path)


def test_unknown_suite_rejected():
    fx = load_fixture(resolve_fixture("z4_example_5_5"))
    with pytest.raises(SuiteUnknown):
        run_suite(fx, "thm9.9")


def test_not_applicable_suite_warns_not_fails():
    fx = load_fixture(resolve_fixture("z4_example_5_5"))
    rep = run_suite(fx, "prop3.2")
    assert rep.status == "not_applicable"
    assert rep.checks[0].verdict is None
    assert "not left fusible" in rep.checks[0].note


def test_claimed_suite_with_failing_precondition_fails(tmp_path):
    doc = {"label": "z4_claims_fusible", "ring": {"kind": "Zn", "n": 4},
           "group": {"group": "Z"},
           "twist": {"sigma": "identity", "tau": {"kind": "one"}},
           "suites": ["prop3.2"]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    fx = load_fixture(path)
    rep = run_suite(fx, "prop3.2")
    assert rep.status == "fail"
    assert rep.checks[0].verdict is False


def test_suites_pass_on_claimed_fixtures():
    for name in GOOD_FIXTURES:
        fx = load_fixture(resolve_fixture(name))
        for suite in fx.suites:
            rep = run_suite(fx, suite)
            assert rep.status == "pass", (name, suite, emit_report(rep))


def test_report_json_round_trip():
    fx = load_fixture(resolve_fixture("z4_example_5_5"))
    rep = run_suite(fx, "examples")
    data = json.loads(emit_report(rep, "json"))
    assert data == rep.to_json()
    assert emit_report(data, "json") == emit_report(rep, "json")


def test_report_bytes_deterministic():
    fx1 = load_fixture(resolve_fixture("klein_fusible"))
    fx2 = load_fixture(resolve_fixture("klein_fusible"))
    out1 = emit_report(run_suite(fx1, "prop3.2", seed=5), "json")
    out2 = emit_report(run_suite(fx2, "prop3.2", seed=5), "json")
    assert out1 == out2


def test_text_report_includes_witness():
    fx = load_fixture(resolve_fixture("z4_example_5_5"))
    rep = run_suite(fx, "properties")
    text = emit_report(rep, "text")
    assert "[false] left-fusible" in text
    fusible = next(c for c in rep.checks if c.prop == "left-fusible")
    assert f"witness: {fusible.witness}" in text


def test_window_override_changes_params():
    fx = load_fixture(resolve_fixture("z4_example_5_5"))
    rep = run_suite(fx, "thm5.4", overrides={"window": [0, 1]})
    assert rep.params["window"] == [0, 1]


@pytest.mark.parametrize("overrides, fragment", [
    ({"max_support": -1}, "cap 'max_support' must be >= 0"),
    ({"max_support": "3"}, "cap 'max_support' must be an integer"),
    ({"window": [2, 0]}, "cap 'window' 2..0 is empty (lo > hi)"),
    ({"window": [0]}, "cap 'window' must be a pair of integers"),
    ({"windw": [0, 1]}, "unknown cap 'windw'"),
])
@pytest.mark.parametrize("fixture, suite", [("z4_tau_power", "properties"),
                                            ("z4_example_5_5", "thm5.4")])
def test_run_suite_overrides_pass_the_cap_checks(fixture, suite, overrides, fragment):
    """Overrides are checked as a fixture's own caps are: a negative
    max_support gave a "certified" G-Armendariz verdict, and an empty window
    a claimed thm5.4 that failed, where the input is what is wrong."""
    fx = load_fixture(resolve_fixture(fixture))
    with pytest.raises(ValidationError, match=f"fixture '{fixture}': {re.escape(fragment)}"):
        run_suite(fx, suite, overrides=overrides)


# --- the mn entry point ---


def test_main_validate_ok(capsys):
    assert main(["validate", "z4_example_5_5"]) == 0
    assert "valid" in capsys.readouterr().out


def test_main_validate_corrupted(capsys):
    assert main(["validate", "z4_tau_corrupted"]) == 2
    assert "associativity witness" in capsys.readouterr().err


def test_main_missing_fixture(capsys):
    assert main(["validate", "missing_fixture"]) == 2


def test_main_ideals(capsys):
    assert main(["ideals", "z4_example_5_5", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ideals"] == [[0], [0, 2], [0, 1, 2, 3]]


def test_main_props_single_property(capsys):
    assert main(["props", "z4_example_5_5", "--property", "SA"]) == 0
    out = capsys.readouterr().out
    assert "[true] SA" in out


def test_main_props_unknown_property_lists_the_available_ones(capsys):
    assert main(["props", "z4_example_5_5", "--property", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no property named 'nope'; available: "
                                   "zero-divisors, left-fusible, sigma-compatible, ")
    assert "G-armendariz" in captured.err


def test_main_verify_pass_and_warn(capsys):
    assert main(["verify", "z4_example_5_5", "--suite", "examples"]) == 0
    capsys.readouterr()
    assert main(["verify", "z4_example_5_5", "--suite", "prop3.2"]) == 0
    captured = capsys.readouterr()
    assert "not applicable" in captured.err


def test_main_verify_fail_exit_code(tmp_path, capsys):
    doc = {"label": "z4_claims_fusible", "ring": {"kind": "Zn", "n": 4},
           "group": {"group": "Z"},
           "twist": {"sigma": "identity", "tau": {"kind": "one"}},
           "suites": ["prop3.2"]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--suite", "prop3.2"]) == 1


def test_main_verify_out_and_report_rerender(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "klein_fusible", "--suite", "prop3.2",
                 "--out", str(out), "--format", "json"]) == 0
    shown = capsys.readouterr().out.strip()
    assert json.loads(shown) == json.loads(out.read_text())
    assert main(["report", str(out)]) == 0
    rendered = capsys.readouterr().out
    assert "suite prop3.2 on klein_fusible" in rendered
    assert main(["report", str(out), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(out.read_text())


def _keys(value):
    if isinstance(value, dict):
        return set(value).union(*map(_keys, value.values()))
    if isinstance(value, list):
        return set().union(*map(_keys, value))
    return set()


def test_main_verify_is_timing_free_by_default(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "z4_tau_power", "--suite", "thm5.4",
                 "--out", str(out), "--format", "json"]) == 0
    assert "elapsed" not in _keys(json.loads(capsys.readouterr().out))
    assert "elapsed" not in _keys(json.loads(out.read_text()))


def test_main_verify_timings_reach_stdout_out_and_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "z4_tau_power", "--suite", "thm5.4", "--timings",
                 "--out", str(out), "--format", "json"]) == 0
    shown = json.loads(capsys.readouterr().out)
    saved = json.loads(out.read_text())
    for data in (shown, saved):
        assert isinstance(data["elapsed"], float) and data["elapsed"] > 0
        # run_suite stamps every check, extraction-vs-oracle included
        assert all(isinstance(c["elapsed"], float) and c["elapsed"] > 0
                   for c in data["checks"])
    assert main(["report", str(out)]) == 0
    assert f"elapsed: {saved['elapsed']:.3f}s" in capsys.readouterr().out
    assert main(["verify", "z4_tau_power", "--suite", "thm5.4", "--timings"]) == 0
    assert "  elapsed: " in capsys.readouterr().out


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_check_timings_add_up_to_the_suite(capsys, suite):
    """Under --timings every check reads the seconds since the previous one,
    so none reads 0 and together they stay within the suite's elapsed."""
    reports = 0
    for name in shipped_fixtures():
        code = main(["verify", name, "--suite", suite, "--timings", "--format", "json"])
        out = capsys.readouterr().out
        if code == 2:  # a fixture that fails validation prints no report
            continue
        data = json.loads(out)
        elapsed = [(c["property"], c["elapsed"]) for c in data["checks"]]
        assert all(e > 0 for _, e in elapsed), (name, elapsed)
        assert sum(e for _, e in elapsed) <= data["elapsed"]
        reports += 1
    assert reports == len(GOOD_FIXTURES)


@pytest.mark.parametrize("window, fragment", [
    ("2..0", "window 2..0 is empty (lo > hi)"),
    ("600000000..600000001", "has exponent sums beyond the coordinate bound 1073741824"),
    ("-600000001..-600000000", "has exponent sums beyond the coordinate bound"),
    ("0..two", "window must look like 'a..b'"),
])
def test_main_verify_rejects_a_bad_window(capsys, window, fragment):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "z4_tau_power", "--suite", "thm5.4", f"--window={window}"])
    assert exc.value.code == 2
    assert fragment in capsys.readouterr().err


def test_main_verify_seed_changes_samples(capsys):
    """prop3.2 lifts every series of its window, so the seed changes only
    the report's "seed"."""
    reports = []
    for seed in range(4):
        assert main(["verify", "klein_fusible", "--suite", "prop3.2",
                     "--seed", str(seed), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data.pop("seed") == seed
        reports.append(data)
    assert reports[0]["status"] == "pass"
    assert all(data == reports[0] for data in reports)


def test_main_verify_max_support_zero_reaches_params(capsys):
    assert main(["verify", "z4_example_5_5", "--suite", "ring-axioms",
                 "--max-support", "0", "--window", "0..0", "--format", "json"]) == 0
    params = json.loads(capsys.readouterr().out)["params"]
    assert params["max_support"] == 0
    assert params["window"] == [0, 0]


def test_main_verify_rejects_a_negative_max_support(capsys):
    assert main(["verify", "klein_fusible", "--suite", "prop3.2", "--max-support=-1"]) == 2
    assert "error: --max-support must be >= 0, got -1" in capsys.readouterr().err


def test_prop32_with_max_support_zero_ends_in_a_named_precondition():
    """prop3.2 lifts nonzero series, and max_support 0 leaves none: a
    PreconditionFail that names it, which fails the suite klein_fusible
    claims. A subprocess with a timeout turns an endless loop into a failure."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "mnseries.cli", "verify", "klein_fusible",
                           "--suite", "prop3.2", "--max-support=0"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert ("claimed applicable but precondition failed: max_support 0 over 3 exponents "
            "leaves no nonzero series to lift") in proc.stdout


_Z2 = {"kind": "Zn", "n": 2}


# two benchmark ladder rungs: Z2^3 over Z untwisted (window 0..2), and GF4
# over Z^2_lex with Frobenius for both generators (window 0..1 in each
# coordinate, four exponents)
_LADDER_PROP32 = {
    "z2cubed": {"ring": {"kind": "product", "factors": [
                    _Z2, {"kind": "product", "factors": [_Z2, _Z2]}]},
                "group": {"group": "Z"}, "twist": {"sigma": "identity", "tau": {"kind": "one"}}},
    "gf4_z2lex": {"ring": {"kind": "table", "path": str(cli.fixture_dir() / "gf4_ring.json")},
                  "group": {"group": "Z^k_lex", "k": 2},
                  "twist": {"sigma": {"generators": [[0, 1, 3, 2], [0, 1, 3, 2]]},
                            "tau": {"kind": "one"}},
                  "caps": {"window": [0, 1]}},
}


@pytest.mark.parametrize("name, overrides, width, expected", [
    ("klein_fusible", {}, 3, 63),
    ("gf4_frobenius", {}, 3, 63),
    ("z2cubed", {}, 3, 511),
    ("gf4_z2lex", {}, 4, 174),
    ("klein_fusible", {"window": [0, 0]}, 1, 3),
    ("klein_fusible", {"max_support": 2}, 3, 36),
])
def test_prop32_lifts_every_nonzero_series_of_its_window(tmp_path, name, overrides, width,
                                                         expected):
    """The certificate counts the nonzero series of the window with at most
    max_support terms: sum over k of C(width, k) (|R| - 1)^k."""
    if name in _LADDER_PROP32:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"label": name, **_LADDER_PROP32[name]}))
    else:
        path = resolve_fixture(name)
    fx = load_fixture(path)
    report = cli.run_suite(fx, "prop3.2", overrides=overrides)
    size, max_support = fx.ring.size, report.params["max_support"]
    count = sum(math.comb(width, k) * (size - 1) ** k
                for k in range(1, min(width, max_support) + 1))
    assert [(c.prop, c.verdict, c.certificate) for c in report.checks] == [
        ("fusible-lift", True, {"series": count})]
    assert count == expected


def test_main_validate_checks_the_twist_once(monkeypatch, capsys):
    import mnseries.cli as cli
    calls = []
    real = cli._validate_twist

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "_validate_twist", counting)
    assert main(["validate", "z4_tau_power", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert calls == ["z4_tau_power"]
    assert payload["twist"]["gate_ok"] is True
    # the exponent triples of the window -3..3 that the decision covers
    assert payload["associativity"] == {"ok": True, "checked": 343}


def test_main_validate_refuses_the_removed_assoc_samples_cap(tmp_path, capsys):
    doc = json.loads(resolve_fixture("z4_tau_power").read_text())
    doc["caps"] = {"assoc_samples": 1000}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: fixture 'z4_tau_power': unknown cap 'assoc_samples'\n"


def test_main_validate_caps_a_table_ring_read_from_a_path(tmp_path, capsys):
    """A 257-element table exits 2 naming the size cap, whether the fixture
    gives it inline or names the file that holds it."""
    n = 257
    table = {"label": "Z257", "size": n, "one": 1,
             "add": [[(a + b) % n for b in range(n)] for a in range(n)],
             "mul": [[a * b % n for b in range(n)] for a in range(n)]}
    (tmp_path / "z257.json").write_text(json.dumps(table))
    doc = json.loads(resolve_fixture("z4_example_5_5").read_text())
    del doc["ideals"], doc["series"]
    for ring in ({"kind": "table", "path": "z257.json"}, {"kind": "table", **table}):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({**doc, "ring": ring}))
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: fixture 'z4_example_5_5': bad ring: table ring "
                                "would have 257 elements, cap is 256\n")


def _ut2_noncentral_doc():
    """UT2(Z2) over Z with sigma the identity and tau = t = [[1, 1], [0, 1]]
    (id 7, a unit outside the centre) at every (x, y) with x and y odd that
    the twist window reads, one elsewhere. t^2 = one, so tau is a unit,
    normalized and a standard cocycle, and the gate passes; but t does not
    commute with every coefficient, so the series product is not associative."""
    overrides = [[x, y, 7] for x in range(-6, 7) for y in range(-6, 7)
                 if x * y % 2 and (-3 <= x <= 3 or -3 <= y <= 3)]
    return {"label": "ut2_noncentral", "ring": {"kind": "table", **ut2_table(2)},
            "group": {"group": "Z"},
            "twist": {"sigma": "identity",
                      "tau": {"kind": "patched", "base": {"kind": "one"},
                              "overrides": overrides}}}


def test_main_validate_refutes_a_twist_the_gate_passes_whatever_the_samples_and_seed(
        tmp_path, capsys):
    errors = set()
    path = tmp_path / "ut2.json"
    path.write_text(json.dumps(_ut2_noncentral_doc()))
    for seed in range(3):
        assert main(["validate", str(path), "--format", "json", "--seed", str(seed)]) == 2
        errors.add(capsys.readouterr().err)
    assert len(errors) == 1
    err = errors.pop()
    assert "twist validation failed (sigma-eta-left, sigma-eta-right)" in err
    witness = json.loads(err.split("associativity witness: ", 1)[1])
    assert [len(witness[k]) for k in "fgh"] == [1, 1, 1]
    assert witness["left"] != witness["right"]


def test_main_validate_names_a_disagreement_of_the_tables_and_the_oracle(
        tmp_path, capsys, monkeypatch):
    """A witness triple the oracle multiplies out associative ends in a
    named TraceMismatch, not a traceback."""
    path = tmp_path / "ut2.json"
    path.write_text(json.dumps(_ut2_noncentral_doc()))
    monkeypatch.setattr(cli, "check_associativity",
                        lambda twist, triples: series.AssocReport(True, len(list(triples))))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fixture 'ut2_noncentral': the twist tables find 1X^x, 1X^y, "
                          "cX^z not associative at (x, y, z, c) = [")
    assert "but check_associativity multiplies them out equal" in err


# Z4 with tau = 3^(x1 y2) and GF4 with sigma Frobenius on both factors, over Z^2_lex
_LEX_DOCS = [
    {"label": "z4_z2lex_tau", "ring": {"kind": "Zn", "n": 4},
     "group": {"group": "Z^k_lex", "k": 2},
     "twist": {"sigma": "identity",
               "tau": {"kind": "unit_power", "unit": 3, "exponent_rule": [[0, 1], [0, 0]]}}},
    {"label": "gf4_z2lex", "ring": {"kind": "table", "path": "gf4_ring.json"},
     "group": {"group": "Z^k_lex", "k": 2},
     "twist": {"sigma": {"generators": [[0, 1, 3, 2], [0, 1, 3, 2]]}, "tau": {"kind": "one"}}},
]


def test_validation_multiplies_series_only_for_a_refused_twist(tmp_path, monkeypatch, capsys):
    """Every valid twist here is proved associative from its condition tables,
    so validating it multiplies no series; the corrupted twist multiplies only
    its cocycle witness triple (4 products) and draws no random triples."""
    calls = []
    real = series.series_mul

    def counting(f, g):
        calls.append(1)
        return real(f, g)

    monkeypatch.setattr(series, "series_mul", counting)
    (tmp_path / "gf4_ring.json").write_text(
        cli.fixture_dir().joinpath("gf4_ring.json").read_text())
    sources = list(GOOD_FIXTURES)
    for doc in _LEX_DOCS:
        path = tmp_path / f"{doc['label']}.json"
        path.write_text(json.dumps(doc))
        sources.append(str(path))
    for source in sources:
        assert main(["validate", source]) == 0
        assert calls == [], source
    capsys.readouterr()
    assert main(["validate", "z4_tau_corrupted"]) == 2
    assert len(calls) == 4
    assert capsys.readouterr().err == (
        "error: fixture 'z4_tau_corrupted': twist validation failed "
        "(cocycle-paper, cocycle-standard); associativity witness: "
        '{"f": [[-3, 1]], "g": [[1, 1]], "h": [[1, 1]], "left": [[-1, 3]], "right": [[-1, 1]]}\n')


@pytest.mark.parametrize("doc", [
    {"fixture": "x", "seed": 0, "status": "pass", "checks": []},
    [1, 2],
    {"fixture": "x", "suite": "ideals", "seed": 0, "status": "pass", "checks": [{"verdict": True}]},
    {"fixture": "x", "suite": "ideals", "seed": 0, "status": "pass",
     "checks": [{"property": "p", "verdict": "yes"}]},
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_main_report_rejects_a_malformed_report(tmp_path, capsys, doc, fmt):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert main(["report", str(path), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


_PLAIN_TWIST = {"group": {"group": "Z"}, "twist": {"sigma": "identity", "tau": {"kind": "one"}}}
_UNIT_POWER = {"kind": "unit_power", "unit": 3, "exponent_rule": "product"}
_PATCHED = {"kind": "patched", "base": _UNIT_POWER, "overrides": []}
_F2_TABLE = {"kind": "table", "label": "F2", "size": 2, "add": [[0, 1], [1, 0]],
             "mul": [[0, 0], [0, 1]], "one": 1, "names": ["0", "1"]}


def _twist(**spec):
    return {"group": {"group": "Z"}, "twist": spec}


@pytest.mark.parametrize("patch, fragment", [
    ({"ideals": [[0, 2]]}, "'ideals' must be an object"),
    ({"ideals": {"U": {"kind": "twosided", "gens": [9]}}}, "bad ideal 'U'"),
    ({**_PLAIN_TWIST, "series": {"f": 5}}, "bad series 'f'"),
    ({"ring": {"kind": "Zn", "n": "4"}}, "bad ring"),
    ({"suites": "thm5.4"}, "'suites' must be a list"),
    ({"ideals": {"U": {"kind": ["twosided"], "gens": [2]}}}, "'kind' must be"),
    ({"group": {"group": "Z"}, "twist": [1]}, "bad twist"),
    ({"caps": {"max_support": "9"}}, "cap 'max_support' must be an integer"),
    ({"caps": {"max_support": -1}}, "cap 'max_support' must be >= 0"),
    ({"caps": {"window": [0]}}, "cap 'window' must be a pair of integers"),
    ({"caps": {"window": [2, 0]}}, "cap 'window' 2..0 is empty (lo > hi)"),
    ({"caps": {"window": [600000000, 600000001]}},
     "cap 'window' 600000000..600000001 has exponent sums beyond the coordinate bound"),
    ({"caps": {"univrse_cap": 8}}, "unknown cap 'univrse_cap'"),
    ({"caps": {"ring_max": 9}}, "unknown cap 'ring_max'"),
    (_twist(tau="one"), "bad twist: tau spec must be an object"),
    (_twist(tau=[1]), "bad twist: tau spec must be an object"),
    (_twist(sigma={"generators": 5}), "bad twist: each sigma generator"),
    (_twist(tau={**_PATCHED, "overrides": 5}), "bad twist: patched tau needs"),
    (_twist(tau={**_PATCHED, "overrides": [[1]]}), "bad twist: patched tau needs"),
    (_twist(tau={**_PATCHED, "overrides": [[0, 1, 9]]}), "bad twist: patched tau needs"),
    (_twist(tau={**_PATCHED, "overrides": [[0, 1, "3"]]}), "bad twist: patched tau needs"),
    (_twist(tau={"kind": "patched", "overrides": []}), "bad twist: patched tau needs"),
    (_twist(tau={"kind": "unit_power"}), "bad twist: unit_power tau needs a 'unit'"),
    (_twist(tau={**_UNIT_POWER, "exponent_rule": [["a"]]}), "bad twist: tau exponent matrix"),
    (_twist(tau={**_UNIT_POWER, "exponent_rule": [[1.5]]}), "bad twist: tau exponent matrix"),
    (_twist(tau={**_UNIT_POWER, "unit": "3"}), "bad twist: tau unit must be an element id"),
    ({"ring": {**_F2_TABLE, "add": 5}}, "bad ring: ring 'F2': add table must be a list of rows"),
    ({"ring": {**_F2_TABLE, "mul": [None, [0, 1]]}},
     "bad ring: ring 'F2': mul table must be a list of rows"),
    ({"ring": {**_F2_TABLE, "one": 1.5}}, "bad ring: ring 'F2': one = 1.5 out of range"),
    ({"ring": {**_F2_TABLE, "one": "x"}}, "bad ring: ring 'F2': one = x out of range"),
    ({"ring": {**_F2_TABLE, "names": 5}}, "bad ring: ring 'F2': names must be a list of 2 strings"),
    ({"ring": {**_F2_TABLE, "names": ["0", 1]}}, "bad ring: ring 'F2': names must be a list"),
    ({"ring": {"kind": "trivial_extension"}}, "bad ring: ring spec must be an object"),
    ({"ring": {**_F2_TABLE, "one": True}}, "bad ring: ring 'F2': one = True out of range"),
    ({"ring": {**_F2_TABLE, "mul": [[0, 0], [0, True]]}},
     "bad ring: ring 'F2': mul[1][1] = True out of range"),
    ({"group": {"group": "Z^k_lex", "k": True}, "twist": {"sigma": "identity"}},
     "bad group: Z^k_lex requires k >= 1, got True"),
], ids=["ideals-list", "gen-out-of-range", "series-not-a-list", "n-string", "suites-string",
        "ideal-kind-list", "twist-list", "cap-string", "cap-negative", "cap-window-short",
        "cap-window-reversed", "cap-window-overflow", "cap-misspelt",
        "cap-fixed", "tau-string", "tau-list",
        "sigma-generators-int", "overrides-int", "override-short", "override-out-of-range",
        "override-string", "patched-no-base", "unit-power-no-unit", "exponent-rule-string",
        "exponent-rule-float", "unit-string", "table-add-int", "table-row-null",
        "one-float", "one-string", "names-int", "names-entry-int", "trivial-extension-no-base",
        "one-bool", "mul-entry-bool", "lex-k-bool"])
def test_main_rejects_a_malformed_fixture(tmp_path, capsys, patch, fragment):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"label": "bad", "ring": {"kind": "Zn", "n": 4}, **patch}))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fixture 'bad': ")
    assert fragment in err


@pytest.mark.parametrize("k", [4, 6])
def test_main_refuses_a_twist_window_over_the_triple_cap(tmp_path, capsys, k):
    """Z^k_lex's twist window holds 7^k exponents; the cap admits Z^3_lex's
    343^3 triples, and a wider window exits 2 naming the cap and the count
    before the window is built."""
    assert LexProductGroup(3).window_size(*cli.TWIST_WINDOW) ** 3 == cli.TWIST_TRIPLE_CAP
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"label": "wide", "ring": {"kind": "Zn", "n": 2},
                                "group": {"group": "Z^k_lex", "k": k},
                                "twist": {"sigma": "identity"}}))
    start = time.perf_counter()
    assert main(["validate", str(path)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert f"would scan {7 ** (3 * k)} exponent triples" in err
    assert f"over the cap of {343 ** 3}" in err


# what test_every_mutation_of_a_valid_fixture_exits_0_or_2 mutates: a table
# ring with an ideal, a product ring over Z^1_lex with a patched tau and a
# series, and Z4 over Z^2_lex with tau a unit power and a series. Twist
# validation decides tau one and unit powers whose unit sigma fixes without
# scanning; a patched tau, or a unit that sigma moves, is scanned in time
# growing as 7^(3k), so the patched document stays at k = 1 (a window wider
# than Z^3_lex's is refused by its triple cap before it is built)
_MUTATED_DOCS = [
    {"label": "t2", "ring": _F2_TABLE, "ideals": {"U": {"kind": "twosided", "gens": [0]}}},
    {"label": "pt",
     "ring": {"kind": "product", "factors": [
         {"kind": "Zn", "n": 2}, {"kind": "trivial_extension", "base": {"kind": "Zn", "n": 2}}]},
     "group": {"group": "Z^k_lex", "k": 1},
     "twist": {"sigma": {"generators": ["identity"]},
               "tau": {"kind": "patched",
                       "base": {"kind": "unit_power", "unit": 7, "exponent_rule": [[1]]},
                       "overrides": [[[1], [1], 7]]}},
     "series": {"f": [[[0], 1], [[1], 7]]}},
    {"label": "z4lex",
     "ring": {"kind": "Zn", "n": 4},
     "group": {"group": "Z^k_lex", "k": 2},
     "twist": {"sigma": {"generators": ["identity", "identity"]},
               "tau": {"kind": "unit_power", "unit": 3, "exponent_rule": [[0, 1], [-1, 2]]}},
     "series": {"f": [[[0, 1], 1], [[-1, 2], 3]]}},
]
_REPLACEMENTS = [None, "x", 5, -1, 1.5, True, [], {}, [1], [[1]]]


def _mutations(doc):
    """Every document that replaces one value of doc (at any depth) by one of
    _REPLACEMENTS, or deletes one object key."""
    def paths(node, path):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield path + (key,)
            if isinstance(value, (dict, list)):
                yield from paths(value, path + (key,))

    def edited(path, edit):
        out = json.loads(json.dumps(doc))
        parent = out
        for key in path[:-1]:
            parent = parent[key]
        edit(parent, path[-1])
        return out

    for path in paths(doc, ()):
        for value in _REPLACEMENTS:
            yield edited(path, lambda parent, key: parent.__setitem__(key, value))
        if isinstance(path[-1], str):
            yield edited(path, lambda parent, key: parent.__delitem__(key))


def test_every_mutation_of_a_valid_fixture_exits_0_or_2(tmp_path, capsys):
    path = tmp_path / "f.json"
    for doc in _MUTATED_DOCS:
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        for mutated in _mutations(doc):
            path.write_text(json.dumps(mutated))
            assert main(["validate", str(path)]) in (0, 2), mutated
        capsys.readouterr()


def test_prop32_checks_its_hypotheses_before_building_a_universe(tmp_path, capsys):
    # the window 0..2 over Z32 holds 32^3 series, beyond the universe cap of 4096
    path = tmp_path / "z32.json"
    path.write_text(json.dumps({"label": "z32", "ring": {"kind": "Zn", "n": 32},
                                **_PLAIN_TWIST}))
    assert main(["verify", str(path), "--suite", "prop3.2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "not_applicable"
    assert data["checks"][0]["note"] == "not_applicable: Z32 is not left fusible (witness 2)"


def _ut2_z2(tmp_path):
    path = tmp_path / "ut2.json"
    # [[a, b], [0, c]] in UT2(Z2) has id 4a + 2b + c
    path.write_text(json.dumps({"label": "ut2", "ring": {"kind": "table", **ut2_table(2)}}))
    return path


def _ideals_checks(path, capsys):
    assert main(["verify", str(path), "--suite", "ideals", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return {c["property"]: c for c in json.loads(captured.out)["checks"]}


def test_one_sided_pair_quotient_is_a_false_verdict(tmp_path, capsys, monkeypatch):
    path = _ut2_z2(tmp_path)
    assert main(["verify", str(path), "--suite", "ideals"]) == 0
    capsys.readouterr()
    ring = load_fixture(path).ring
    # e22 R = {0, e22} is a right ideal that is not a left one
    one_sided = ideal_closure(ring, [1], "right").members
    assert classify_kind(ring, one_sided) == "right"
    monkeypatch.setattr(cli, "quotient_ideal", lambda U, V: one_sided)
    pair = _ideals_checks(path, capsys)["right-pair-quotient-twosided"]
    assert pair["verdict"] is False
    assert pair["witness"] == {"U": [0], "V": [0]}


def test_a_one_sided_ideal_in_the_lattice_fails_closure_idempotent(tmp_path, capsys,
                                                                   monkeypatch):
    path = _ut2_z2(tmp_path)
    real = ideals._lattice

    def lattice(ring, kind):
        # e22 R = {0, e22} posing as a two-sided ideal
        extra = (ideals.IdealSet(ring, frozenset({0, 1}), kind),) if kind == "twosided" else ()
        return real(ring, kind) + extra

    monkeypatch.setattr(ideals, "_lattice", lattice)
    idem = _ideals_checks(path, capsys)["closure-idempotent"]
    assert idem["verdict"] is False
    assert idem["witness"] == [0, 1]


def test_a_quotient_missing_a_member_of_U_fails_quotient_contains_U(tmp_path, capsys,
                                                                  monkeypatch):
    path = _ut2_z2(tmp_path)
    real = cli.quotient_ideal
    monkeypatch.setattr(cli, "quotient_ideal", lambda U, V: real(U, V) - {max(U.members)})
    contain = _ideals_checks(path, capsys)["quotient-contains-U"]
    assert contain["verdict"] is False
    # the witness is the first failing pair: U = V = {0}, and ({0}:{0}) = R lost 0
    assert contain["witness"] == {"U": [0], "V": [0], "quotient": list(range(1, 8))}


@pytest.mark.parametrize("suite, skipped", [
    ("examples", []),
    ("thm5.4", ["extraction-vs-oracle", "series-zip"]),
])
def test_capped_checks_are_skipped_not_fatal(tmp_path, capsys, suite, skipped):
    # 32^3 window series exceed the universe cap; the 2^32 subsets of the
    # zip scan are counted on the meet-closure of the singleton masks
    path = tmp_path / "z32.json"
    path.write_text(json.dumps({"label": "z32", "ring": {"kind": "Zn", "n": 32},
                                "ideals": {"U": {"gens": [2]}}, **_PLAIN_TWIST}))
    assert main(["verify", str(path), "--suite", suite, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "pass"
    scan = data["checks"][0]
    assert (scan["property"], scan["verdict"]) == ("sigma-U-zip-scan", True)
    # X qualifies iff it holds an odd element: (2^16 - 1) * 2^16 subsets
    assert scan["certificate"]["qualifying"] == scan["certificate"]["witnessed"] == 4_294_901_760
    nulls = [c for c in data["checks"] if c["verdict"] is None]
    assert [c["property"] for c in nulls] == skipped
    for check in nulls:
        assert check["note"].startswith("skipped: ")
        assert "exceed the cap of" in check["note"]
        assert check["bounds"]["universe_cap"] == 4096
    if suite == "examples":
        assert [c["verdict"] for c in data["checks"][1:]] == [True, True]


def test_examples_counts_z64_over_the_zero_ideal(tmp_path, capsys):
    path = tmp_path / "z64.json"
    path.write_text(json.dumps({"label": "z64", "ring": {"kind": "Zn", "n": 64},
                                "ideals": {"zero": {"members": [0]}}}))
    assert main(["verify", str(path), "--suite", "examples", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    scan = json.loads(captured.out)["checks"][0]
    assert scan["verdict"] is True
    assert scan["certificate"]["qualifying"] == 2 ** 64 - 2 ** 32


@pytest.mark.parametrize("suite, count", [
    ("lemma4.3", "65^2 = 4225"), ("thm4.5", "65^2 = 4225"), ("prop3.2", "65^3 = 274625")])
def test_over_cap_universes_skip_the_suite(tmp_path, capsys, suite, count):
    # Z65 is a valid ring, but 65 coefficients overflow the universe cap on any window
    path = tmp_path / "z65.json"
    path.write_text(json.dumps({"label": "z65", "ring": {"kind": "Zn", "n": 65}, **_PLAIN_TWIST}))
    assert main(["verify", str(path), "--suite", suite, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "pass"
    assert data["checks"] == [{
        "property": suite, "verdict": None, "bounds": {"universe_cap": 4096},
        "note": f"skipped: {count} universe series exceed the cap of 4096"}]


def test_z64_thm45_runs_at_the_universe_cap(tmp_path, capsys):
    # Z64's 0..1 universe is at the cap (4096 series), so thm4.5's bounded
    # G-Armendariz hypothesis runs over it and every configuration transfers
    path = tmp_path / "z64.json"
    path.write_text(json.dumps({"label": "z64", "ring": {"kind": "Zn", "n": 64}, **_PLAIN_TWIST}))
    assert main(["verify", str(path), "--suite", "thm4.5", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "pass"
    assert [(c["property"], c["verdict"]) for c in data["checks"]] == [
        *[("sa-transfer", True)] * 17, ("config-coverage", None)]


@pytest.mark.parametrize("hi", [100, 10000])
@pytest.mark.parametrize("suite", ["properties", "thm5.4"])
def test_a_wide_window_skips_the_checks_it_feeds(capsys, suite, hi):
    # 4^(hi+1) series over Z4: the cap refuses the window before its
    # exponent list is built or that count formed
    assert main(["verify", "z4_tau_power", "--suite", suite, f"--window=0..{hi}",
                 "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    data = json.loads(captured.out)
    assert data["status"] == "pass"
    note = f"skipped: 4^{hi + 1} universe series exceed the cap of 4096"
    if suite == "properties":
        expected = {"G-armendariz": ({"universe_cap": 4096}, note)}
    else:
        skip = ({"universe_cap": 4096, "window": [0, hi]}, note)
        expected = {"extraction-vs-oracle": skip, "series-zip": skip}
    assert {c["property"]: (c["bounds"], c["note"])
            for c in data["checks"] if c["verdict"] is None} == expected


def test_a_wide_window_skips_prop32():
    fx = load_fixture(resolve_fixture("klein_fusible"))
    report = run_suite(fx, "prop3.2", overrides={"window": [-5000, 5000]})
    assert [(c.prop, c.verdict, c.bounds) for c in report.checks] == [
        ("prop3.2", None, {"universe_cap": 4096})]
    assert report.checks[0].note == "skipped: 4^10001 universe series exceed the cap of 4096"


@pytest.mark.parametrize("suite, skipped", [
    ("properties", ["G-armendariz"]), ("prop3.2", ["prop3.2"]),
    ("thm5.4", ["extraction-vs-oracle", "series-zip"])])
def test_a_wide_lex_window_is_counted_before_it_is_listed(tmp_path, monkeypatch, suite, skipped):
    # Z2, untwisted over Z^2_lex with U = {0}, meets the hypotheses of prop3.2
    # and thm5.4; its window 0..100000 holds 10^10 exponents, so a suite that
    # asked for them before counting them would never end
    path = tmp_path / "z2_lex.json"
    path.write_text(json.dumps({"label": "z2_lex", "ring": {"kind": "Zn", "n": 2},
                                "group": {"group": "Z^k_lex", "k": 2},
                                "twist": {"sigma": "identity", "tau": {"kind": "one"}},
                                "ideals": {"U": {"kind": "twosided", "members": [0]}}}))
    fx = load_fixture(str(path))
    listing = fx.group.window

    def guarded(lo, hi):
        if (lo, hi) == (0, 100000):
            pytest.fail("the 0..100000 window was listed before it was counted")
        return listing(lo, hi)

    monkeypatch.setattr(fx.group, "window", guarded)
    report = run_suite(fx, suite, overrides={"window": [0, 100000]})
    assert report.status == "pass"
    nulls = [c for c in report.checks if c.verdict is None]
    assert [c.prop for c in nulls] == skipped
    for check in nulls:
        assert check.bounds["universe_cap"] == 4096
        assert check.note == "skipped: 2^10000200001 universe series exceed the cap of 4096"


def test_t_z4_properties_decides_G_armendariz_at_the_universe_cap():
    # T(Z4) has 16 elements: 16^3 = 4096 series over the window 0..2, at the cap
    fx = load_fixture(resolve_fixture("t_z4_example_5_6"))
    check = run_suite(fx, "properties").checks[-1]
    assert (check.prop, check.verdict) == ("G-armendariz", False)
    assert check.witness == {"f": [[1, 1], [2, 8]], "g": [[1, 1], [2, 8]],
                             "x": 1, "y": 2, "product": 2}


def test_examples_derives_the_zip_context_once(monkeypatch):
    """The examples suite checks the sigma-compatibility of its zero and nil
    ideals and computes the nil radical once, not once per pool subset."""
    import mnseries.ideals as ideals
    import mnseries.properties as properties
    import mnseries.transfer as transfer
    calls = {"is_sigma_compatible_ideal": 0, "nil_radical": 0}
    for name in calls:
        real = getattr(ideals, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        for module in (cli, ideals, properties, transfer):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    report = run_suite(load_fixture(resolve_fixture("t_z4_example_5_6")), "examples")
    assert report.status == "pass"
    check = next(c for c in report.checks if c.prop == "zip-specialization-agreement")
    assert check.bounds["NI"] is True and check.certificate["comparisons"] > 2
    assert calls == {"is_sigma_compatible_ideal": 2, "nil_radical": 1}


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


class _Row(tuple):
    pass


class _Dict(dict):
    pass


_SHARED_INTS = [3, 1, 2]
_SHARED_MIXED = ["x", None, True, 1.5, _Int(4)]

_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
                 | st.text().map(_Str) | st.integers().map(_Int) | st.floats().map(_Float))
_JSON_KEYS = st.text() | st.integers() | st.floats(allow_nan=False) | st.booleans() | st.none()


def _json_values(children):
    """Lists, tuples, dicts whose keys are of one kind or of mixed kinds
    (which neither writer can sort), subclasses of each, and a set, which
    neither writer can write."""
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.lists(children, max_size=4).map(_Row)
            | st.dictionaries(_JSON_KEYS, children, max_size=4)
            | st.dictionaries(st.text(), children, max_size=4)
            | st.dictionaries(st.text(), children, max_size=4).map(_Dict)
            | st.frozensets(st.integers(), min_size=1, max_size=2))


@settings(max_examples=300, deadline=None)
@given(st.recursive(_JSON_SCALARS, _json_values, max_leaves=30))
# a list of exact ints takes one join; a bool or an int subclass among
# its members sends it down the general path
@example([1, True, _Int(2), []])
@example([True, False])
@example((4, -5, 10 ** 30))
@example({"a": [2, 1], "b": [1, _Int(3)]})
@example([[1, 2], [_Int(7)], [0, None]])
# one list of ints and one of non-ints, each at three depths: a list is
# written once per indent it appears at
@example([_SHARED_INTS, [_SHARED_INTS], {"a": _SHARED_INTS}])
@example({"a": _SHARED_MIXED, "b": [_SHARED_MIXED, [_SHARED_MIXED]], "c": _SHARED_MIXED})
def test_canonical_json_writes_the_bytes_of_json_dumps(value):
    try:
        want = json.dumps(value, indent=2, sort_keys=True)
    except TypeError:
        with pytest.raises(TypeError):
            canonical_json(value)
    else:
        assert canonical_json(value) == want


_LYING_MASKS = {
    # every (U:{v}) = U: the search picks Y = [0] for X = [0, 1], which
    # quotient_ideal rejects
    "U": ("lambda U: (sum(1 << u for u in U.members),) * U.ring.size",
             "the singleton quotient masks give (U:Y) = U for U = [0], X = [0, 1] and "
             "Y = [0], but quotient_ideal finds (U:Y) != U"),
    # every (U:{v}) = R: no Y meets to U, not even Y = X
    "full": ("lambda U: ((1 << U.ring.size) - 1,) * U.ring.size",
             "(U:X) = U for U = [0] and X = [1], but no subset Y of X has (U:Y) = U "
             "on the singleton quotient masks"),
}


@pytest.mark.parametrize("lie", sorted(_LYING_MASKS))
def test_lying_singleton_masks_fail_examples_with_a_named_mismatch(monkeypatch, capsys, lie):
    source, message = _LYING_MASKS[lie]
    monkeypatch.setattr(properties, "singleton_quotient_masks", eval(source))
    assert main(["verify", "z4_example_5_5", "--suite", "examples", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail"
    [check] = report["checks"]
    assert check["note"] == "derivation trace mismatch"
    assert check["witness"] == message


_LYING_MEMOS = {
    # the quotient masks in the ideals layer's handle set every bit: (U:X) = R
    # for every X; the handle's other parts are the real ones
    "ideals": ("(U:V)", lambda ring, handle: (
        dict.fromkeys(ring.elements(), (1 << ring.size) - 1), *handle()[1:])),
    # the masks of the zip searches set every bit: r(X) = R for every X
    "properties": ("zip row masks", lambda ring, build: ((1 << ring.size) - 1,) * ring.size),
}


@pytest.mark.parametrize("layer", sorted(_LYING_MEMOS))
def test_a_lying_mask_memo_fails_zip_specialization_agreement(monkeypatch, capsys, layer):
    """sigma_u_zip_witness reads its quotients from the ideals layer's memo
    and right_zip_witness reads the masks that properties keeps under its
    own key, so either memo lying alone makes the two disagree: on Z4,
    X = [1] has (0:X) = r(X) = 0."""
    tag, lie = _LYING_MEMOS[layer]
    real = rings.Memo.once

    def once(self, key, compute):
        return real(self, key, (lambda: lie(self, compute)) if key[:1] == (tag,) else compute)

    monkeypatch.setattr(rings.Memo, "once", once)
    assert main(["verify", "z4_example_5_5", "--suite", "examples", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    checks = {c["property"]: c for c in json.loads(captured.out)["checks"]}
    agreement = checks["zip-specialization-agreement"]
    assert agreement["verdict"] is False
    witness = agreement["witness"]
    assert witness["X"] == [1]
    notes = {"ideals": ("hypothesis_fails: (U:X) != U", None),
             "properties": (None, "hypothesis_fails: r(X) != 0")}[layer]
    assert (witness["sigma_u_zip"].get("note"), witness["right_zip"].get("note")) == notes


def test_a_lazy_zip_core_fails_zip_specialization_agreement(monkeypatch, capsys):
    """The agreement compares the cores' minimal witnesses as well as
    their statuses, on Z4's exhaustive pool and in the per-X loop alike: a
    right-zip core that certifies every X by Y = X agrees on every status
    but not on X = [0, 1], whose minimal Y is [1]. The pool decisions
    differ, so the per-X loop runs, finds that X and builds the two reports
    for it only."""
    real, real_pool = properties._right_zip, properties._right_zip_pool

    def lazy(ring, xs):
        status, minimal = real(ring, xs)
        return status, (tuple(xs) if status == "ok" else minimal)

    pools = []

    def lazy_pool(ring):
        pools.append(ring.size)
        return [x if y >= 0 else y for x, y in enumerate(real_pool(ring), 1)]

    for module in (cli, properties):
        monkeypatch.setattr(module, "_right_zip", lazy)
        monkeypatch.setattr(module, "_right_zip_pool", lazy_pool)
    built = []
    for name in ("sigma_u_zip_witness", "right_zip_witness"):
        monkeypatch.setattr(cli, name, lambda *args, _real=getattr(cli, name), _name=name:
                            built.append(_name) or _real(*args))
    assert main(["verify", "z4_example_5_5", "--suite", "examples", "--format", "json"]) == 1
    checks = {c["property"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    witness = checks["zip-specialization-agreement"]["witness"]
    assert pools == [4]
    assert witness["X"] == [0, 1]
    assert witness["sigma_u_zip"]["certificate"]["minimal_witness"] == [1]
    assert witness["right_zip"]["certificate"]["minimal_witness"] == [0, 1]
    assert built == ["sigma_u_zip_witness", "right_zip_witness"]


def _verify_under_O(name: str, source: str, suite: str) -> subprocess.CompletedProcess:
    """`mn verify z4_example_5_5 --suite <suite> --format json` under
    `python -O`, with properties.<name> replaced by the expression `source`."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("import sys\n"
              "import mnseries.properties as properties\n"
              "from mnseries.cli import main\n"
              f"properties.{name} = {source}\n"
              f"sys.exit(main(['verify', 'z4_example_5_5', '--suite', '{suite}', "
              "'--format', 'json']))\n")
    return subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)


def test_the_zip_witness_recheck_survives_python_O():
    """The re-checks are raised, not asserted, so `python -O` keeps them: the
    examples suite still exits 1 with the mismatch, and no traceback."""
    source, message = _LYING_MASKS["U"]
    proc = _verify_under_O("singleton_quotient_masks", source, "examples")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["checks"][0]["witness"] == message


_LYING_PROPERTY_KERNELS = {
    # case: (the properties function replaced, its replacement, the mismatch)
    # nothing is reachable as a sum, so 1 = 0 + 1 looks unsplittable
    "set_sum": ("set_sum", "lambda ring, A, B: frozenset()",
                "set_sum leaves 1 out of the left zero-divisors plus the left regular "
                "elements, but fusible_decompositions splits it as (0, 1)"),
    # everything is reachable as a sum, so Z4 looks left fusible, though 2 does not split
    "set_sum-whole-ring": ("set_sum", "lambda ring, A, B: frozenset(ring.elements())",
                           "set_sum reaches 2 as a left zero-divisor plus a left regular "
                           "element, but no left zero-divisor z leaves 2 - z left regular"),
    # each ideal filed under another ideal's right annihilator
    "ideals_by_right_annihilator": (
        "ideals_by_right_annihilator",
        "(lambda real: lambda ring: dict(zip(real(ring), reversed(real(ring).values()))))"
        "(properties.ideals_by_right_annihilator)",
        "K = [0, 1, 2, 3] is filed under r(I) + r(J) = [0, 1, 2, 3] for I = [0] and "
        "J = [0], but r(K) = [0]"),
    # a sum no ideal annihilates, so Z4 looks not SA
    "subgroup_sum": ("subgroup_sum", "lambda ring, A, B: frozenset({0, 1})",
                     "subgroup_sum gives r(I) + r(J) = [0, 1] for I = [0] and J = [0], "
                     "but set_sum gives [0, 1, 2, 3]"),
}


@pytest.mark.parametrize("case", sorted(_LYING_PROPERTY_KERNELS))
def test_a_lying_kernel_fails_properties_with_a_named_mismatch(monkeypatch, capsys, case):
    """is_left_fusible and is_SA re-check both their verdicts and their
    witnesses by raising, so a wrong kernel ends the properties suite with
    exit 1 and the mismatch: no AssertionError traceback and no verdict
    drawn from the wrong set, also under `python -O`."""
    name, source, message = _LYING_PROPERTY_KERNELS[case]
    monkeypatch.setattr(properties, name, eval(source))
    assert main(["verify", "z4_example_5_5", "--suite", "properties", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    [check] = json.loads(captured.out)["checks"]
    assert (check["verdict"], check["note"], check["witness"]) == (
        False, "derivation trace mismatch", message)

    proc = _verify_under_O(name, source, "properties")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["checks"] == [check]


def test_the_parser_is_built_once_per_process(monkeypatch, capsys):
    cli.build_parser()
    built = []
    real = argparse.ArgumentParser
    monkeypatch.setattr(argparse, "ArgumentParser",
                        lambda *a, **k: built.append(a) or real(*a, **k))
    for _ in range(2):
        assert main(["validate", "z4_example_5_5"]) == 0
    assert built == []
    assert cli.build_parser() is cli.build_parser()


def test_an_interrupt_ends_with_130_and_one_line(monkeypatch, capsys):
    """Ctrl-C during thm5.4's extraction scan, raised in process: exit 130,
    the shell's code for SIGINT, one stderr line naming the command line,
    no traceback and no report."""
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "extraction_scan", interrupted)
    try:
        code = main(["verify", "z4_tau_power", "--suite", "thm5.4"])
    except KeyboardInterrupt:  # not pytest's own: it would end the session
        pytest.fail("the interrupt escaped cli.main")
    assert code == 130
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "interrupted: mn verify z4_tau_power --suite thm5.4\n")
