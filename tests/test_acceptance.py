"""Acceptance suite: one criterion per test, one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they print.
Timing limits are asserted where a criterion carries one.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from mnseries.cli import Fixture, load_fixture, resolve_fixture, run_suite
from mnseries.ideals import (is_sigma_compatible_ideal, make_ideal, nil_radical,
                             quotient_ideal)
from mnseries.properties import (is_IN, is_SA, is_left_fusible,
                                 is_right_nonsingular, right_zip_witness,
                                 sigma_u_zip_scan, sigma_u_zip_witness,
                                 weak_zip_witness, zero_divisor_sets)
from mnseries.rings import FiniteRing, check_ring_axioms
from mnseries.series import (check_associativity, check_twist_conditions, series_make,
                             series_mul)
from mnseries.transfer import TruncatedUniverse, coefficient_extraction, sa_transfer_witness
from oracles import exhaustive_series, extraction_oracle, random_triples, ring_pow

GOOD_FIXTURES = ("z4_example_5_5", "t_z4_example_5_6", "klein_fusible",
                 "gf4_frobenius", "z4_tau_power")


@contextmanager
def criterion(number, text):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {text}")
        raise
    elapsed = time.perf_counter() - started
    print(f"[acceptance] criterion {number}: PASS - {text} ({elapsed:.2f}s)")


def subsets(elems, max_size=None):
    elems = sorted(elems)
    top = len(elems) if max_size is None else max_size
    for size in range(top + 1):
        yield from (frozenset(c) for c in itertools.combinations(elems, size))


def test_criterion_1_example_5_5_reproduction(z4, u_z4):
    with criterion(1, "Z4 with U = <2>: minimal witnesses over all 16 subsets"):
        started = time.perf_counter()
        qualifying = 0
        for X in subsets(z4.elements()):
            if X <= u_z4.members:
                continue
            if quotient_ideal(u_z4, X) != u_z4.members:
                continue
            qualifying += 1
            rep = sigma_u_zip_witness(z4, u_z4, X)
            assert rep.verdict is True
            Y = rep.certificate["minimal_witness"]
            assert frozenset(Y) <= X
            assert quotient_ideal(u_z4, Y) == u_z4.members
            for smaller in subsets(X, len(Y) - 1):
                assert quotient_ideal(u_z4, smaller) != u_z4.members
        assert qualifying == 12  # every X not inside U qualifies
        assert quotient_ideal(u_z4, {3}) == {0, 2}
        assert time.perf_counter() - started < 1.0


def test_criterion_2_example_5_6_with_correction(tz4, u_tz4):
    with criterion(2, "T(Z4,Z4): Sigma_U-zip holds while (U:{(2,0)}) != U"):
        started = time.perf_counter()
        scan = sigma_u_zip_scan(tz4, u_tz4)
        assert scan.verdict is True
        anomaly = quotient_ideal(u_tz4, {8})  # (2, 0) has id 8
        assert anomaly == {0, 1, 2, 3, 8, 9, 10, 11}
        assert anomaly != u_tz4.members
        reported = {a["element"]: a["quotient"]
                    for a in scan.certificate["anomalous_singletons"]}
        assert reported[8] == [0, 1, 2, 3, 8, 9, 10, 11]
        assert time.perf_counter() - started < 1.0


def test_criterion_3_fusibility_verdicts(z4, klein, gf4):
    with criterion(3, "left-fusible verdicts for Z4, Z2xZ2, GF(4)"):
        rep = is_left_fusible(z4)
        assert rep.verdict is False and rep.witness == 2
        assert is_left_fusible(klein).verdict is True
        assert is_left_fusible(gf4).verdict is True


def test_criterion_4_fusible_lift_harness():
    with criterion(4, "every nonzero series of the window certified on klein_fusible "
                      "and gf4_frobenius"):
        started = time.perf_counter()
        for name in ("klein_fusible", "gf4_frobenius"):
            fx = load_fixture(resolve_fixture(name))
            rep = run_suite(fx, "prop3.2", seed=0)
            assert rep.status == "pass"
            check = rep.checks[0]
            assert check.verdict is True and check.witness is None
            # the 4^3 - 1 nonzero series over 0..2
            assert check.certificate == {"series": 63}
        assert time.perf_counter() - started < 30.0


def test_criterion_5_extraction_vs_oracle(tw_z4, tw_z4_tau, u_z4, z4):
    with criterion(5, "exhaustive extraction agrees with the oracle on Z4, both twists"):
        started = time.perf_counter()
        window = [0, 1, 2]
        for twist in (tw_z4, tw_z4_tau):
            U = u_z4
            qualifying = 0
            for f in exhaustive_series(twist, window):
                for g in exhaustive_series(twist, window):
                    if not series_mul(f, g).content() <= U.members:
                        continue
                    qualifying += 1
                    trace = coefficient_extraction(f, g, U)  # TraceMismatch would abort
                    oracle = extraction_oracle(f, g)
                    assert trace.conclusions == oracle
                    assert all(v in U.members for v in oracle.values())
            assert qualifying > 0
        assert time.perf_counter() - started < 300.0


def test_criterion_6_annihilator_lift_and_sa_transfer(tw_z4, tw_klein):
    with criterion(6, "lemma4.3 identities and thm4.5 witnesses on Z4 and Z2xZ2"):
        for name in ("z4_example_5_5", "klein_fusible"):
            fx = load_fixture(resolve_fixture(name))
            rep = run_suite(fx, "lemma4.3")
            assert rep.status == "pass"
            for check in rep.checks:
                if check.prop == "lifted-annihilator":
                    assert check.certificate["base_sum_identity"] is True
                    assert check.certificate["universe_sum_identity"] is True
        uni_z4 = TruncatedUniverse(tw_z4, [0, 1])
        uni_klein = TruncatedUniverse(tw_klein, [0, 1])
        examples = [
            (uni_z4, [series_make(tw_z4, [(0, 2)])], [series_make(tw_z4, [(1, 2)])], [0, 2]),
            (uni_z4, [], [series_make(tw_z4, [(1, 2)])], [0]),
            (uni_klein, [series_make(tw_klein, [(0, 2)])],
             [series_make(tw_klein, [(0, 1)])], [0]),
        ]
        for universe, gi, gj, expected_k in examples:
            rep = sa_transfer_witness(gi, gj, universe)
            assert rep.verdict is True
            assert rep.certificate["K"] == expected_k


def test_criterion_7_sa_in_nonsingular_verdicts(z4, klein):
    with criterion(7, "SA/IN/nonsingular base verdicts"):
        assert is_SA(z4).verdict is True
        assert is_IN(z4).verdict is True
        rep = is_right_nonsingular(z4)
        assert rep.verdict is False
        assert rep.certificate["singular"] == [0, 2]
        assert is_right_nonsingular(klein).verdict is True


def test_criterion_8_twist_validation(tw_z4_tau, tw_z4_tau_corrupt):
    with criterion(8, "z4_tau_power passes both cocycle readings and 1000 triples; "
                      "the corrupted tau fails both"):
        window = range(-3, 4)
        good = check_twist_conditions(tw_z4_tau, window)
        assert good["cocycle-paper"].ok
        assert good["cocycle-standard"].ok
        rng = random.Random(0)
        assoc = check_associativity(
            tw_z4_tau, random_triples(tw_z4_tau, rng, list(window), 1000))
        assert assoc.ok and assoc.checked == 1000

        bad = check_twist_conditions(tw_z4_tau_corrupt, window)
        assert not bad["cocycle-paper"].ok and bad["cocycle-paper"].witness
        assert not bad["cocycle-standard"].ok and bad["cocycle-standard"].witness
        for name in ("cocycle-paper", "cocycle-standard"):
            w = bad[name].witness
            assert w["lhs"] != w["rhs"]


def test_criterion_9_specialization_equivalences():
    with criterion(9, "Sigma_0-zip = right zip and Sigma_nil-zip = weak zip on all fixtures"):
        for name in GOOD_FIXTURES:
            fx = load_fixture(resolve_fixture(name))
            ring = fx.ring
            if ring.size <= 4:
                pool = list(subsets(ring.elements()))
            else:
                rng = random.Random(0)
                pool = [frozenset({a}) for a in ring.elements()]
                pool += [frozenset(rng.sample(range(ring.size), rng.randint(2, 4)))
                         for _ in range(200)]
            zero = make_ideal(ring, {0}, "twosided")
            nil, is_ni = nil_radical(ring)
            assert is_ni
            nil_ideal = make_ideal(ring, nil)
            zero_compatible = is_sigma_compatible_ideal(zero, fx.sigma_family()).ok
            nil_compatible = is_sigma_compatible_ideal(nil_ideal, fx.sigma_family()).ok
            for xs in pool:
                a = sigma_u_zip_witness(ring, zero, xs, zero_compatible)
                b = right_zip_witness(ring, xs)
                assert (a.note or "").split(":")[0] == (b.note or "").split(":")[0]
                assert a.verdict == b.verdict
                if a.verdict:
                    assert a.certificate["minimal_witness"] == b.certificate["minimal_witness"]
                c = sigma_u_zip_witness(ring, nil_ideal, xs, nil_compatible)
                d = weak_zip_witness(ring, xs, nil)
                assert (c.note or "").split(":")[0] == (d.note or "").split(":")[0]
                assert c.verdict == d.verdict
                if c.verdict:
                    assert c.certificate["minimal_witness"] == d.certificate["minimal_witness"]


def _reverify(fx, check):
    """Re-evaluate a report's witness or certificate against the definition."""
    ring = fx.ring
    if check.prop == "left-fusible":
        if check.verdict:
            zd = zero_divisor_sets(ring)
            assert check.certificate["left_divisors"] == sorted(zd.left)
        else:
            from mnseries.properties import fusible_decompositions
            assert fusible_decompositions(ring, check.witness) == []
    elif check.prop == "sigma-compatible" and not check.verdict:
        w = check.witness
        mapped = w["automorphism"]
        assert (ring.mul(w["a"], w["b"]) == 0) != (ring.mul(w["a"], mapped[w["b"]]) == 0)
    elif check.prop == "right-nonsingular":
        sing = check.certificate["singular"]
        essential = [frozenset(e) for e in check.certificate["essential_right_ideals"]]
        from mnseries.ideals import annihilator, enumerate_ideals
        nonzero = [i.members for i in enumerate_ideals(ring, "right") if i.members != {0}]
        for e in essential:
            assert all(e & m != frozenset({0}) for m in nonzero)
        for x in sing:
            assert annihilator(ring, {x}) in essential
    elif check.prop == "SA" and check.verdict:
        from mnseries.ideals import annihilator, set_sum
        ideals = check.certificate["ideals"]
        for I, row in zip(ideals, check.certificate["K"], strict=True):
            for J, k in zip(ideals, row, strict=True):
                assert set_sum(ring, annihilator(ring, I), annihilator(ring, J)) \
                    == annihilator(ring, ideals[k])
    elif check.prop.startswith("semiprime-") and not check.verdict:
        ideal = fx.ideals[check.prop.removeprefix("semiprime-")]
        a, n = check.witness
        assert a not in ideal.members
        assert ring_pow(ring, a, n) in ideal.members
    elif check.prop == "sigma-U-zip-scan":
        U = frozenset(check.bounds["U"])
        U_ideal = make_ideal(ring, U)
        for a in check.certificate["anomalous_singletons"]:
            assert sorted(quotient_ideal(U_ideal, {a["element"]})) == a["quotient"]
        for ex in check.certificate.get("examples", []):
            assert quotient_ideal(U_ideal, ex["Y"]) == U


def test_criterion_10_self_checking_and_mutation():
    with criterion(10, "witnesses re-verify and a single corrupted table entry fails a suite"):
        for name in GOOD_FIXTURES:
            fx = load_fixture(resolve_fixture(name))
            for suite in fx.suites:
                rep = run_suite(fx, suite)
                assert rep.status == "pass"
                for check in rep.checks:
                    _reverify(fx, check)
            # mutate one multiplication entry and the axioms suite must fail
            mul = [list(row) for row in fx.ring.mul_table]
            mul[1][1] = (mul[1][1] + 1) % fx.ring.size
            mutated = FiniteRing(f"{fx.ring.label}-mutated", fx.ring.add_table,
                                 mul, fx.ring.one)
            broken = run_suite(Fixture(fx.label + "-mutated", mutated), "ring-axioms")
            assert broken.status == "fail"
            axioms = next(c for c in broken.checks if c.prop == "ring-axioms")
            assert axioms.verdict is False and axioms.witness
            # the reported witness re-verifies on the mutated tables
            report = check_ring_axioms(mutated)
            assert not report.passed
            for failure in report.failures():
                w = failure.witness
                if failure.axiom == "mul-identity":
                    (a,) = w
                    assert mutated.mul(mutated.one, a) != a or mutated.mul(a, mutated.one) != a
                elif failure.axiom in ("left-distributive", "right-distributive",
                                       "mul-associative"):
                    a, b, c = w
                    if failure.axiom == "left-distributive":
                        assert mutated.mul(a, mutated.add(b, c)) \
                            != mutated.add(mutated.mul(a, b), mutated.mul(a, c))
                    elif failure.axiom == "right-distributive":
                        assert mutated.mul(mutated.add(a, b), c) \
                            != mutated.add(mutated.mul(a, c), mutated.mul(b, c))
                    else:
                        assert mutated.mul(mutated.mul(a, b), c) \
                            != mutated.mul(a, mutated.mul(b, c))
