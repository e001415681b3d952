import random

import pytest

import mnseries.transfer as transfer
import oracles
from mnseries.errors import (HypothesisFails, NotFusibleRing, NotNormalized,
                             NotSigmaCompatible, PreconditionFail, SizeCapExceeded,
                             ZeroElement)
from mnseries.groups import IntegersGroup
from mnseries.ideals import annihilator, enumerate_ideals, make_ideal
from mnseries.properties import zero_divisor_sets
from mnseries.rings import ring_from_table, ring_zn
from mnseries.series import (WindowAlgebra, embed_scalar, series_make, series_mul, series_to_json,
                             trivial_twist)
from mnseries.transfer import (TruncatedUniverse, coefficient_extraction, lift_universe,
                               lifted_annihilator_check, sa_transfer_witness,
                               series_zip_witness)
from oracles import (exhaustive_series, extraction_oracle, lift_fusible_decomposition,
                     nonzero_series, random_series, series_add)


@pytest.fixture(scope="module")
def uni_z4(tw_z4):
    return TruncatedUniverse(tw_z4, [0, 1])


@pytest.fixture(scope="module")
def uni_klein(tw_klein):
    return TruncatedUniverse(tw_klein, [0, 1])


def test_universe_enumeration(tw_z4):
    uni = TruncatedUniverse(tw_z4, [0, 1])
    assert len(uni) == 16
    assert len(uni.all_series()) == 16
    assert len(nonzero_series(uni)) == 15
    assert len(uni.with_coeffs_in({0, 2})) == 4
    assert uni.has_identity


def test_universe_cap(tw_z4):
    # a 7-exponent Z4 window holds 4^7 = 16384 series, over the cap of 4096
    with pytest.raises(SizeCapExceeded, match="4\\^7 = 16384 universe series") as exc:
        TruncatedUniverse(tw_z4, range(7))
    assert exc.value.bounds == {"universe_cap": 4096}


def test_universe_ring_size_cap():
    # the ring of an ideal lattice and of a universe has at most 256 elements;
    # over one position a member's index is its coefficient
    universe = TruncatedUniverse(trivial_twist(ring_zn(256)), [0])
    assert universe.quotient([[(0, 2)]], {0}, "right") == {0, 128}
    assert universe.quotient([[(0, 2)]], {0, 128}, "left") == {0, 64, 128, 192}
    with pytest.raises(SizeCapExceeded, match="ring Z257 has 257 elements, cap 256") as exc:
        TruncatedUniverse(trivial_twist(ring_zn(257)), [0])
    assert exc.value.bounds == {"size_cap": 256}


# --- fusible decomposition lift ---


def test_lift_klein_example(tw_klein):
    # f = (1,0) + (1,1)X splits with a = (0,1), b = (1,1), d = (1,0)
    uni = TruncatedUniverse(tw_klein, [0, 1, 2])
    f = series_make(tw_klein, [(0, 2), (1, 3)])
    lift = lift_fusible_decomposition(f, uni)
    assert lift.ok
    assert series_to_json(lift.g) == [[0, 1]]
    assert series_to_json(lift.h) == [[0, 3], [1, 3]]
    assert lift.d == 2
    assert series_add(lift.g, lift.h) == f
    assert series_mul(lift.g, embed_scalar(tw_klein, lift.d)).is_zero


def test_lift_domain_case(tw_gf4_frob):
    # in a field only a = 0 is a left zero-divisor, so g is the zero series
    uni = TruncatedUniverse(tw_gf4_frob, [0, 1, 2])
    f = series_make(tw_gf4_frob, [(0, 2), (2, 1)])
    lift = lift_fusible_decomposition(f, uni)
    assert lift.ok
    assert lift.a == 0 and lift.g.is_zero
    assert lift.b == 2 and lift.h == f


def test_lift_rejects_non_fusible_ring(tw_z4, uni_z4):
    with pytest.raises(NotFusibleRing):
        lift_fusible_decomposition(series_make(tw_z4, [(0, 1)]), uni_z4)
    with pytest.raises(NotFusibleRing):
        lift_universe(uni_z4, 2)


def test_lift_rejects_zero_series(tw_klein, uni_klein):
    with pytest.raises(ZeroElement, match="cannot decompose the zero series"):
        lift_fusible_decomposition(series_make(tw_klein, []), uni_klein)


def test_lift_invariants_on_seeded_samples(tw_klein, tw_gf4_frob):
    for twist in (tw_klein, tw_gf4_frob):
        uni = TruncatedUniverse(twist, [0, 1, 2])
        regular = zero_divisor_sets(twist.ring).left_regular
        rng = random.Random(0)
        for _ in range(30):
            f = random_series(twist, rng, [0, 1, 2], 3)
            lift = lift_fusible_decomposition(f, uni)
            assert lift.ok
            assert series_add(lift.g, lift.h) == f
            assert lift.b in regular
            for k in nonzero_series(uni):
                assert not series_mul(lift.h, k).is_zero


def test_lift_reports_the_first_series_killing_h(monkeypatch, tw_klein):
    """With a decomposition that puts the whole leading coefficient into b,
    h = f = (1,0) + (1,0)X keeps its zero-divisor leading coefficient; the
    lift names the first nonzero universe series k with h*k = 0, as a
    series_mul loop finds it, and the universe lift fails the same way."""
    for module in (transfer, oracles):
        monkeypatch.setattr(module, "fusible_decompositions", lambda ring, a: [(0, a)])
    window = [0, 1, 2]
    uni = TruncatedUniverse(tw_klein, window)
    f = series_make(tw_klein, [(0, 2), (1, 2)])
    lift = lift_fusible_decomposition(f, uni)
    assert lift.h == f and lift.g.is_zero
    assert not lift.leading_regular_ok
    expected = next(k for k in exhaustive_series(tw_klein, window)
                    if not k.is_zero and series_mul(lift.h, k).is_zero)
    assert lift.h_regular_ok is False and not lift.ok
    assert lift.h_regular_witness == expected
    assert lift.to_json()["h_regular_witness"] == series_to_json(expected)
    assert (f, lift) in lift_universe(uni, 3)[1]


# --- annihilator lifting ---


def test_lifted_annihilator_z4_pairs(z4, uni_z4, u_z4):
    zero = make_ideal(z4, {0}, "twosided")
    full = make_ideal(z4, set(range(4)), "twosided")
    for I in (zero, u_z4, full):
        for J in (zero, u_z4, full):
            for side in ("left", "right"):
                rep = lifted_annihilator_check(I, J, side, uni_z4)
                assert rep.verdict is True, rep.witness
                assert rep.certificate["base_sum_identity"] is True
                assert rep.certificate["universe_sum_identity"] is True


def test_lifted_annihilator_examples(z4, uni_z4, u_z4, tw_z4):
    # u annihilates every <2>-coefficient series iff u's coefficients kill 2
    rep = lifted_annihilator_check(u_z4, u_z4, "left", uni_z4)
    assert rep.verdict
    # I = 0: the annihilator of {zero series} is the whole universe, and the
    # expected coefficient set l(0) = R gives the whole universe as well
    zero = make_ideal(z4, {0}, "twosided")
    assert lifted_annihilator_check(zero, zero, "left", uni_z4).verdict
    # I = R: only the zero series annihilates the R-coefficient series
    full = make_ideal(z4, set(range(4)), "twosided")
    rep = lifted_annihilator_check(full, full, "left", uni_z4)
    assert rep.verdict


def test_lifted_annihilator_twisted(tw_z4_tau, u_z4, z4):
    uni = TruncatedUniverse(tw_z4_tau, [0, 1])
    zero = make_ideal(z4, {0}, "twosided")
    for I in (zero, u_z4):
        rep = lifted_annihilator_check(I, u_z4, "left", uni)
        assert rep.verdict is True, rep.witness


# --- SA transfer ---


def test_sa_transfer_z4_example(tw_z4, uni_z4):
    rep = sa_transfer_witness([series_make(tw_z4, [(0, 2)])],
                              [series_make(tw_z4, [(1, 2)])], uni_z4)
    assert rep.verdict is True
    assert rep.certificate["I0"] == [0, 2]
    assert rep.certificate["J0"] == [0, 2]
    assert rep.certificate["K"] == [0, 2]
    assert rep.certificate["r_sum"] == [0, 2]


def test_sa_transfer_empty_generators(tw_z4, uni_z4):
    rep = sa_transfer_witness([], [series_make(tw_z4, [(1, 2)])], uni_z4)
    assert rep.verdict is True
    assert rep.certificate["I0"] == [0]
    assert rep.certificate["K"] == [0]  # r(I0) = R makes the sum R = r(0)


def test_sa_transfer_klein_factors(tw_klein, uni_klein):
    # r((1,0)) = 0 x Z2 and r((0,1)) = Z2 x 0 sum to R = r({0})
    rep = sa_transfer_witness([series_make(tw_klein, [(0, 2)])],
                              [series_make(tw_klein, [(0, 1)])], uni_klein)
    assert rep.verdict is True
    assert rep.certificate["r_I0"] == [0, 1]
    assert rep.certificate["r_J0"] == [0, 2]
    assert rep.certificate["K"] == [0]


# --- coefficient extraction ---


def test_extraction_two_term_mod4(tw_z4, u_z4):
    f = series_make(tw_z4, [(0, 1), (1, 3)])
    g = series_make(tw_z4, [(0, 2), (1, 2)])
    assert series_to_json(series_mul(f, g)) == [[0, 2], [2, 2]]
    trace = coefficient_extraction(f, g, u_z4)
    assert trace.conclusions == {(0, 0): 2, (0, 1): 2, (1, 0): 2, (1, 1): 2}
    assert set(trace.conclusions.values()) <= trace.U.members
    assert len(trace.steps) == 4
    step = trace.steps[0].to_json(tw_z4.group)
    assert set(step) == {"w", "pairs", "established", "multiplier", "check"}
    assert step["check"] == "direct-eval-ok"


def test_extraction_zero_series_is_vacuous(tw_z4, u_z4):
    zero = series_make(tw_z4, [])
    f = series_make(tw_z4, [(0, 1)])
    trace = coefficient_extraction(zero, f, u_z4)
    assert trace.steps == [] and trace.conclusions == {}


def test_extraction_precondition_failures(tw_z4, u_z4, z4):
    f = series_make(tw_z4, [(0, 1), (1, 1)])
    g = series_make(tw_z4, [(0, 1), (1, 3)])
    with pytest.raises(PreconditionFail):
        coefficient_extraction(f, g, u_z4)  # fg = 1 + 0X + 3X^2 has 1, 3 outside U
    zero_ideal = make_ideal(z4, {0}, "twosided")
    with pytest.raises(PreconditionFail):
        coefficient_extraction(f, g, zero_ideal)  # {0} is not semiprime in Z4


def test_extraction_matches_oracle_exhaustively(tw_z4, u_z4):
    window = [0, 1]
    for f in exhaustive_series(tw_z4, window):
        for g in exhaustive_series(tw_z4, window):
            if series_mul(f, g).content() <= u_z4.members:
                trace = coefficient_extraction(f, g, u_z4)
                oracle = extraction_oracle(f, g)
                assert trace.conclusions == oracle
                assert all(v in u_z4.members for v in oracle.values())


def test_extraction_with_tau_twist(tw_z4_tau, u_z4):
    f = series_make(tw_z4_tau, [(0, 2), (1, 2)])
    g = series_make(tw_z4_tau, [(0, 2), (1, 2)])
    trace = coefficient_extraction(f, g, u_z4)
    assert set(trace.conclusions.values()) <= trace.U.members
    assert set(trace.conclusions) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_extraction_over_lex_exponents(z4, u_z4):
    from mnseries.groups import LexProductGroup
    from mnseries.series import twist_from_spec
    twist = twist_from_spec(z4, LexProductGroup(2), {"sigma": "identity",
                                                     "tau": {"kind": "one"}})
    f = series_make(twist, [((0, 1), 2), ((1, 0), 3)])
    g = series_make(twist, [((0, 0), 2), ((1, -1), 2)])
    assert series_mul(f, g).content() <= u_z4.members
    trace = coefficient_extraction(f, g, u_z4)
    assert set(trace.conclusions) == {((0, 1), (0, 0)), ((0, 1), (1, -1)),
                                      ((1, 0), (0, 0)), ((1, 0), (1, -1))}
    assert set(trace.conclusions.values()) <= trace.U.members
    uni = TruncatedUniverse(twist, [(0, 0), (0, 1)])
    assert len(uni) == 16 and uni.has_identity


def test_trace_serialization(tw_z4, u_z4):
    f = series_make(tw_z4, [(0, 1), (1, 3)])
    g = series_make(tw_z4, [(0, 2)])
    trace = coefficient_extraction(f, g, u_z4)
    data = trace.to_json()
    assert data["U"] == [0, 2]
    assert len(data["steps"]) == len(trace.steps)
    assert all(c["product"] in (0, 2) for c in data["conclusions"])


# --- series zip witness ---


def test_series_zip_single_scalar(tw_z4, u_z4, uni_z4):
    rep = series_zip_witness([series_make(tw_z4, [(0, 3)])], u_z4, uni_z4)
    assert rep.verdict is True
    assert rep.certificate["C_X"] == [3]
    assert rep.certificate["C_X0"] == [3]
    assert rep.certificate["X0"] == [[[0, 3]]]


def test_series_zip_identity_series(tw_z4, u_z4, uni_z4):
    rep = series_zip_witness([embed_scalar(tw_z4, 1)], u_z4, uni_z4)
    assert rep.verdict is True
    assert rep.certificate["X0"] == [[[0, 1]]]


def test_series_zip_content_reduction(tw_z4, u_z4, uni_z4):
    # X = {2, 3X}: (U:{2}) = Z4 so the minimal content witness is {3}
    X = [series_make(tw_z4, [(0, 2)]), series_make(tw_z4, [(1, 3)])]
    rep = series_zip_witness(X, u_z4, uni_z4)
    assert rep.verdict is True
    assert rep.certificate["C_X"] == [2, 3]
    assert rep.certificate["C_X0"] == [3]
    assert rep.certificate["X0"] == [[[1, 3]]]


def test_series_zip_hypothesis_fails(tw_klein, uni_klein, klein):
    # X = {(0,1)} kills every ((1,0)-coefficient) series, so the quotient
    # strictly exceeds the U-series and the hypothesis fails
    zero = make_ideal(klein, {0}, "twosided")
    X = [series_make(tw_klein, [(0, 1)])]
    with pytest.raises(HypothesisFails) as exc:
        series_zip_witness(X, zero, uni_klein)
    assert exc.value.witness is not None


def test_series_zip_reports_a_reduced_quotient_failure_as_a_verdict(monkeypatch):
    # a content witness {2} that does not reduce the quotient: (U:{2X^0})
    # is every series, not the 4 U-coefficient ones, so the verdict is False
    # and no extraction runs, rather than a TraceMismatch on h(0) = 1
    import mnseries.transfer as transfer
    from mnseries.cli import load_fixture, resolve_fixture
    fx = load_fixture(resolve_fixture("z4_tau_power"))
    tw, U = fx.twist, fx.ideals["U"]
    real = transfer.sigma_u_zip_witness

    def wrong_witness(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep.certificate = dict(rep.certificate, minimal_witness=[2])
        return rep

    monkeypatch.setattr(transfer, "sigma_u_zip_witness", wrong_witness)
    X = [series_make(tw, [(0, 2)]), series_make(tw, [(1, 1)])]
    rep = series_zip_witness(X, U, TruncatedUniverse(tw, [0, 1]))
    assert rep.verdict is False
    assert rep.witness == {"quotient0_size": 16, "expected_size": 4}
    assert rep.certificate["C_X0"] == [2]
    assert rep.certificate["X0"] == [[[0, 2]]]
    assert rep.certificate["extractions"] == 0


def test_series_zip_rejects_X_inside_U(tw_z4, u_z4, uni_z4):
    with pytest.raises(PreconditionFail):
        series_zip_witness([series_make(tw_z4, [(0, 2)])], u_z4, uni_z4)


def test_series_zip_rejects_non_semiprime(tw_z4, uni_z4, z4):
    zero = make_ideal(z4, {0}, "twosided")
    with pytest.raises(PreconditionFail):
        series_zip_witness([series_make(tw_z4, [(0, 1)])], zero, uni_z4)


# --- hypotheses: one definition each, each checked once per ring and twist ---


def test_precondition_errors_are_precondition_failures():
    for cls in (NotFusibleRing, NotSigmaCompatible, NotNormalized):
        assert issubclass(cls, PreconditionFail)


def _suite_calls(monkeypatch, fixture, suite, names):
    """Run one suite on a shipped fixture, counting calls to the named
    functions as `mnseries.transfer` sees them; returns (report, counts)."""
    import mnseries.transfer as transfer
    from mnseries.cli import load_fixture, resolve_fixture, run_suite
    calls = dict.fromkeys(names, 0)
    for name in calls:
        def counting(*args, _name=name, _real=getattr(transfer, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(transfer, name, counting)
    return run_suite(load_fixture(resolve_fixture(fixture)), suite), calls


def test_thm45_run_checks_SA_and_G_armendariz_once(monkeypatch):
    """One SA check and one G-Armendariz check per run, and one window
    algebra: G-Armendariz runs on the universe the suite built."""
    real = WindowAlgebra.__init__
    compiled = []

    def counting(alg, twist, window):
        compiled.append(list(window))
        real(alg, twist, window)

    monkeypatch.setattr(WindowAlgebra, "__init__", counting)
    rep, calls = _suite_calls(monkeypatch, "klein_fusible", "thm4.5",
                              ["is_SA", "is_G_armendariz"])
    assert rep.status == "pass"
    assert sum(c.prop == "sa-transfer" for c in rep.checks) == 17
    assert calls == {"is_SA": 1, "is_G_armendariz": 1}
    assert compiled == [[0, 1]]


@pytest.mark.parametrize("fixture, suite, counted", [
    # prop3.2 and thm5.4 ask before the universe is built and again in every
    # harness call; the ring's memo answers all but the first
    ("klein_fusible", "prop3.2", {"is_left_fusible": 1}),
    ("t_z4_example_5_6", "lemma4.3", {"is_sigma_compatible_ring": 1}),
    ("z4_tau_power", "thm5.4", {"is_semiprime_ideal": 1}),
])
def test_a_suite_run_checks_its_hypotheses_once_per_universe(monkeypatch, fixture, suite,
                                                             counted):
    rep, calls = _suite_calls(monkeypatch, fixture, suite, counted)
    assert rep.status == "pass"
    assert calls == counted


def test_sa_transfer_failed_hypothesis_raises_on_every_call(tw_klein_swap, tw_z4,
                                                            zero_ideal_z4):
    """A hypothesis that fails is not stored, so every harness raises again
    on a second call on the same universe."""
    swap_uni = TruncatedUniverse(tw_klein_swap, [0, 1])
    z4_uni = TruncatedUniverse(tw_z4, [0, 1])
    klein_right = enumerate_ideals(tw_klein_swap.ring, "right")
    one = series_make(tw_z4, [(0, 1)])
    harnesses = [
        # the swap twist fails the G-Armendariz check bounded by the window 0..1
        (PreconditionFail, "G-Armendariz", lambda: sa_transfer_witness([], [], swap_uni)),
        (NotSigmaCompatible, "not sigma-compatible",
         lambda: lifted_annihilator_check(klein_right[0], klein_right[-1], "left", swap_uni)),
        (NotFusibleRing, "not left fusible", lambda: lift_universe(z4_uni, 2)),
        (PreconditionFail, "not semiprime",
         lambda: series_zip_witness([one], zero_ideal_z4, z4_uni)),
    ]
    for error, message, call in harnesses:
        for _ in range(2):
            with pytest.raises(error, match=message):
                call()


def _z2xy():
    """Z2[x,y]/(x,y)^2, a + bx + cy as a | b << 1 | c << 2: the ideals (x),
    (y), (x+y) and (x,y) all have right annihilator (x,y)."""
    def mul(i, j):
        a, b, c = i & 1, i >> 1 & 1, i >> 2 & 1
        d, e, f = j & 1, j >> 1 & 1, j >> 2 & 1
        return a * d | (a * e ^ b * d) << 1 | (a * f ^ c * d) << 2
    return ring_from_table({"label": "Z2[x,y]/(x,y)^2", "size": 8, "one": 1,
                            "add": [[i ^ j for j in range(8)] for i in range(8)],
                            "mul": [[mul(i, j) for j in range(8)] for i in range(8)]})


def test_thm45_run_builds_the_K_table_once(monkeypatch):
    """is_SA (thm4.5's hypothesis) and every sa_transfer_witness read one
    r(K) -> K table, whose build is the only enumerate_ideals call in
    `mnseries.ideals`."""
    import mnseries.ideals as ideals_module
    from mnseries.cli import Fixture, run_suite
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_ideals(*args, **kwargs)

    monkeypatch.setattr(ideals_module, "enumerate_ideals", counting)
    import mnseries.properties as properties
    import mnseries.transfer as transfer
    tables = []
    for module in (properties, transfer):
        def reading(ring, _module=module, _real=module.ideals_by_right_annihilator):
            tables.append((_module.__name__, _real(ring)))
            return tables[-1][1]
        monkeypatch.setattr(module, "ideals_by_right_annihilator", reading)
    ring, group = _z2xy(), IntegersGroup()
    rep = run_suite(Fixture("z2xy", ring, group, trivial_twist(ring, group)), "thm4.5")
    assert rep.status == "pass" and len(calls) == 1
    assert {name for name, _ in tables} == {"mnseries.properties", "mnseries.transfer"}
    assert all(table is tables[0][1] for _, table in tables)
    # each K is the first enumerated ideal whose right annihilator is r(I0) + r(J0)
    ideals = enumerate_ideals(ring, "twosided")
    ks = set()
    for check in rep.checks:
        if check.prop == "sa-transfer":
            cert = check.certificate
            first = next(K for K in ideals
                         if annihilator(ring, K.members) == set(cert["r_sum"]))
            assert cert["K"] == first.sorted_members()
            ks.add(tuple(cert["K"]))
    assert (0, 2) in ks  # the first of the four ideals annihilated by (x, y)
