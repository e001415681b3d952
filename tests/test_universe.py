"""Differential tests for the truncated universe's scans.

The oracle is the Series path the harnesses ran before their scans moved
onto the window algebra: `series_mul` and `series_add` double loops over
`exhaustive_series`, kept here rather than as a second path in the library.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mnseries.cli as cli
import mnseries.series as series_module
from mnseries.errors import HypothesisFails, PreconditionFail, TwistMismatch
from mnseries.groups import IntegersGroup, LexProductGroup
from mnseries.ideals import enumerate_ideals, make_ideal
from mnseries.rings import (ring_from_table, ring_product, ring_trivial_extension,
                            ring_zn, units)
from mnseries.series import (exhaustive_series, series_add, series_make, series_mul,
                             trivial_twist, twist_from_spec)
from mnseries.transfer import (TruncatedUniverse, lift_fusible_decomposition,
                               series_zip_witness)


def _ut2_z2():
    """Upper-triangular 2x2 matrices over Z2; [[a, b], [0, c]] has id 4a + 2b + c."""
    elems = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
    index = {e: i for i, e in enumerate(elems)}
    add = [[index[((a + x) % 2, (b + y) % 2, (c + z) % 2)] for (x, y, z) in elems]
           for (a, b, c) in elems]
    mul = [[index[(a * x % 2, (a * y + b * z) % 2, c * z % 2)] for (x, y, z) in elems]
           for (a, b, c) in elems]
    return ring_from_table({"label": "UT2(Z2)", "size": 8, "add": add, "mul": mul,
                            "one": index[(1, 0, 1)]})


def _cases():
    z4 = ring_zn(4)
    klein = ring_product(ring_zn(2), ring_zn(2))
    ut2 = _ut2_z2()
    u = 7  # [[1, 1], [0, 1]], its own inverse
    conjugation = [ut2.mul(ut2.mul(u, m), u) for m in ut2.elements()]
    twists = {
        "z4-tau": (z4, IntegersGroup(), {
            "tau": {"kind": "unit_power", "unit": 3, "exponent_rule": "product"}}, [0, 1, 2]),
        "klein-swap": (klein, IntegersGroup(), {
            "sigma": {"generator": [0, 2, 1, 3]}}, [0, 1, 2]),
        "z4-z2lex-tau": (z4, LexProductGroup(2), {
            "tau": {"kind": "unit_power", "unit": 3, "exponent_rule": [[0, 1], [0, 0]]}},
            [(1, 0), (0, 1), (0, 0)]),
        "ut2-z2": (ut2, IntegersGroup(), {}, [0, 1]),
        "ut2-z2-conjugation": (ut2, IntegersGroup(), {"sigma": {"generator": conjugation}},
                               [0, 1]),
    }
    return {name: TruncatedUniverse(twist_from_spec(ring, group, spec), window)
            for name, (ring, group, spec, window) in twists.items()}


CASES = _cases()


def _key(universe, s):
    return tuple(s.coeff(x) for x in universe.window)


def _loop_scans(universe, members):
    """The old Series path: the members-coefficient series, their left and
    right annihilators, and each annihilator plus the members series."""
    series = list(exhaustive_series(universe.twist, universe.window))
    targets = [s for s in series if s.content() <= members]
    left = [u for u in series if all(series_mul(u, w).is_zero for w in targets)]
    right = [u for u in series if all(series_mul(w, u).is_zero for w in targets)]
    sums = {side: {_key(universe, series_add(x, y)) for x in ann for y in targets}
            for side, ann in (("left", left), ("right", right))}
    return ([_key(universe, s) for s in targets],
            {"left": {_key(universe, u) for u in left},
             "right": {_key(universe, u) for u in right}}, sums)


def _check_scans(universe, members):
    targets, annihilators, sums = _loop_scans(universe, members)
    assert universe.with_coeffs_in(members) == targets
    for side in ("left", "right"):
        ann = universe.annihilator(members, side)
        assert ann == annihilators[side], side
        assert universe.set_sum(ann, universe.with_coeffs_in(members)) == sums[side], side


@functools.lru_cache(maxsize=None)
def _ideal_member_sets(name):
    ring = CASES[name].twist.ring
    return sorted({I.members for kind in ("left", "right", "twosided")
                   for I in enumerate_ideals(ring, kind)}, key=sorted)


@pytest.mark.parametrize("name", sorted(CASES))
def test_scans_match_the_series_loops_on_every_ideal(name):
    for members in _ideal_member_sets(name):
        _check_scans(CASES[name], members)


def test_ut2_annihilators_differ_by_side():
    # the noncommutative case: the left and right annihilators of one ideal differ
    universe = CASES["ut2-z2"]
    assert any(universe.annihilator(M, "left") != universe.annihilator(M, "right")
               for M in _ideal_member_sets("ut2-z2"))


def test_universe_members_follow_exhaustive_series():
    for universe in CASES.values():
        assert universe.all_series() == list(exhaustive_series(universe.twist, universe.window))
        assert [universe.algebra.series(t) for t in universe.terms] == universe.all_series()


@functools.lru_cache(maxsize=None)
def _ring(kind, *params):
    if kind == "Zn":
        return ring_zn(params[0])
    if kind == "product":
        return ring_product(ring_zn(params[0]), ring_zn(params[1]))
    return ring_trivial_extension(ring_zn(params[0]))


@st.composite
def _twisted_universes(draw):
    """A commutative ring of at most 8 elements, a twist over Z or Z^2_lex, a
    window of one or two exponents, and a coefficient set."""
    kind = draw(st.sampled_from(["Zn", "product", "trivial_extension"]))
    if kind == "Zn":
        ring = _ring(kind, draw(st.integers(2, 8)))
    elif kind == "product":
        ring = _ring(kind, 2, draw(st.integers(2, 4)))
    else:
        ring = _ring(kind, 2)
    if draw(st.booleans()):
        group = IntegersGroup()
        window = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=2, unique=True))
        rule = "product"
    else:
        group = LexProductGroup(2)
        window = draw(st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                               min_size=1, max_size=2, unique=True))
        rule = [[draw(st.integers(-1, 1)) for _ in range(2)] for _ in range(2)]
    unit = draw(st.sampled_from(sorted(units(ring))))
    twist = twist_from_spec(ring, group, {
        "sigma": "identity",
        "tau": {"kind": "unit_power", "unit": unit, "exponent_rule": rule}})
    members = draw(st.frozensets(st.integers(0, ring.size - 1)))
    return TruncatedUniverse(twist, window), members


@settings(max_examples=60, deadline=None)
@given(_twisted_universes())
def test_scans_match_the_series_loops_on_generated_rings(case):
    universe, members = case
    _check_scans(universe, members)


# --- series the scans multiply must lie in the universe --------------------------


def test_scans_reject_a_series_outside_the_window(tw_klein, tw_z4, u_z4):
    uni_klein = TruncatedUniverse(tw_klein, [0, 1])
    with pytest.raises(PreconditionFail, match="outside the universe window"):
        lift_fusible_decomposition(series_make(tw_klein, [(0, 2), (3, 3)]), uni_klein)
    with pytest.raises(TwistMismatch):
        lift_fusible_decomposition(series_make(trivial_twist(tw_klein.ring), [(0, 2)]),
                                   uni_klein)
    uni_z4 = TruncatedUniverse(tw_z4, [0, 1])
    with pytest.raises(PreconditionFail, match="outside the universe window"):
        series_zip_witness([series_make(tw_z4, [(2, 3)])], u_z4, uni_z4)


def test_series_zip_failure_names_the_first_differing_member(tw_klein, klein):
    # the quotient by (0,1) holds every (1,0)-coefficient series; the first
    # nonzero one in universe order is (1,0) X^1
    zero = make_ideal(klein, {0}, "twosided")
    universe = TruncatedUniverse(tw_klein, [0, 1])
    with pytest.raises(HypothesisFails) as exc:
        series_zip_witness([series_make(tw_klein, [(0, 1)])], zero, universe)
    assert exc.value.witness == [[1, 2]]


def test_thm54_enumerates_its_window_once(monkeypatch):
    # one universe serves the extraction join and the series-zip scans
    fx = cli.load_fixture(cli.resolve_fixture("z4_tau_power"))
    real = series_module._window_terms
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(series_module, "_window_terms", counting)
    report = cli.run_suite(fx, "thm5.4")
    assert report.status == "pass"
    assert sum(c.prop == "series-zip" for c in report.checks) == 2
    assert len(calls) == 1


def test_annihilator_scans_once_per_coefficient_set_and_side(monkeypatch):
    """lemma4.3 on t_z4_example_5_6 asks for 160 annihilators of 14 distinct
    (coefficient set, side) keys; each key is scanned once, and the shared
    result is a frozenset, which no caller can change."""
    fx = cli.load_fixture(cli.resolve_fixture("t_z4_example_5_6"))
    multiplies = []
    real_multiply = series_module.WindowAlgebra.multiply

    def counting_multiply(alg, f, g):
        multiplies.append(None)
        return real_multiply(alg, f, g)

    real = TruncatedUniverse.annihilator
    calls, scans = [], []

    def counting(universe, coeffs, side):
        before = len(multiplies)
        result = real(universe, coeffs, side)
        assert isinstance(result, frozenset)
        calls.append(None)
        if len(multiplies) > before:
            scans.append((frozenset(coeffs), side))
        return result

    monkeypatch.setattr(series_module.WindowAlgebra, "multiply", counting_multiply)
    monkeypatch.setattr(TruncatedUniverse, "annihilator", counting)
    assert cli.run_suite(fx, "lemma4.3").status == "pass"
    assert len(calls) == 160
    assert len(scans) == len(set(scans)) == 14

    universe = CASES["z4-tau"]
    assert universe.annihilator([2, 0], "left") is universe.annihilator({0, 2}, "left")
    assert universe.annihilator({0, 2}, "left") is not universe.annihilator({0, 2}, "right")
