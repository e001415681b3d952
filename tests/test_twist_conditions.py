"""Differential tests for the twist-condition checks.

The oracle is the triple loop `check_twist_conditions` ran before it moved
onto tables: tau and the group products evaluated at every step through
`tau_at` and `op`, kept here rather than as a second path in the library.
The decision from the tau kind (tau one, or a unit power whose unit every
sigma generator fixes) is checked against that loop and against the
tabulated scan, which a TauPatched wrapper with no overrides forces. The
associativity decision (`assoc_witness`) is checked against
`check_associativity` over every single-term triple of the window.
"""

import functools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mnseries.cli import TWIST_WINDOW, load_fixture, resolve_fixture, shipped_fixtures
from mnseries.groups import IntegersGroup, LexProductGroup
from mnseries.rings import ring_gf4, ring_product, ring_zn, unit_inverse, units
from mnseries.series import (TauOne, TauPatched, TwistSystem, check_associativity,
                             check_twist_conditions, series_make, twist_from_spec)
from oracles import single_term_triples
from test_window import _ut2_conjugation


def _conditions_loop(twist, window):
    """The six outcomes as {name: (ok, witness)}, by direct evaluation."""
    ring, grp = twist.ring, twist.group
    win = [grp.canon(x) for x in window]
    unit_set = units(ring)
    out = {}

    def pair_witness(x, y, extra=None):
        w = {"x": grp.to_json(x), "y": grp.to_json(y)}
        if extra:
            w.update(extra)
        return w

    tau_fail = None
    for x in win:
        for y in win:
            v = twist.tau_at(x, y)
            if v not in unit_set:
                tau_fail = pair_witness(x, y, {"tau": v})
                break
        if tau_fail:
            break
    out["tau-units"] = (tau_fail is None, tau_fail)
    out["normalized"] = twist.check_normalized(win)

    paper = standard = None
    for x in win:
        sx = twist.sigma_at(x).map
        for y in win:
            xy = grp.op(x, y)
            txy = twist.tau_at(x, y)
            for z in win:
                yz = grp.op(y, z)
                tyz = twist.tau_at(y, z)
                if paper is None:
                    lhs = ring.mul(twist.tau_at(xy, z), sx[txy])
                    rhs = ring.mul(twist.tau_at(x, yz), tyz)
                    if lhs != rhs:
                        paper = {"x": grp.to_json(x), "y": grp.to_json(y),
                                 "z": grp.to_json(z), "lhs": lhs, "rhs": rhs}
                if standard is None:
                    lhs = ring.mul(txy, twist.tau_at(xy, z))
                    rhs = ring.mul(sx[tyz], twist.tau_at(x, yz))
                    if lhs != rhs:
                        standard = {"x": grp.to_json(x), "y": grp.to_json(y),
                                    "z": grp.to_json(z), "lhs": lhs, "rhs": rhs}
            if paper is not None and standard is not None:
                break
        if paper is not None and standard is not None:
            break
    out["cocycle-paper"] = (paper is None, paper)
    out["cocycle-standard"] = (standard is None, standard)

    conj_l = conj_r = None
    for y in win:
        sy = twist.sigma_at(y).map
        for z in win:
            sz = twist.sigma_at(z).map
            syz = twist.sigma_at(grp.op(y, z)).map
            u = twist.tau_at(y, z)
            if u not in unit_set:
                continue
            uinv = unit_inverse(ring, u)
            for r in ring.elements():
                both = sy[sz[r]]
                if conj_l is None and both != syz[ring.mul(ring.mul(u, r), uinv)]:
                    conj_l = pair_witness(y, z, {"r": r})
                if conj_r is None and both != syz[ring.mul(ring.mul(uinv, r), u)]:
                    conj_r = pair_witness(y, z, {"r": r})
            if conj_l is not None and conj_r is not None:
                break
        if conj_l is not None and conj_r is not None:
            break
    out["sigma-eta-left"] = (conj_l is None, conj_l)
    out["sigma-eta-right"] = (conj_r is None, conj_r)
    return out


def _assert_same(twist, window):
    report = check_twist_conditions(twist, window)
    got = {name: (o.ok, o.witness) for name, o in report.outcomes.items()}
    assert list(got) == ["tau-units", "normalized", "cocycle-paper", "cocycle-standard",
                         "sigma-eta-left", "sigma-eta-right"]
    assert got == _conditions_loop(twist, window)
    return got


@pytest.mark.parametrize("name", shipped_fixtures())
def test_shipped_twists_match_the_loop(name):
    fx = load_fixture(resolve_fixture(name), validate=False)
    got = _assert_same(fx.twist, fx.group.window(*TWIST_WINDOW))
    if name == "z4_tau_corrupted":
        assert not got["cocycle-paper"][0] and not got["cocycle-standard"][0]


def test_z2lex_twists_match_the_loop():
    lex = LexProductGroup(2)
    z4 = twist_from_spec(ring_zn(4), lex, {
        "tau": {"kind": "unit_power", "unit": 3, "exponent_rule": [[0, 1], [0, 0]]}})
    gf4 = twist_from_spec(ring_gf4(), lex, {
        "sigma": {"generators": [[0, 1, 3, 2], "identity"]},
        "tau": {"kind": "unit_power", "unit": 2, "exponent_rule": [[1, 0], [0, 2]]}})
    for twist in (z4, gf4):
        _assert_same(twist, lex.window(-3, 3))


@functools.lru_cache(maxsize=None)
def _base_twist(ring_name, lex, sigma, unit, rule):
    ring = {"Z4": ring_zn(4), "GF4": ring_gf4(),
            "Z2xZ2": ring_product(ring_zn(2), ring_zn(2)),
            "UT2(Z2)": _ut2_conjugation().ring}[ring_name]
    group = LexProductGroup(2) if lex else IntegersGroup()
    k = 2 if lex else 1
    gens = [list(sigma)] + ["identity"] * (k - 1) if sigma else ["identity"] * k
    return twist_from_spec(ring, group, {
        "sigma": {"generators": gens},
        "tau": {"kind": "unit_power", "unit": unit,
                "exponent_rule": [list(row) for row in rule]}})


_FROBENIUS, _SWAP = (0, 1, 3, 2), (0, 2, 1, 3)
_CONJUGATION = tuple(_ut2_conjugation().sigma.generators[0].map)


@st.composite
def _unit_power_twists(draw, families):
    """_base_twist for a (ring name, sigma) pair of `families` over Z or
    Z^2_lex, with a unit of the ring and an exponent matrix drawn."""
    ring_name, sigma = draw(st.sampled_from(families))
    lex = draw(st.booleans())
    k = 2 if lex else 1
    unit = {"Z4": draw(st.sampled_from([1, 3])), "GF4": draw(st.sampled_from([1, 2, 3])),
            "Z2xZ2": 3, "UT2(Z2)": 5}[ring_name]
    rule = tuple(tuple(draw(st.integers(-1, 2)) for _ in range(k)) for _ in range(k))
    return _base_twist(ring_name, lex, sigma, unit, rule)


@st.composite
def _patched_twists(draw):
    """A unit-power twist over Z or Z^2_lex with one tau value overridden,
    the override inside the window or on its sums, and the window shuffled.
    Over the noncommutative UT2(Z2) (sigma: conjugation, or identity) an
    override by a unit that is not central breaks the sigma-eta conditions."""
    base = draw(_unit_power_twists([
        ("Z4", None), ("GF4", None), ("GF4", _FROBENIUS), ("Z2xZ2", None), ("Z2xZ2", _SWAP),
        ("UT2(Z2)", None), ("UT2(Z2)", _CONJUGATION)]))
    radius = 1 if base.group.k == 2 else 3
    window = base.group.window(-radius, radius)
    x, y = draw(st.sampled_from(window)), draw(st.sampled_from(base.group.window(-2, 2)))
    if draw(st.booleans()):
        x, y = y, x
    value = draw(st.integers(0, base.ring.size - 1))
    twist = TwistSystem(base.ring, base.group, base.sigma,
                        TauPatched(base.tau, {(x, y): value}))
    return twist, draw(st.permutations(window))


@settings(max_examples=120, deadline=None)
@given(_patched_twists())
def test_patched_twists_match_the_loop(case):
    twist, window = case
    _assert_same(twist, window)


@st.composite
def _unpatched_twists(draw):
    """Tau one or a unit power, unpatched, over Z or Z^2_lex, with a shuffled
    window: decided from the tau kind unless sigma moves the unit (GF4 with
    Frobenius and unit 2 or 3), which falls back to the scan."""
    twist = draw(_unit_power_twists([
        ("Z4", None), ("GF4", None), ("GF4", _FROBENIUS), ("Z2xZ2", _SWAP),
        ("UT2(Z2)", _CONJUGATION)]))
    if draw(st.booleans()):
        twist = TwistSystem(twist.ring, twist.group, twist.sigma, TauOne(twist.ring))
    window = draw(st.permutations(twist.group.window(-1, 1) if twist.group.k == 2
                                  else range(-3, 4)))
    return twist, window[:draw(st.integers(1, len(window)))]


@settings(max_examples=80, deadline=None)
@given(_unpatched_twists())
@example((_base_twist("GF4", True, _FROBENIUS, 3, ((1, 0), (0, 1))),
          LexProductGroup(2).window(-1, 1)))
def test_unpatched_twists_match_the_loop_and_the_scan(case):
    twist, window = case
    _assert_same(twist, window)
    decided = check_twist_conditions(twist, window)
    scanned = check_twist_conditions(_tau_over(twist, {}), window)
    assert decided.to_json() == scanned.to_json()
    assert decided.assoc_witness == scanned.assoc_witness


def _tau_calls(monkeypatch, twist, window):
    calls = []
    tau_at = TwistSystem.tau_at
    monkeypatch.setattr(TwistSystem, "tau_at",
                        lambda self, x, y: calls.append((x, y)) or tau_at(self, x, y))
    report = check_twist_conditions(twist, window)
    monkeypatch.undo()
    return report, len(calls)


def test_a_fixed_unit_power_is_decided_without_the_scan(monkeypatch):
    """Only `normalized` reads tau: 2|W| values, not the |W|^2 + 2|W||W+W| of
    the scan's tables."""
    twist = _base_twist("GF4", True, _FROBENIUS, 1, ((1, 0), (1, 1)))
    window = twist.group.window(-3, 3)
    report, calls = _tau_calls(monkeypatch, twist, window)
    assert report.gate_ok and report.assoc_witness is None
    assert calls <= 2 * len(window)


def test_a_unit_that_sigma_moves_falls_back_to_the_scan(monkeypatch):
    """Frobenius swaps the GF4 units 2 and 3, so tau = 2^(x.y) is scanned, and
    the scan finds its cocycle witness, which is also the associativity
    witness with c = one."""
    twist = _base_twist("GF4", True, _FROBENIUS, 2, ((1, 0), (0, 1)))
    window = twist.group.window(-3, 3)
    report, calls = _tau_calls(monkeypatch, twist, window)
    assert calls >= len(window) ** 2
    w = report["cocycle-standard"].witness
    assert not report["cocycle-standard"].ok and w
    grp = twist.group
    assert report.assoc_witness == (*(grp.from_json(w[k]) for k in "xyz"), twist.ring.one)


# --- the associativity decision against the brute-force oracle ----------------


def _check_decision(twist, window):
    """Compare the associativity decision (`assoc_witness` is None) with
    check_associativity over every single-term triple of the window, and
    return (decision, exhaustive result). A witness (x, y, z, c) must name
    a triple 1X^x, 1X^y, cX^z inside the window that the oracle refutes."""
    report = check_twist_conditions(twist, window)
    exhaustive = check_associativity(twist, single_term_triples(twist, window)).ok
    assert (report.assoc_witness is None) == exhaustive
    if report.assoc_witness is not None:
        x, y, z, c = report.assoc_witness
        assert {x, y, z} <= set(window) and c != 0
        one = twist.ring.one
        triple = (series_make(twist, [(x, one)]), series_make(twist, [(y, one)]),
                  series_make(twist, [(z, c)]))
        assert not check_associativity(twist, [triple]).ok
    return report.assoc_witness is None, exhaustive


def _tau_over(twist, overrides):
    return TwistSystem(twist.ring, twist.group, twist.sigma, TauPatched(twist.tau, overrides))


@st.composite
def _small_twists(draw):
    """A twist from the families the decision must cover, over a window of
    one to three exponents (two over the 8-element UT2(Z2)), with up to two
    tau values overridden at window exponents or their sums. The families:
    Z4 with tau a unit power, GF4 with sigma Frobenius, Z2 x Z2 with sigma
    the swap, and UT2(Z2) with sigma conjugation or the identity, each over
    Z or Z^2_lex. An override takes any ring element, so over UT2(Z2) it
    may be a unit that is not central or a non-unit."""
    base = draw(_unit_power_twists([
        ("Z4", None), ("GF4", _FROBENIUS), ("Z2xZ2", _SWAP),
        ("UT2(Z2)", _CONJUGATION), ("UT2(Z2)", None)]))
    exponents = base.group.window(-1, 1) if base.group.k == 2 else base.group.window(-2, 2)
    width = 2 if base.ring.size == 8 else 3
    window = draw(st.lists(st.sampled_from(exponents), min_size=1, max_size=width, unique=True))
    grp = base.group
    places = sorted(set(window) | {grp.op(x, y) for x in window for y in window})
    overrides = draw(st.dictionaries(
        st.tuples(st.sampled_from(places), st.sampled_from(places)),
        st.integers(0, base.ring.size - 1), max_size=2))
    return _tau_over(base, overrides), window


@settings(max_examples=80, deadline=None)
@given(_small_twists())
def test_the_associativity_decision_agrees_with_the_oracle(case):
    _check_decision(*case)


@pytest.mark.parametrize("name, expected", [
    ("ut2-conjugation", (True, True)),
    ("ut2-noncentral-tau", (False, False)),
    ("ut2-zero-tau", (True, True)),
    ("z4-corrupted", (False, False)),
    ("gf4-frobenius-tau", (False, False)),
])
def test_the_associativity_decision_on_named_twists(name, expected):
    """One twist per outcome: associative; not associative, though the
    standard cocycle holds, because tau(0, 0) = [[1, 1], [0, 1]], a unit
    outside UT2(Z2)'s centre, does not commute with every coefficient;
    associative though tau(0, 0) = 0 is no unit (it makes every product 0);
    and two cocycle failures."""
    ut2 = _ut2_conjugation()
    plain_ut2 = _base_twist("UT2(Z2)", False, None, 5, ((1,),))
    z4 = _base_twist("Z4", False, None, 3, ((1,),))
    twist, window = {
        "ut2-conjugation": (ut2, [-1, 0, 1]),
        "ut2-noncentral-tau": (_tau_over(plain_ut2, {(0, 0): 7}), [0]),
        "ut2-zero-tau": (_tau_over(plain_ut2, {(0, 0): 0}), [0]),
        "z4-corrupted": (_tau_over(z4, {(1, 1): 1}), [-1, 0, 1]),
        "gf4-frobenius-tau": (_base_twist("GF4", False, (0, 1, 3, 2), 2, ((1,),)), [0, 1]),
    }[name]
    assert _check_decision(twist, window) == expected


@pytest.mark.parametrize("overrides, window, witness", [
    ({(0, 0): 7}, [0], (0, 0, 0, 1)),
    ({(0, 0): 1}, [0], (0, 0, 0, 2)),
    ({(0, 0): 4}, [0], None),
    ({(1, 1): 7}, [0, 1], (1, 1, 0, 1)),
])
def test_a_tau_outside_the_centre_is_decided_on_every_generator(overrides, window, witness):
    """Over UT2(Z2) (one = 5; additive generators 1, 2, 4, that is e22, e12,
    e11) with sigma the identity, a tau value t with t^2 = t or one keeps
    the standard cocycle, so every witness has c other than one. t = [[1, 1],
    [0, 1]] does not commute with e22; t = e22 commutes with e22 but not
    with e12; t = e11 does not commute with e12 either, but that difference
    e12 times tau(0, 0) = e11 is 0, so the twist associates. Over the window
    {0, 1}, t at (1, 1) is found after three pairs with tau = one and the
    same sigma maps."""
    plain_ut2 = _base_twist("UT2(Z2)", False, None, 5, ((1,),))
    twist = _tau_over(plain_ut2, overrides)
    report = check_twist_conditions(twist, window)
    assert report["cocycle-standard"].ok
    assert report.assoc_witness == witness
    assert _check_decision(twist, window) == (witness is None, witness is None)
