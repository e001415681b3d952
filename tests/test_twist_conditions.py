"""Differential tests for the tabulated twist-condition scan.

The oracle is the triple loop `check_twist_conditions` ran before it moved
onto tables: tau and the group products evaluated at every step through
`tau_at` and `op`, kept here rather than as a second path in the library.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnseries.cli import TWIST_WINDOW, load_fixture, resolve_fixture, shipped_fixtures
from mnseries.groups import IntegersGroup, LexProductGroup
from mnseries.rings import ring_gf4, ring_product, ring_zn, unit_inverse, units
from mnseries.series import (TauPatched, TwistSystem, check_twist_conditions,
                             twist_from_spec)
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


@st.composite
def _patched_twists(draw):
    """A unit-power twist over Z or Z^2_lex with one tau value overridden,
    the override inside the window or on its sums, and the window shuffled.
    Over the noncommutative UT2(Z2) (sigma: conjugation, or identity) an
    override by a unit that is not central breaks the sigma-eta conditions."""
    conjugation = tuple(_ut2_conjugation().sigma.generators[0].map)
    ring_name, sigma = draw(st.sampled_from([
        ("Z4", None), ("GF4", None), ("GF4", (0, 1, 3, 2)),
        ("Z2xZ2", None), ("Z2xZ2", (0, 2, 1, 3)),
        ("UT2(Z2)", None), ("UT2(Z2)", conjugation)]))
    lex = draw(st.booleans())
    k = 2 if lex else 1
    unit = {"Z4": draw(st.sampled_from([1, 3])), "GF4": draw(st.sampled_from([1, 2, 3])),
            "Z2xZ2": 3, "UT2(Z2)": 5}[ring_name]
    rule = tuple(tuple(draw(st.integers(-1, 2)) for _ in range(k)) for _ in range(k))
    base = _base_twist(ring_name, lex, sigma, unit, rule)
    radius = 1 if lex else 3
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
