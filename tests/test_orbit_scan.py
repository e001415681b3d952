"""The G-Armendariz scan over unit orbits and the series-zip extraction over
support classes, against the exact scans they replaced.

The oracles are in tests/oracles.py: `full_join_G_armendariz`, the window
join over every pair of universe series, `orbits`, the orbit scan over the
listed universe with a seen-set that the stabilizer walk replaced, and
`per_h_series_zip_witness`, one extraction trace for every member h of the
reduced quotient and every factor. The reports must be equal, witnesses and counts included, and a
failure must raise the same error with the same message. Rings are drawn
from Z_n, products with their swap, trivial extensions, UT2(Z_n) and
subalgebras of F2 matrix algebras, each with an automorphism or with the
identity, over Z or Z^2_lex, with tau one or a power of a central unit that
sigma fixes.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mnseries.transfer as transfer
from mnseries.cli import load_fixture, resolve_fixture
from mnseries.errors import MNSeriesError, TraceMismatch
from mnseries.groups import IntegersGroup, LexProductGroup
from mnseries.ideals import (enumerate_ideals, ideal_closure, is_semiprime_ideal,
                             is_sigma_compatible_ideal, quotient_ideal)
from mnseries.properties import is_G_armendariz
from mnseries.rings import (ring_from_table, ring_trivial_extension, ring_zn, unit_inverse,
                            units)
from mnseries.series import WindowAlgebra, series_make, trivial_twist, twist_from_spec
from mnseries.transfer import TruncatedUniverse, series_zip_witness
from oracles import full_join_G_armendariz, orbits, per_h_series_zip_witness, ut2_table
from test_class_scan import _ring
from test_table_kernels import _f2_matrix_algebras


def _outcome(scan, *args):
    """A scan's JSON report, or the type and message of the error it raised."""
    try:
        return scan(*args).to_json()
    except MNSeriesError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def _twisted_rings(draw):
    """(ring, sigma generator as a permutation): a ring of `_ring`'s kinds
    with its automorphism, or an F2 matrix algebra with conjugation by one
    of its units; sigma is the identity half the time."""
    kind = draw(st.sampled_from(["Zn", "product", "trivial_extension", "ut2", "f2"]))
    if kind == "f2":
        ring = draw(_f2_matrix_algebras())
        u = draw(st.sampled_from(sorted(units(ring))))
        u_inv = unit_inverse(ring, u)
        perm = [ring.mul(ring.mul(u, m), u_inv) for m in ring.elements()]
    else:
        if kind == "Zn":
            params = (draw(st.sampled_from(range(16, 1, -1))),)
        elif kind == "product":
            m = draw(st.integers(2, 4))
            params = (m, draw(st.integers(2, 16 // m)))
        elif kind == "trivial_extension":
            n = draw(st.integers(2, 4))
            params = (n, draw(st.sampled_from(sorted(units(ring_zn(n))))))
        else:
            params = (draw(st.sampled_from([2, 4])),)
        ring, perm = _ring(kind, *params)
    if draw(st.booleans()):
        perm = list(ring.elements())
    return ring, perm


@st.composite
def _twists(draw, limit=256):
    """A twist of a drawn ring over Z or Z^2_lex, and an ascending window of
    at most `limit` series, as wide as that allows more often than not, that
    holds the identity."""
    ring, perm = draw(_twisted_rings())
    fixed = [v for v in sorted(units(ring)) if perm[v] == v and all(
        ring.mul(v, r) == ring.mul(r, v) for r in ring.elements())]
    unit = draw(st.sampled_from(fixed))
    width = draw(st.sampled_from([w for w in (3, 2, 1) if ring.size ** w <= limit]))
    if draw(st.booleans()):
        group, k, rule, identity = IntegersGroup(), 1, "product", 0
        others = [-2, -1, 1, 2]
    else:
        group, k, identity = LexProductGroup(2), 2, (0, 0)
        rule = [[draw(st.integers(-1, 1)) for _ in range(2)] for _ in range(2)]
        others = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if a or b]
    window = sorted([identity, *draw(st.permutations(others))[:width - 1]])
    twist = twist_from_spec(ring, group, {
        "sigma": {"generators": [perm] * k},
        "tau": {"kind": "unit_power", "unit": unit, "exponent_rule": rule}})
    return twist, window


# --- G-Armendariz over unit orbits --------------------------------------------------


def _gf4_frobenius():
    return load_fixture(resolve_fixture("gf4_frobenius")).twist


def test_orbits_partition_the_universe_under_the_units_that_act():
    """f-side orbits come from every unit on the left; g-side orbits from
    the central units that sigma fixes, on the right. GF4's Frobenius
    swaps its units x and x + 1, so only 1 acts on g there, while the
    untwisted GF4 has the same orbits on both sides."""
    frobenius = _gf4_frobenius()
    ut2 = ring_from_table(ut2_table(2))
    for twist, side, reps, sizes in [
            (frobenius, "left", 6, [1, 3, 3, 3, 3, 3]),
            (frobenius, "right", 16, [1] * 16),
            (trivial_twist(frobenius.ring), "right", 6, [1, 3, 3, 3, 3, 3]),
            (trivial_twist(ut2), "left", 40, None),
            (trivial_twist(ut2), "right", 64, [1] * 64)]:
        alg = WindowAlgebra(twist, [0, 1])
        universe = alg.universe()
        found, found_sizes = alg.representatives(side, 2)
        assert len(found) == reps and sum(found_sizes) == len(universe), (twist, side)
        assert sizes is None or found_sizes == sizes
        assert found == [s for s in universe if s in found]
    with pytest.raises(ValueError):
        alg.representatives("both", 2)


@settings(max_examples=100, deadline=None)
@given(_twists())
@example(twist_window=(_gf4_frobenius(), [-1, 0, 1]))
@example(twist_window=(trivial_twist(ring_from_table(ut2_table(2))), [0, 1]))
def test_representatives_match_the_orbit_oracle(twist_window):
    """The walk over the stabilizer chain lists the same representatives, in
    the same order and with the same orbit sizes, as the seen-set scan over
    the listed series, on both sides and at every support bound from 0 to
    the window width. GF4's Frobenius moves its units, so only 1 acts on
    the right; UT2(Z2) has 40 left representatives over two positions."""
    twist, window = twist_window
    alg = WindowAlgebra(twist, window)
    universe = alg.universe()
    for max_support in range(len(window) + 1):
        fragment = [s for s in universe if len(s) <= max_support]
        for side in ("left", "right"):
            assert alg.representatives(side, max_support) == orbits(alg, fragment, side), (
                side, max_support)


@settings(max_examples=100, deadline=None)
@given(_twists(), st.data())
@example(twist_window=(_gf4_frobenius(), [-1, 0, 1]), data=None)
def test_g_armendariz_matches_the_full_join(twist_window, data):
    """Same verdict, witness, pairs_checked and zero_products_seen as the
    join over every pair, on generated rings and twists, and on GF4 with
    Frobenius, a sigma that moves units."""
    twist, window = twist_window
    support = len(window)
    if data is not None:
        support = data.draw(st.sampled_from(range(support, -1, -1)))
    args = (TruncatedUniverse(twist, window), support)
    assert _outcome(is_G_armendariz, *args) == _outcome(full_join_G_armendariz, *args)


def test_ut2_z2_fails_g_armendariz_with_the_full_join_witness():
    """Its two units make orbits of two on the f side, so the witness comes
    from the exact rerun."""
    universe = TruncatedUniverse(trivial_twist(ring_from_table(ut2_table(2))), [0, 1])
    rep = is_G_armendariz(universe, 2)
    assert rep.verdict is False
    assert rep.to_json() == full_join_G_armendariz(universe, 2).to_json()


@pytest.mark.parametrize("ring, witness", [
    (ring_trivial_extension(ring_zn(8)),
     {"f": [[0, 1], [1, 16]], "g": [[0, 2], [1, 32]], "x": 0, "y": 1, "product": 4}),
    (ring_from_table(ut2_table(4)),
     {"f": [[0, 4], [1, 16]], "g": [[0, 4], [1, 3]], "x": 0, "y": 1, "product": 12})])
def test_64_element_rings_fail_with_the_full_join_witness(ring, witness):
    """T(Z8) and UT2(Z4), untwisted over 0..1: 4,096 series each, at the
    universe cap, and the same first witness, pairs checked and zero
    products as the full join."""
    universe = TruncatedUniverse(trivial_twist(ring), [0, 1])
    rep = is_G_armendariz(universe, 2)
    assert rep.witness == witness
    assert rep.to_json() == full_join_G_armendariz(universe, 2).to_json()


def _walks(monkeypatch, universe, max_support):
    """The sides `WindowAlgebra.representatives` walks in one
    is_G_armendariz call."""
    sides = []
    real = WindowAlgebra.representatives

    def counting(self, side, max_support):
        sides.append(side)
        return real(self, side, max_support)

    monkeypatch.setattr(WindowAlgebra, "representatives", counting)
    rep = is_G_armendariz(universe, max_support)
    assert rep.to_json() == full_join_G_armendariz(universe, max_support).to_json()
    return sides


def test_g_armendariz_walks_once_when_both_sides_act_alike(monkeypatch):
    """Every unit of Z8 is central, and the identity sigma fixes it, so the
    right side acts by the left side's maps and reuses its walk. GF4's
    Frobenius moves its units x and x + 1, so only 1 acts on the right and
    the right side is walked on its own."""
    z8 = TruncatedUniverse(trivial_twist(ring_zn(8)), [0, 1, 2])
    assert z8.algebra.unit_maps("right") == z8.algebra.unit_maps("left")
    assert _walks(monkeypatch, z8, 3) == ["left"]
    frobenius = TruncatedUniverse(_gf4_frobenius(), [-1, 0, 1])
    assert _walks(monkeypatch, frobenius, 3) == ["left", "right"]


# --- series-zip over support classes --------------------------------------------------


def _zip_ideals(twist):
    """The two-sided ideals that require_zip accepts for the twist."""
    return [U for U in enumerate_ideals(twist.ring, "twosided")
            if is_semiprime_ideal(U).ok
            and is_sigma_compatible_ideal(U, twist.sigma_generators()).ok]


@settings(max_examples=100, deadline=None)
@given(_twists(limit=64), st.data())
def test_series_zip_matches_the_per_h_extraction(twist_window, data):
    """The X the thm5.4 suite builds: one element a outside U with
    (U:{a}) = U at the identity, or that series beside one with a
    coefficient inside U."""
    twist, window = twist_window
    U = data.draw(st.sampled_from(_zip_ideals(twist)))
    candidates = [a for a in twist.ring.elements() if a not in U.members
                  and quotient_ideal(U, {a}) == U.members]
    assume(candidates)
    outside = data.draw(st.sampled_from(candidates))
    grp = twist.group
    X = [series_make(twist, [(grp.identity, outside)])]
    inside = sorted(U.members - {0})
    if inside and len(window) > 1 and data.draw(st.booleans()):
        other = next(x for x in window if grp.canon(x) != grp.identity)
        X = [series_make(twist, [(other, data.draw(st.sampled_from(inside)))]), *X]
    universe = TruncatedUniverse(twist, window)
    new = _outcome(series_zip_witness, X, U, universe)
    assert new == _outcome(per_h_series_zip_witness, X, U, TruncatedUniverse(twist, window))


def _z8_zip():
    """Z8 with U = (2) = {0, 2, 4, 6}, untwisted, over 0..1, and X = {1 X^0}."""
    twist = trivial_twist(ring_zn(8))
    U = ideal_closure(twist.ring, [2], "twosided")
    return [series_make(twist, [(0, 1)])], U, TruncatedUniverse(twist, [0, 1])


def test_series_zip_traces_each_support_once_per_factor(monkeypatch):
    """The 16 U-coefficient series over two positions have 4 supports: one
    trace with the factor for each nonzero support (the zero h leaves no X_w
    pair to trace), while `extractions` counts all 16. The h traced for a
    support is its first member in universe order, the supports taken in
    the order of those members: U's least nonzero element, 2, at each
    position of the support."""
    X, U, universe = _z8_zip()
    real = transfer._trace
    traced = []

    def recording(alg, f, g, U, fg):
        traced.append(g)
        return real(alg, f, g, U, fg)

    monkeypatch.setattr(transfer, "_trace", recording)
    rep = series_zip_witness(X, U, universe)
    assert rep.verdict is True
    assert rep.certificate["extractions"] == 16
    first = {}
    for m in sorted(universe.with_coeffs_in(U.members)):
        if h := universe.terms_at(m):
            first.setdefault(tuple(i for i, _ in h), h)
    assert traced == list(first.values()) == [[(1, 2)], [(0, 2)], [(0, 2), (1, 2)]]
    fresh = TruncatedUniverse(universe.twist, universe.window)
    assert rep.to_json() == per_h_series_zip_witness(X, U, fresh).to_json()


def test_a_corrupted_table_fails_series_zip_before_any_trace(monkeypatch):
    """A wrong term 1 * sigma_0(6) * tau(0, 0) that stays inside U is read by
    the trace of 6 X^0 alone, which no support-class trace runs. The table
    check fails before the first trace and its message is raised, by the
    scan and by the per-h oracle alike; nothing is retried."""
    real, traced = transfer._trace, []

    def recording(*args):
        traced.append(args)
        return real(*args)

    monkeypatch.setattr(transfer, "_trace", recording)
    messages = []
    for scan in (series_zip_witness, per_h_series_zip_witness):
        X, U, universe = _z8_zip()
        alg = universe.algebra
        assert alg.term[0][1][0][6] == 6
        alg.term[0][1][0][6] = 4
        with pytest.raises(TraceMismatch) as exc:
            scan(X, U, universe)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] == ("term table disagrees with term_product "
                                          "at (0, 0), a=1, b=6")
    assert traced == []


@pytest.mark.parametrize("name", ["gf4_frobenius", "z4_example_5_5"])
def test_a_wrong_term_no_trace_reads_fails_series_zip(name):
    """A wrong term 2 * sigma_0(0) * tau(0, 0) over the fixture's caps
    window: a = 2 with b = 0, which no extraction trace reads, as a trace
    reads only nonzero coefficients of h. series-zip raises the table
    check's message for it rather than reporting a verdict."""
    fx = load_fixture(resolve_fixture(name))
    U = fx.ideals["U"]
    universe = TruncatedUniverse(fx.twist, fx.group.window(*fx.cap("window")))
    alg = universe.algebra
    assert alg.window[0] == 0 and alg.term[0][2][0][0] == 0
    alg.term[0][2][0][0] = 1
    outside = next(a for a in fx.ring.elements() if a not in U.members
                   and quotient_ideal(U, {a}) == U.members)
    X = [series_make(fx.twist, [(0, outside)])]
    with pytest.raises(TraceMismatch, match=r"^term table disagrees with term_product "
                                            r"at \(0, 0\), a=2, b=0$"):
        series_zip_witness(X, U, universe)


def test_a_wrong_term_the_quotient_reads_fails_series_zip_with_the_table_check():
    """A wrong term 1 * sigma_0(1) * tau(0, 0) = 2 (it is 1) on z4_example_5_5
    over 0..2 moves the universe quotient by X = {1 X^0} off the
    U-coefficient series. The table check runs before that quotient, so
    series-zip raises its message, not HypothesisFails."""
    fx = load_fixture(resolve_fixture("z4_example_5_5"))
    U = fx.ideals["U"]
    universe = TruncatedUniverse(fx.twist, fx.group.window(0, 2))
    alg = universe.algebra
    assert alg.window == [0, 1, 2] and alg.term[0][1][0][1] == 1
    alg.term[0][1][0][1] = 2
    with pytest.raises(TraceMismatch, match=r"^term table disagrees with term_product "
                                            r"at \(0, 0\), a=1, b=1$"):
        series_zip_witness([series_make(fx.twist, [(0, 1)])], U, universe)
