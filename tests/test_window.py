"""Differential tests for the compiled window algebra and its join, which
prunes pairs by their leading and trailing terms.

The oracle is the Series product: `series_mul` over every pair of a small
window, and the plain double loops the exhaustive scans ran before they
moved onto the kernel, kept here rather than as a second path in the
library. The extraction trace has its own oracle here too: the Series-based
derivation it ran before it moved onto window positions.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnseries.cli import load_fixture, resolve_fixture, run_suite
from mnseries.errors import MalformedSpec, TraceMismatch
from mnseries.groups import IntegersGroup, LexProductGroup
from mnseries.ideals import enumerate_ideals, make_ideal
from mnseries.properties import is_G_armendariz
from mnseries.rings import (ring_from_table, ring_product, ring_trivial_extension,
                            ring_zn, units)
from mnseries.series import (WindowAlgebra, series_make, series_mul, series_to_json,
                             term_product, trivial_twist, twist_from_spec)
from mnseries.transfer import TruncatedUniverse, _extract, _trace, coefficient_extraction
from oracles import (exhaustive_series, extraction_oracle, product_series, ut2_table,
                     x_w_pairs)


def _ut2_conjugation():
    """UT2(Z2) with sigma_n = conjugation by [[1, 1], [0, 1]] to the n-th power."""
    ring = ring_from_table(ut2_table(2))
    u = 4 * 1 + 2 * 1 + 1  # [[a, b], [0, c]] has id 4a + 2b + c; u is its own inverse
    perm = [ring.mul(ring.mul(u, m), u) for m in ring.elements()]
    return twist_from_spec(ring, IntegersGroup(), {"sigma": {"generator": perm},
                                                   "tau": {"kind": "one"}})


def _cases():
    z4 = ring_zn(4)
    gf4 = load_fixture(resolve_fixture("gf4_frobenius")).twist
    z4_tau = twist_from_spec(z4, IntegersGroup(), {
        "sigma": "identity",
        "tau": {"kind": "unit_power", "unit": 3, "exponent_rule": "product"}})
    z4_lex_tau = twist_from_spec(z4, LexProductGroup(2), {
        "sigma": "identity",
        "tau": {"kind": "unit_power", "unit": 3, "exponent_rule": [[0, 1], [0, 0]]}})
    klein = ring_product(ring_zn(2), ring_zn(2))
    klein_swap = twist_from_spec(klein, IntegersGroup(), {
        "sigma": {"generator": [0, 2, 1, 3]}, "tau": {"kind": "one"}})
    ut2 = ring_from_table(ut2_table(2))
    # every window ascends, as WindowAlgebra requires; the "-unsorted" names
    # are kept as test ids from when these windows were listed out of order
    return {
        "z4-tau": (z4_tau, [0, 1, 2]),
        "z4-tau-unsorted": (z4_tau, [-1, 0, 1]),
        "gf4-frobenius": (gf4, [-1, 0, 1]),
        "z4-z2lex-tau": (z4_lex_tau, [(0, 0), (0, 1), (1, 0)]),
        "klein-swap-unsorted": (klein_swap, [0, 1, 2]),
        "ut2-z2": (trivial_twist(ut2), [0, 1]),
        "ut2-z2-unsorted": (trivial_twist(ut2), [0, 1]),
        "ut2-z2-conjugation": (_ut2_conjugation(), [0, 1]),
    }


CASES = _cases()


@functools.lru_cache(maxsize=None)
def _oracle(name):
    """The universe as Series, and every pairwise series_mul product."""
    twist, window = CASES[name]
    series = list(exhaustive_series(twist, window))
    return series, [[series_mul(f, g) for g in series] for f in series]


@pytest.mark.parametrize("name", sorted(CASES))
def test_dense_product_matches_series_mul(name):
    twist, window = CASES[name]
    alg = WindowAlgebra(twist, window)
    universe = alg.universe()
    series, products = _oracle(name)
    assert [alg.series(t) for t in universe] == series
    for p, f in enumerate(universe):
        for q, g in enumerate(universe):
            assert product_series(alg, alg.multiply(f, g)) == products[p][q]


def _member_sets(ring):
    """{0} and the members of every left, right and two-sided ideal."""
    sets = {frozenset({0})}
    for kind in ("left", "right", "twosided"):
        sets.update(I.members for I in enumerate_ideals(ring, kind))
    return sorted(sets, key=sorted)


@pytest.mark.parametrize("name", sorted(CASES))
def test_join_prunes_no_qualifying_pair(name):
    """For {0} and every one-sided and two-sided ideal, over the whole
    universe, the series of at most one or two terms (a single-term series
    has its leading term as its trailing one) and the series of two or more
    terms (whose trailing terms need not lead any series), the join yields
    exactly the pairs whose series_mul product has all its coefficients in
    the set, each with that product."""
    twist, window = CASES[name]
    alg = WindowAlgebra(twist, window)
    full = alg.universe()
    _, products = _oracle(name)
    universes = [full, [t for t in full if len(t) <= 1], [t for t in full if len(t) <= 2],
                 [t for t in full if len(t) > 1]]
    for universe in universes:
        index = [full.index(t) for t in universe]
        for members in _member_sets(twist.ring):
            joined = [(p, q, product_series(alg, fg))
                      for p, q, fg in alg.join(universe, members)]
            expected = [(p, q, products[index[p]][index[q]])
                        for p in range(len(universe)) for q in range(len(universe))
                        if products[index[p]][index[q]].content() <= members]
            assert joined == expected, (len(universe), sorted(members))


def _counting_multiplies(monkeypatch) -> list:
    real = WindowAlgebra.multiply
    calls = []

    def counting(alg, f, g):
        calls.append((f, g))
        return real(alg, f, g)

    monkeypatch.setattr(WindowAlgebra, "multiply", counting)
    return calls


def test_join_multiplies_only_pairs_with_admissible_leading_and_trailing_terms(monkeypatch):
    twist, window = CASES["z4-tau"]
    alg = WindowAlgebra(twist, window)
    universe = alg.universe()
    calls = _counting_multiplies(monkeypatch)
    assert sum(1 for _ in alg.join(universe, {0})) == 176
    assert len(calls) == 208  # 568 when pruned by leading term alone


def test_g_armendariz_joins_orbit_representatives(monkeypatch):
    """Z4 has the units 1 and 3, all central and fixed by the identity
    sigma: 36 of the 64 series represent their orbits on either side, and
    the join over them multiplies 135 pairs where the full join multiplies
    208, with the same weighted count of zero products."""
    twist, window = CASES["z4-tau"]
    alg = WindowAlgebra(twist, window)
    for side in ("left", "right"):
        reps, sizes = alg.representatives(side, 3)
        assert (len(reps), sum(sizes)) == (36, 64)
    calls = _counting_multiplies(monkeypatch)
    rep = is_G_armendariz(TruncatedUniverse(twist, window), 3)
    assert rep.bounds["pairs_checked"] == 4096
    assert rep.bounds["zero_products_seen"] == 176
    assert len(calls) == 135


def _listing_calls(monkeypatch, raises: bool) -> list:
    """Record each call of WindowAlgebra.universe; a call raises if `raises`."""
    real, calls = WindowAlgebra.universe, []

    def listing(alg):
        calls.append(alg)
        if raises:
            raise AssertionError("the window's members were listed")
        return real(alg)

    monkeypatch.setattr(WindowAlgebra, "universe", listing)
    return calls


def test_a_true_g_armendariz_verdict_lists_no_window_member(monkeypatch):
    """The representatives are walked, not filtered from a member list, so
    a True verdict, alone or inside thm4.5, gives the same report with the
    window's listing disabled. Z64 over 0..2 walks 9,556 representatives a
    side, standing for its 262,144 series."""
    twist, window = CASES["z4-tau"]
    fx = load_fixture(resolve_fixture("klein_fusible"))
    expected = (is_G_armendariz(TruncatedUniverse(twist, window), 3).to_json(),
                run_suite(fx, "thm4.5").to_json())
    _listing_calls(monkeypatch, raises=True)
    assert is_G_armendariz(TruncatedUniverse(twist, window), 3).to_json() == expected[0]
    assert run_suite(fx, "thm4.5").to_json() == expected[1]
    alg = WindowAlgebra(trivial_twist(ring_zn(64)), [0, 1, 2])
    for side in ("left", "right"):
        reps, sizes = alg.representatives(side, 3)
        assert (len(reps), sum(sizes)) == (9556, 64 ** 3)


def test_a_false_g_armendariz_verdict_lists_the_window_once(monkeypatch):
    """UT2(Z2) over 0..1 fails, and the exact rerun lists the members once."""
    calls = _listing_calls(monkeypatch, raises=False)
    universe = TruncatedUniverse(trivial_twist(ring_from_table(ut2_table(2))), [0, 1])
    assert is_G_armendariz(universe, 2).verdict is False
    assert len(calls) == 1


@pytest.mark.parametrize("side", ["left", "right"])
def test_orbit_sizes_that_miscount_the_fragment_fail_g_armendariz(monkeypatch, side):
    """A walk that loses a representative on either side leaves sizes that
    sum to fewer than the 64 series of GF4 over -1..1: a named TraceMismatch,
    not a verdict. Frobenius moves GF4's units, so each side is walked on
    its own; the last left orbit has 3 series, the last right one 1."""
    real = WindowAlgebra.representatives

    def losing(alg, which, max_support):
        reps, sizes = real(alg, which, max_support)
        return (reps[:-1], sizes[:-1]) if which == side else (reps, sizes)

    monkeypatch.setattr(WindowAlgebra, "representatives", losing)
    twist, window = CASES["gf4-frobenius"]
    total = {"left": 61, "right": 63}[side]
    with pytest.raises(TraceMismatch, match=f"^G-Armendariz {side} orbit sizes sum to {total}, "
                                            "but 64 series have at most 3 terms$"):
        is_G_armendariz(TruncatedUniverse(twist, window), 3)


def test_g_armendariz_rechecks_its_witness_with_series_mul(monkeypatch):
    """A window product that calls a nonzero fg zero yields a witness pair
    that series_mul refutes: a named TraceMismatch, not the verdict False."""
    twist, window = CASES["z4-tau"]
    assert is_G_armendariz(TruncatedUniverse(twist, window), 3).verdict is True
    monkeypatch.setattr(WindowAlgebra, "multiply",
                        lambda alg, f, g: [0] * len(alg.products))
    with pytest.raises(TraceMismatch, match="does not re-check") as exc:
        is_G_armendariz(TruncatedUniverse(twist, window), 3)
    assert "f*g = Series(0)" not in str(exc.value)


def test_g_armendariz_rechecks_a_true_verdict_by_its_single_term_pairs(monkeypatch):
    """A window product that calls every fg nonzero lets no pair through the
    join, so no witness is found. The single-term pairs yielded (none) are
    compared with the a*sigma_x(b)*tau(x, y) that vanish, read from the
    twist (18 for the Klein swap over 0..2): a named TraceMismatch, not the
    verdict True."""
    twist, window = CASES["klein-swap-unsorted"]
    assert is_G_armendariz(TruncatedUniverse(twist, window), 2).verdict is False
    monkeypatch.setattr(WindowAlgebra, "multiply",
                        lambda alg, f, g: [1] * len(alg.products))
    with pytest.raises(TraceMismatch, match="yielded 0 single-term pairs .* but 18 products"):
        is_G_armendariz(TruncatedUniverse(twist, window), 2)


def test_window_exponents_must_be_distinct(tw_z4_tau):
    """A window must ascend strictly: a repeated exponent, adjacent or not,
    and a descending pair are refused."""
    for window in ([0, 1, 0], [1, 0], [0, 1, 1]):
        with pytest.raises(MalformedSpec, match="strictly ascending"):
            WindowAlgebra(tw_z4_tau, window)


# --- the scans against the plain double loops they replaced -------------------


def _g_armendariz_loop(ring, twist, max_support, exponents):
    all_series = list(exhaustive_series(twist, exponents, max_support))
    pairs_checked = zero_products = 0
    for f in all_series:
        for g in all_series:
            pairs_checked += 1
            if not series_mul(f, g).is_zero:
                continue
            zero_products += 1
            for x, a in f.terms.items():
                for y, b in g.terms.items():
                    if ring.mul_table[a][b] != 0:
                        grp = twist.group
                        witness = {"f": series_to_json(f), "g": series_to_json(g),
                                   "x": grp.to_json(x), "y": grp.to_json(y),
                                   "product": ring.mul_table[a][b]}
                        return witness, pairs_checked, zero_products
    return None, pairs_checked, zero_products


def test_g_armendariz_klein_swap_stops_where_the_loop_does(klein, tw_klein_swap):
    rep = is_G_armendariz(TruncatedUniverse(tw_klein_swap, [0, 1, 2]), 2)
    witness, checked, zero = _g_armendariz_loop(klein, tw_klein_swap, 2, [0, 1, 2])
    assert rep.verdict is False
    assert rep.witness == witness
    assert (rep.bounds["pairs_checked"], rep.bounds["zero_products_seen"]) == (150, 54)
    assert (checked, zero) == (150, 54)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("max_support", [None, 1, 2])
def test_g_armendariz_matches_loop(name, max_support):
    twist, window = CASES[name]
    ring = twist.ring
    support = len(window) if max_support is None else max_support
    rep = is_G_armendariz(TruncatedUniverse(twist, window), support)
    witness, checked, zero = _g_armendariz_loop(ring, twist, support, window)
    assert rep.verdict is (witness is None)
    assert rep.witness == witness
    assert rep.bounds["pairs_checked"] == checked
    assert rep.bounds["zero_products_seen"] == zero


@pytest.mark.parametrize("fixture", ["z4_tau_power", "gf4_frobenius", "klein_fusible"])
def test_thm54_counts_match_loop(fixture):
    fx = load_fixture(resolve_fixture(fixture))
    U = fx.ideals["U"]
    window = fx.group.window(*fx.cap("window"))
    all_series = list(exhaustive_series(fx.twist, window))
    pairs = qualifying = 0
    for f in all_series:
        for g in all_series:
            pairs += 1
            if series_mul(f, g).content() <= U.members:
                qualifying += 1
                coefficient_extraction(f, g, U)
    report = run_suite(fx, "thm5.4")
    check = next(c for c in report.checks if c.prop == "extraction-vs-oracle")
    assert check.verdict is True
    assert check.certificate == {"pairs": pairs, "qualifying": qualifying}


def test_thm54_mismatch_counts_the_pair_that_stops_the_scan(monkeypatch):
    """A kernel product that disagrees with the trace stops the scan there."""
    fx = load_fixture(resolve_fixture("z4_tau_power"))
    U = fx.ideals["U"]
    real = WindowAlgebra.join

    def corrupt_200th(alg, universe, members):
        for n, (p, q, fg) in enumerate(real(alg, universe, members), 1):
            if n == 200:
                fg = [alg.twist.ring.add(c, 2) for c in fg]  # still inside U = {0, 2}
            yield p, q, fg

    monkeypatch.setattr(WindowAlgebra, "join", corrupt_200th)
    report = run_suite(fx, "thm5.4")
    check = next(c for c in report.checks if c.prop == "extraction-vs-oracle")
    assert check.verdict is False
    assert "disagrees with the product coefficient" in check.witness \
        or "no pair of supports reaches" in check.witness
    assert check.certificate["qualifying"] == 200
    alg = WindowAlgebra(fx.twist, fx.group.window(*fx.cap("window")))
    universe = alg.universe()
    p, q = [(p, q) for p, q, _ in alg.join(universe, U.members)][199]
    assert p > 0
    assert check.certificate["pairs"] == p * len(universe) + q + 1


def test_thm54_oracle_does_not_read_the_term_table(monkeypatch):
    """A wrong table term that stays inside U would pass every step of the
    trace, because the kernel's product and the trace read the same table;
    the table check compares it with term_product before any trace, and
    thm5.4 fails with its message."""
    fx = load_fixture(resolve_fixture("z4_tau_power"))
    real = WindowAlgebra.__init__

    def corrupted(alg, twist, window):
        real(alg, twist, window)
        i = alg.window.index(0)
        assert alg.term[i][2][i][1] == 2  # 2 * sigma_0(1) * tau(0, 0)
        alg.term[i][2][i][1] = 0          # still inside U = {0, 2}

    monkeypatch.setattr(WindowAlgebra, "__init__", corrupted)
    report = run_suite(fx, "thm5.4")
    assert report.status == "fail"
    [check] = report.checks
    assert (check.verdict, check.note) == (False, "derivation trace mismatch")
    assert check.witness == "term table disagrees with term_product at (0, 0), a=2, b=1"


def test_properties_g_armendariz_reads_checked_tables(monkeypatch):
    """A wrong table term that stays nonzero leaves the G-Armendariz verdict,
    its counts and its single-term re-check as they were on z4_tau_power,
    so only the table check, which the scan's universe runs before its
    join, catches it: the properties suite fails with its message."""
    fx = load_fixture(resolve_fixture("z4_tau_power"))
    real = WindowAlgebra.__init__

    def corrupted(alg, twist, window):
        real(alg, twist, window)
        i = alg.window.index(0)
        assert alg.term[i][1][i][1] == 1  # 1 * sigma_0(1) * tau(0, 0)
        alg.term[i][1][i][1] = 2

    monkeypatch.setattr(WindowAlgebra, "__init__", corrupted)
    report = run_suite(fx, "properties")
    assert report.status == "fail"
    [check] = report.checks
    assert (check.verdict, check.note) == (False, "derivation trace mismatch")
    assert check.witness == "term table disagrees with term_product at (0, 0), a=1, b=1"


# --- the extraction trace against the Series derivation it replaced ------------


def _extract_series(f, g, U, fg):
    """The Series-based derivation: X_w pairs by group arithmetic, every term
    by term_product, the conclusions against extraction_oracle. Returns the
    steps as (w, pairs, established, multiplier, ih) and the conclusions."""
    twist = f.twist
    ring = twist.ring
    grp = twist.group
    products = sorted({grp.op(u, v) for u in f.terms for v in g.terms})
    steps = []
    established = {}

    def fail(msg, step=None):
        raise TraceMismatch(msg, step=step)

    if not fg.terms.keys() <= set(products):
        fail("the product has a term at an exponent that no pair of supports reaches")

    for w in products:
        pairs = x_w_pairs(f, g, w)
        terms = [term_product(twist, f.terms[u], u, g.terms[v], v) for u, v in pairs]
        remainder = functools.reduce(ring.add, terms, 0)
        if remainder != fg.coeff(w):
            fail(f"sum over X_w disagrees with the product coefficient at w={grp.to_json(w)}")
        for i, (u_i, v_i) in enumerate(pairs):
            multiplier = f.terms[u_i]
            ih = []
            for j in range(i + 1, len(pairs)):
                key = (u_i, pairs[j][1])
                if key not in established:
                    fail(f"induction hypothesis pair {key} not yet established", step=(w, i, j))
                if ring.mul(terms[j], multiplier) not in U.members:
                    fail(f"hypothesis term times multiplier left U at {key}", step=(w, i, j))
                ih.append(key)
            if remainder not in U.members:
                fail(f"running remainder left U at w={grp.to_json(w)}, i={i}", step=(w, i))
            if ring.mul(remainder, multiplier) not in U.members:
                fail(f"remainder times multiplier left U at w={grp.to_json(w)}, i={i}", step=(w, i))
            if terms[i] not in U.members:
                fail(f"semiprime extraction failed: term at {(u_i, v_i)} is outside U", step=(w, i))
            established[(u_i, v_i)] = terms[i]
            steps.append((w, pairs, (u_i, v_i), multiplier, ih))
            remainder = ring.sub(remainder, terms[i])
        if remainder != 0:
            fail(f"peeling X_w left a nonzero remainder at w={grp.to_json(w)}")

    oracle = extraction_oracle(f, g)
    if set(oracle) != set(established):
        fail("trace conclusions cover a different pair set than the oracle")
    for key, value in oracle.items():
        if established[key] != value or value not in U.members:
            fail(f"oracle disagrees with the trace at {key}")
    return steps, established


def _outcome(run):
    """(steps, conclusions) of a trace, or the (message, step) it fails with."""
    try:
        return run()
    except TraceMismatch as exc:
        return str(exc), exc.step


def _in_exponents(alg, outcome):
    """A `_trace` result over window positions, restated in exponents."""
    if isinstance(outcome[0], str):
        return outcome
    steps, established = outcome

    def exps(key):
        return alg.window[key[0]], alg.window[key[1]]

    return ([(alg.products[k], [exps(p) for p in pairs], exps(est), multiplier,
              [exps(p) for p in ih]) for k, pairs, est, multiplier, ih in steps],
            {exps(key): t for key, t in established.items()})


def _entry_outcome(trace):
    steps = [(s.w, s.pairs, s.established, s.multiplier, s.ih_pairs) for s in trace.steps]
    return steps, trace.conclusions


TRACE_CASES = ["z4-tau", "z4-tau-unsorted", "gf4-frobenius", "z4-z2lex-tau",
               "ut2-z2-conjugation"]


@pytest.mark.parametrize("name", TRACE_CASES)
def test_trace_matches_the_series_derivation(name):
    """For every two-sided U and every pair the join yields, the scan's
    `_trace` on the window algebra and the `_extract` entry both take the
    steps and reach the conclusions, or fail with the message, of the Series
    derivation (U need not be semiprime, so failing steps are compared too)."""
    twist, window = CASES[name]
    alg = WindowAlgebra(twist, window)
    universe = alg.universe()
    series, products = _oracle(name)
    traced = 0
    for U in enumerate_ideals(twist.ring, "twosided"):
        for p, q, fg in alg.join(universe, U.members):
            f, g, fg_series = series[p], series[q], products[p][q]
            expected = _outcome(lambda: _extract_series(f, g, U, fg_series))
            scan = _outcome(lambda: _trace(alg, universe[p], universe[q], U, fg))
            entry = _outcome(lambda: _entry_outcome(_extract(f, g, U, fg_series)))
            assert _in_exponents(alg, scan) == expected, (U.sorted_members(), p, q)
            assert entry == expected, (U.sorted_members(), p, q)
            traced += 1
    assert traced > len(universe)


def test_coefficient_extraction_over_an_unsorted_window(tw_z4_tau, u_z4):
    """Series whose terms are listed out of exponent order compile the
    ascending window of their supports inside coefficient_extraction; its
    trace is the Series one."""
    unsorted = 0
    for f in exhaustive_series(tw_z4_tau, [1, -1, 0]):
        for g in exhaustive_series(tw_z4_tau, [1, -1, 0]):
            fg = series_mul(f, g)
            if fg.content() <= u_z4.members:
                expected = _extract_series(f, g, u_z4, fg)
                assert _entry_outcome(coefficient_extraction(f, g, u_z4)) == expected
                order = list(dict.fromkeys([*f.terms, *g.terms]))
                unsorted += order != sorted(order)
    assert unsorted > 100


def test_coefficient_extraction_catches_a_wrong_term_in_its_own_algebra(monkeypatch):
    """coefficient_extraction compiles its own algebra and checks its tables
    before the trace. Two wrong terms of one X_w that keep its sum and stay
    inside U would pass every step of the trace; the table check names the
    first of them."""
    twist = trivial_twist(ring_zn(4))
    U = make_ideal(twist.ring, {0, 2})
    f = series_make(twist, [(0, 2), (1, 2)])
    g = series_make(twist, [(0, 1), (1, 1)])
    assert series_mul(f, g).sorted_terms() == [(0, 2), (2, 2)]
    coefficient_extraction(f, g, U)
    real = WindowAlgebra.__init__

    def corrupted(alg, twist, window):
        real(alg, twist, window)
        assert alg.term[0][2][1][1] == alg.term[1][2][0][1] == 2
        alg.term[0][2][1][1] = alg.term[1][2][0][1] = 0  # X_1 still sums to 0

    monkeypatch.setattr(WindowAlgebra, "__init__", corrupted)
    with pytest.raises(TraceMismatch, match=r"^term table disagrees with term_product at "
                                            r"\(0, 1\), a=2, b=1$"):
        coefficient_extraction(f, g, U)


def test_extraction_core_rejects_a_wrong_product(tw_z4_tau, u_z4):
    f = series_make(tw_z4_tau, [(0, 2), (1, 2)])
    g = series_make(tw_z4_tau, [(0, 1)])
    _extract(f, g, u_z4, series_mul(f, g))
    with pytest.raises(TraceMismatch):
        _extract(f, g, u_z4, series_make(tw_z4_tau, [(0, 2)]))
    with pytest.raises(TraceMismatch):
        _extract(f, g, u_z4, series_make(tw_z4_tau, [(0, 2), (1, 2), (5, 2)]))


# --- generated rings -----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _ring(kind, *params):
    if kind == "Zn":
        return ring_zn(params[0])
    if kind == "product":
        return ring_product(ring_zn(params[0]), ring_zn(params[1]))
    return ring_trivial_extension(ring_zn(params[0]))


@st.composite
def _twisted_pairs(draw):
    """A commutative ring of at most 16 elements, a twist over Z or Z^2_lex,
    an ascending window, and two series inside it."""
    kind = draw(st.sampled_from(["Zn", "product", "trivial_extension"]))
    if kind == "Zn":
        ring = _ring(kind, draw(st.integers(2, 16)))
    elif kind == "product":
        n = draw(st.integers(2, 8))
        ring = _ring(kind, n, draw(st.integers(2, 16 // n)))
    else:
        ring = _ring(kind, draw(st.integers(2, 4)))
    if draw(st.booleans()):
        group = IntegersGroup()
        window = sorted(draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3, unique=True)))
        rule = "product"
    else:
        group = LexProductGroup(2)
        window = sorted(draw(st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                                      min_size=1, max_size=3, unique=True)))
        rule = [[draw(st.integers(-1, 1)) for _ in range(2)] for _ in range(2)]
    unit = draw(st.sampled_from(sorted(units(ring))))
    twist = twist_from_spec(ring, group, {
        "sigma": "identity",
        "tau": {"kind": "unit_power", "unit": unit, "exponent_rule": rule}})
    coeffs = st.lists(st.integers(0, ring.size - 1), min_size=len(window),
                      max_size=len(window))
    f, g = draw(coeffs), draw(coeffs)
    return twist, window, f, g


@settings(max_examples=150, deadline=None)
@given(_twisted_pairs())
def test_dense_product_matches_series_mul_on_generated_rings(case):
    twist, window, f, g = case
    alg = WindowAlgebra(twist, window)
    f = [(i, c) for i, c in enumerate(f) if c]
    g = [(i, c) for i, c in enumerate(g) if c]
    expected = series_mul(alg.series(f), alg.series(g))
    assert product_series(alg, alg.multiply(f, g)) == expected
