"""Differential tests for the truncated universe's quotients.

The oracles are the Series path the harnesses ran before their scans moved
onto the window algebra, `series_mul` and `series_add` double loops over
`oracles.exhaustive_series`, and `oracles.universe_quotient_scan`, the filter that
multiplied every window series by every factor before quotients became
kernels of the additive window product. Both stay in the tests rather than
as second paths in the library. The subgroup test that decides the
harnesses' sum identities has the product form, `oracles.universe_set_sum`,
as its oracle.
"""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mnseries.cli as cli
import mnseries.series as series_module
import mnseries.transfer as transfer
import oracles
from mnseries.errors import HypothesisFails, PreconditionFail, TraceMismatch, TwistMismatch
from mnseries.groups import IntegersGroup, LexProductGroup
from mnseries.ideals import (annihilator, classify_kind, enumerate_ideals, ideal_closure,
                            is_subgroup_sum, make_ideal)
from mnseries.properties import zero_divisor_sets
from mnseries.rings import (ring_from_table, ring_gf4, ring_product, ring_trivial_extension,
                            ring_zn, units)
from mnseries.series import (WindowAlgebra, series_make, series_mul, trivial_twist,
                             twist_from_spec)
from mnseries.transfer import (TruncatedUniverse, extraction_scan, lift_universe,
                               series_zip_witness)
from oracles import (exhaustive_series, lift_fusible_decomposition,
                     lift_fusible_decompositions, nonzero_series, series_add,
                     universe_quotient_scan, universe_set_sum, ut2_table)


def _cases():
    z4 = ring_zn(4)
    klein = ring_product(ring_zn(2), ring_zn(2))
    ut2 = ring_from_table(ut2_table(2))  # [[a, b], [0, c]] has id 4a + 2b + c
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


def _loop_scans(universe, members):
    """The old Series path: the members-coefficient series, their left and
    right annihilators, and each annihilator plus the members series, each
    series named by its position in `exhaustive_series`, which lists the
    universe in its order."""
    series = list(exhaustive_series(universe.twist, universe.window))
    position = {tuple(s.sorted_terms()): m for m, s in enumerate(series)}
    targets = [m for m, s in enumerate(series) if s.content() <= members]
    left = {m for m, u in enumerate(series)
            if all(series_mul(u, series[w]).is_zero for w in targets)}
    right = {m for m, u in enumerate(series)
             if all(series_mul(series[w], u).is_zero for w in targets)}
    sums = {side: {position[tuple(series_add(series[x], series[y]).sorted_terms())]
                   for x in ann for y in targets}
            for side, ann in (("left", left), ("right", right))}
    return targets, {"left": left, "right": right}, sums


def _check_scans(universe, members):
    targets, annihilators, sums = _loop_scans(universe, members)
    assert sorted(universe.with_coeffs_in(members)) == targets
    for side in ("left", "right"):
        ann = universe.annihilator(members, side)
        assert ann == annihilators[side], side
        total = universe_set_sum(universe, ann, universe.with_coeffs_in(members))
        assert total == sums[side], side


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


@pytest.mark.parametrize("name", sorted(CASES))
def test_annihilator_lift_records_hold_their_definitions(name):
    """Each lemma 4.3 record holds, for its coefficient set and side, the
    base annihilator on that side, its coefficient box, the universe
    annihilator on that side and the least member where the two differ;
    asked again, the universe hands back the same record."""
    universe = CASES[name]
    ring = universe.twist.ring
    for members in _ideal_member_sets(name):
        for side in ("left", "right"):
            lift = transfer.annihilator_lift(universe, members, side)
            base = annihilator(ring, members, side)
            box, lifted = universe.with_coeffs_in(base), universe.annihilator(members, side)
            assert lift == (base, box, lifted, min(lifted ^ box, default=None)), (members, side)
            assert transfer.annihilator_lift(universe, members, side) is lift


@pytest.mark.parametrize("name", sorted(CASES))
def test_content_ideal_records_hold_their_definitions(name):
    """Each thm 4.5 record holds, for its content set C, I0 = the right ideal
    C generates, its base right annihilator and the universe's right
    annihilator of the I0-coefficient series."""
    universe = CASES[name]
    ring = universe.twist.ring
    for members in [frozenset(), *_ideal_member_sets(name)]:
        contents = members - {0}
        record = transfer.content_ideal(universe, contents)
        ideal, base, lifted = record
        expected = ideal_closure(ring, contents, "right")
        assert (ideal.members, ideal.kind) == (expected.members, expected.kind)
        assert base == annihilator(ring, ideal.members, "right")
        assert lifted == universe.annihilator(ideal.members, "right")
        assert transfer.content_ideal(universe, contents) is record


def test_universe_members_follow_exhaustive_series():
    for universe in CASES.values():
        assert universe.all_series() == list(exhaustive_series(universe.twist, universe.window))
        assert [universe.algebra.series(t) for t in universe.terms()] == universe.all_series()


@functools.lru_cache(maxsize=None)
def _ring(kind, *params):
    if kind == "Zn":
        return ring_zn(params[0])
    if kind == "product":
        return ring_product(ring_zn(params[0]), ring_zn(params[1]))
    if kind == "ut2":
        return ring_from_table(ut2_table(params[0]))
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
def test_members_decode_to_their_listed_terms(case):
    """Member i is the i-th series of `terms`: `terms_at` decodes every
    index to its entry, a series of it encodes back to the same terms, and
    with_coeffs_in(C) holds the members whose nonzero coefficients lie in
    C, with 0 counted in C whether C holds it or not."""
    universe, coeffs = case
    terms = universe.terms()
    assert len(terms) == len(universe)
    assert [universe.terms_at(m) for m in range(len(universe))] == terms
    assert all(universe.terms_of(universe.series(m)) == t for m, t in enumerate(terms))
    assert universe.with_coeffs_in(coeffs) == {
        m for m, t in enumerate(terms) if all(c in coeffs for _, c in t)}


@settings(max_examples=60, deadline=None)
@given(_twisted_universes())
def test_scans_match_the_series_loops_on_generated_rings(case):
    universe, members = case
    _check_scans(universe, members)


@functools.lru_cache(maxsize=None)
def _nonzero_twosided_ideals(ring):
    return sorted((I for I in enumerate_ideals(ring, "twosided") if len(I.members) > 1),
                  key=lambda I: sorted(I.members))


def _check_quotient(universe, U, factors):
    """(U : X) on both sides, for X the series of the members `factors`,
    is the set a series_mul loop over exhaustive_series finds: the u with
    every coefficient of s*u (or u*s) in U. Returns whether the two sides
    differ."""
    X = [universe.series(m) for m in factors]
    series = list(exhaustive_series(universe.twist, universe.window))
    expected = {
        "right": {m for m, u in enumerate(series)
                  if all(series_mul(s, u).content() <= U.members for s in X)},
        "left": {m for m, u in enumerate(series)
                 if all(series_mul(u, s).content() <= U.members for s in X)}}
    for side in ("left", "right"):
        found = universe.quotient([universe.terms_of(s) for s in X], U.members, side)
        assert found == expected[side], side
    return expected["left"] != expected["right"]


def test_quotient_by_every_ideal_matches_the_series_loop():
    differ = 0
    for name in sorted(CASES):
        universe = CASES[name]
        picks = list(range(1, len(universe), 9))
        for U in _nonzero_twosided_ideals(universe.twist.ring):
            for factors in [[m] for m in picks] + [picks[:3]]:
                differ += _check_quotient(universe, U, factors)
    # klein-swap: sigma moves (0,1) out of U = {0, (1,0)} on one side only
    assert differ


@settings(max_examples=40, deadline=None)
@given(_twisted_universes(), st.data())
def test_quotient_by_an_ideal_matches_the_series_loop_on_generated_rings(case, data):
    universe, _ = case
    U = data.draw(st.sampled_from(_nonzero_twosided_ideals(universe.twist.ring)))
    _check_quotient(universe, U, data.draw(
        st.lists(st.integers(0, len(universe) - 1), min_size=1, max_size=3)))


# --- the quotient kernel against the scan it replaced ---------------------------


def _check_kernel(universe, factors, member_sets):
    """universe.quotient equals the scan on both sides, for every member set."""
    for members in member_sets:
        for side in ("left", "right"):
            assert universe.quotient(factors, members, side) == universe_quotient_scan(
                universe, factors, members, side), (sorted(members), factors, side)


def _quotient_member_sets(ring):
    return [frozenset({0}), *(I.members for I in _nonzero_twosided_ideals(ring))]


def _kernel_cases():
    """CASES, plus rings of characteristic other than 2, where v != -v, and
    one-position windows."""
    extra = {
        "z3-tau": (ring_zn(3), [-1, 0, 1], 2),
        "z6-tau": (ring_zn(6), [0, 1], 5),
        "z9-tau": (ring_zn(9), [0, 1], 8),
        "z5-one-position": (ring_zn(5), [1], 4),
        "ut2-one-position": (ring_from_table(ut2_table(2)), [0], 5),
    }
    cases = dict(CASES)
    for name, (ring, window, unit) in extra.items():
        twist = twist_from_spec(ring, IntegersGroup(), {
            "tau": {"kind": "unit_power", "unit": unit, "exponent_rule": "product"}})
        cases[name] = TruncatedUniverse(twist, window)
    return cases


KERNEL_CASES = _kernel_cases()


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_the_quotient_kernel_matches_the_scan_on_every_case(name):
    universe = KERNEL_CASES[name]
    picks = [universe.terms_at(m) for m in range(1, len(universe), 7)]
    factor_lists = [[], *([p] for p in picks[:6]), picks[:3],
                    [t for t in picks if len(t) > 1][:2]]
    assert any(len(t) > 1 for f in factor_lists for t in f) or len(universe.window) == 1
    for factors in factor_lists:
        _check_kernel(universe, factors, _quotient_member_sets(universe.twist.ring))


def test_the_kernel_matches_second_halves_with_their_negatives():
    """UT2(Z3) is not Armendariz: (0 : e22 + e12 X) on the left holds a u
    whose second half, negated, gives a u' outside it. So the kernel must
    match a second-half sum with the bucket of its negative; its own bucket
    would give another set. (Over the Z_n, where each kernel is a product of
    per-position annihilators, both give the same set.)"""
    ring = ring_from_table(ut2_table(3))  # [[a, b], [0, c]] has id 9a + 3b + c
    universe = TruncatedUniverse(trivial_twist(ring, IntegersGroup()), [0, 1])
    factors = [[(0, 1), (1, 3)]]
    kernel = universe.quotient(factors, {0}, "left")
    assert kernel == universe_quotient_scan(universe, factors, {0}, "left")
    halves = [divmod(u, ring.size) for u in kernel]  # (u_0, u_1)
    assert any(head * ring.size + ring.neg(tail) not in kernel for head, tail in halves)


@settings(max_examples=60, deadline=None)
@given(_twisted_universes(), st.data())
def test_the_quotient_kernel_matches_the_scan_on_generated_rings(case, data):
    universe, _ = case
    factors = [universe.terms_at(m) for m in data.draw(
        st.lists(st.integers(0, len(universe) - 1), max_size=3))]
    _check_kernel(universe, factors, _quotient_member_sets(universe.twist.ring))


@pytest.mark.parametrize("ring, window", [
    (ring_product(ring_zn(2), ring_zn(2)), [0, 1, 2]),
    (ring_product(ring_zn(2), ring_zn(3)), [0, 1, 2]),
    (ring_product(ring_zn(3), ring_zn(3)), [-1, 1]),
    (ring_zn(5), [2]),
])
def test_the_lift_decides_regularity_as_the_scan_does(ring, window):
    """Every nonzero member lifted at once, most of their h several terms
    long: one join and no quotient kernel decide (0 : h) for every h, with
    one multiply per distinct h (its leading coefficient is left regular,
    so only the zero series passes the join's lead-term prune). The lifts
    are the oracle's, every one of them holds, and each oracle lift is what
    the scan finds: an h that is not left regular would have the scan's
    least nonzero member as its witness."""
    twist = trivial_twist(ring, IntegersGroup())
    universe = TruncatedUniverse(twist, window)
    calls = {"quotient": [], "join": [], "multiply": []}
    with pytest.MonkeyPatch.context() as mp:
        for owner, name in ((TruncatedUniverse, "quotient"),
                            (series_module.WindowAlgebra, "join"),
                            (series_module.WindowAlgebra, "multiply")):
            real = getattr(owner, name)
            mp.setattr(owner, name, lambda *args, real=real, name=name:
                       calls[name].append(None) or real(*args))
        count, failed = lift_universe(universe, len(window))
    assert (count, failed) == (len(universe) - 1, [])
    fs = nonzero_series(universe)
    hs = set()
    for f, lift in zip(fs, lift_fusible_decompositions(fs, universe)):
        assert lift_fusible_decomposition(f, universe) == lift
        h = universe.terms_of(lift.h)
        hs.add(tuple(h))
        killers = universe_quotient_scan(universe, [h], {0}, "right") - {0}
        assert lift.h_regular_ok == (not killers)
        assert lift.h_regular_witness == (universe.series(min(killers)) if killers else None)
    assert (len(calls["join"]), len(calls["quotient"])) == (1, 0)
    assert len(calls["multiply"]) == len(hs) <= count
    assert any(len(h) > 1 for h in hs) or len(window) == 1


def _lift_cases():
    klein, gf4 = ring_product(ring_zn(2), ring_zn(2)), ring_gf4()
    frobenius = twist_from_spec(gf4, IntegersGroup(), {"sigma": {"generator": [0, 1, 3, 2]}})
    return {"klein": TruncatedUniverse(trivial_twist(klein, IntegersGroup()), [0, 1, 2]),
            "gf4-frobenius": TruncatedUniverse(frobenius, [0, 1, 2]),
            **{name: CASES[name] for name in ("klein-swap", "z4-tau", "ut2-z2", "z4-z2lex-tau")}}


# the Klein swap, Z4 with tau = 3^(xy) and UT2(Z2) fail the lift's hypotheses
# (the swap is not sigma-compatible, the others are not left fusible), so
# they are lifted with the hypotheses skipped and a chosen split
LIFT_CASES = _lift_cases()


def _both_lifts(universe, max_support, split=None):
    """(lift_universe's result, the oracle's), or the PreconditionFail each
    raises; `split` maps each nonzero c to its a, replacing the library's
    decomposition and the hypothesis checks in both."""
    def run(lift):
        with pytest.MonkeyPatch.context() as mp:
            if split is not None:
                for module in (transfer, oracles):
                    mp.setattr(module, "require_fusible", lambda twist: None)
                    mp.setattr(module, "fusible_decompositions",
                               lambda ring, c: [(split[c], ring.sub(c, split[c]))])
            try:
                return lift()
            except PreconditionFail as exc:
                return type(exc), str(exc)

    def oracle():
        # the series of the window with 1..max_support terms, in universe order
        fs = [f for f in exhaustive_series(universe.twist, universe.window, max_support)
              if not f.is_zero]
        lifts = lift_fusible_decompositions(fs, universe)
        return len(fs), [(f, lift) for f, lift in zip(fs, lifts) if not lift.ok]

    return run(lambda: lift_universe(universe, max_support)), run(oracle)


@pytest.mark.parametrize("name", sorted(LIFT_CASES))
def test_the_universe_lift_matches_the_series_oracle_on_every_case(name):
    """Every member, at every max_support up to the window width, with the
    library's split and with a split that puts the greatest left
    zero-divisor into a: the same count, failing lifts and witnesses."""
    universe = LIFT_CASES[name]
    ring = universe.twist.ring
    greatest = max(zero_divisor_sets(ring).left)
    fails = 0
    for max_support in range(1, len(universe.window) + 1):
        for split in (None, {c: greatest for c in range(1, ring.size)}):
            new, old = _both_lifts(universe, max_support, split)
            assert new == old, (max_support, split)
            fails += split is not None and len(new[1]) > 0
    assert fails or name in ("klein", "gf4-frobenius")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(LIFT_CASES)), st.data())
def test_the_universe_lift_matches_the_series_oracle_on_drawn_splits(name, data):
    universe = LIFT_CASES[name]
    ring = universe.twist.ring
    max_support = data.draw(st.integers(1, len(universe.window)))
    zd = sorted(zero_divisor_sets(ring).left)
    split = data.draw(st.none() | st.fixed_dictionaries(
        {c: st.sampled_from(zd) for c in range(1, ring.size)}))
    new, old = _both_lifts(universe, max_support, split)
    assert new == old


SIDED_CASES = {"klein-swap", "ut2-z2", "ut2-z2-conjugation"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_batch_killers_match_the_scan_for_every_h(name):
    """`killers` for every member h at once, in a shuffled order with
    repeats, against the scan of (0 : h) one h at a time: the same nonzero
    members, the least of them first. h = 0 and the h whose leading
    coefficient is a zero-divisor have killers; on the sigma-twisted and
    the noncommutative cases h*k = 0 and k*h = 0 differ."""
    universe = CASES[name]
    hs = [universe.terms_at(m) for m in range(len(universe))]
    random.Random(11).shuffle(hs)
    hs += hs[:5]
    batch = universe.killers(hs)
    assert len(batch) == len(hs)
    for h, killers in zip(hs, batch):
        scan = universe_quotient_scan(universe, [h], {0}, "right") - {0}
        assert killers == sorted(scan), h
    assert any(batch) and not all(batch)
    # h with a zero-divisor leading coefficient among those with killers
    zd = zero_divisor_sets(universe.twist.ring).left
    assert any(k and h and min(h, key=lambda t: universe.window[t[0]])[1] in zd
               for h, k in zip(hs, batch))
    left = [universe_quotient_scan(universe, [h], {0}, "left") - {0} for h in hs]
    assert any(set(k) != u for k, u in zip(batch, left)) == (name in SIDED_CASES)


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_annihilators_on_generators_match_every_coefficient(name):
    """annihilator(C, side) reads only the greedy additive generators of C;
    over coefficient sets that are not subgroups it still finds what the
    scan by every single term c X^x, c in C - {0}, finds."""
    universe = KERNEL_CASES[name]
    ring = universe.twist.ring
    rng = random.Random(3)
    subsets = [set(c) for k in (1, 2) for c in itertools.combinations(ring.elements(), k)]
    subsets += [set(rng.sample(ring.elements(), rng.randint(3, ring.size)))
                for _ in range(12) if ring.size >= 3]
    assert any(classify_kind(ring, c | {0}) == "subset" for c in subsets)
    for coeffs in subsets:
        singles = [[(i, c)] for i in range(len(universe.window)) for c in sorted(coeffs - {0})]
        for side in ("left", "right"):
            assert universe.annihilator(coeffs, side) == universe_quotient_scan(
                universe, singles, {0}, side), (sorted(coeffs), side)


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_each_slot_row_and_column_holds_w_distinct_slots(name):
    """The fact the annihilator's box rests on: x -> x_i x and x -> x x_i
    send the window's w exponents to w distinct products, so one single
    term times a series puts each of its coefficients in its own slot."""
    universe = KERNEL_CASES[name]
    slot, w = universe.algebra.slot, len(universe.window)
    for i in range(w):
        assert len(set(slot[i])) == w, (i, slot[i])
        assert len({row[i] for row in slot}) == w, (i, [row[i] for row in slot])


def test_a_quotient_by_a_set_that_is_not_a_subgroup_raises():
    universe = CASES["z4-tau"]
    factors = [[(0, 1)]]
    for members in ({1}, {0, 1}, {0, 1, 2}, {0, 3}):
        for side in ("left", "right"):
            with pytest.raises(ValueError, match="not an additive subgroup"):
                universe.quotient(factors, members, side)
    assert universe.quotient(factors, {0, 2}, "right") == universe_quotient_scan(
        universe, factors, {0, 2}, "right")


# --- the sum identities: subgroup arithmetic against the product form ----------


def _annihilator_pool(universe, member_sets):
    """The left and right universe annihilators of the member sets and of
    their pairwise meets, each once: additive subgroups of the universe."""
    sets = {a & b for a in member_sets for b in member_sets}
    return list({universe.annihilator(m, side) for m in sets for side in ("left", "right")})


def _check_subgroup_sums(universe, pool):
    """is_subgroup_sum(C, A, B) agrees with set_sum(A, B) == C, the product
    form, on every triple of the pool; returns how many triples hold."""
    held = 0
    for A in pool:
        for B in pool:
            total = universe_set_sum(universe, A, B)
            for C in pool:
                expected = total == C
                assert is_subgroup_sum(C, A, B) == expected, (len(C), len(A), len(B))
                held += expected
    return held


@pytest.mark.parametrize("name", sorted(CASES))
def test_subgroup_sum_matches_the_product_form_on_every_ideal(name):
    universe = CASES[name]
    pool = _annihilator_pool(universe, _ideal_member_sets(name))
    assert 0 < _check_subgroup_sums(universe, pool) < len(pool) ** 3


@functools.lru_cache(maxsize=None)
def _member_sets(kind, *params):
    ring = _ring(kind, *params)
    return frozenset(I.members for side in ("left", "right", "twosided")
                     for I in enumerate_ideals(ring, side))


@st.composite
def _annihilator_cases(draw):
    """A ring of at most 64 elements, UT2(Z2) and UT2(Z4) among them, a twist
    over Z or Z^2_lex whose tau is a power of a central unit, a window of at
    most 64 series, and the ring's ideal member sets."""
    kind = draw(st.sampled_from(["Zn", "product", "trivial_extension", "ut2"]))
    if kind == "Zn":
        params = (draw(st.integers(2, 8)),)
    elif kind == "product":
        params = (2, draw(st.integers(2, 4)))
    elif kind == "trivial_extension":
        params = (draw(st.integers(2, 4)),)
    else:
        params = (draw(st.sampled_from([2, 4])),)
    ring = _ring(kind, *params)
    width = draw(st.integers(1, max(w for w in (1, 2, 3) if ring.size ** w <= 64)))
    if draw(st.booleans()):
        group, rule = IntegersGroup(), "product"
        window = draw(st.lists(st.integers(-2, 2), min_size=width, max_size=width,
                               unique=True))
    else:
        group = LexProductGroup(2)
        rule = [[draw(st.integers(-1, 1)) for _ in range(2)] for _ in range(2)]
        window = draw(st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                               min_size=width, max_size=width, unique=True))
    central = [v for v in sorted(units(ring))
               if all(ring.mul(v, r) == ring.mul(r, v) for r in ring.elements())]
    twist = twist_from_spec(ring, group, {
        "sigma": "identity",
        "tau": {"kind": "unit_power", "unit": draw(st.sampled_from(central)),
                "exponent_rule": rule}})
    return TruncatedUniverse(twist, window), _member_sets(kind, *params)


@settings(max_examples=40, deadline=None)
@given(_annihilator_cases())
def test_subgroup_sum_matches_the_product_form_on_generated_rings(case):
    universe, member_sets = case
    _check_subgroup_sums(universe, _annihilator_pool(universe, member_sets))


@pytest.mark.parametrize("name, suite", [("t_z4_example_5_6", "lemma4.3"),
                                         ("klein_fusible", "thm4.5")])
def test_sum_identities_form_no_product_sums(name, suite):
    """lemma4.3 and thm4.5 decide their universe sum identities by subgroup
    arithmetic: the product form lives only in the tests' oracles, not on
    the universe, and both suites pass without it. (thm4.5 on
    t_z4_example_5_6 stops at its G-Armendariz hypothesis, before any sum.)"""
    assert not hasattr(TruncatedUniverse, "set_sum")
    fx = cli.load_fixture(cli.resolve_fixture(name))
    assert cli.run_suite(fx, suite).status == "pass"


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


def _counting_window_terms(monkeypatch) -> list:
    """The coefficient values of each call made to `_window_terms`, which
    lists every window series with its coefficients among them: every ring
    element for the universe, the class representatives for a class scan."""
    real = series_module._window_terms
    calls = []

    def counting(values, *args):
        calls.append(list(values))
        return real(values, *args)

    monkeypatch.setattr(series_module, "_window_terms", counting)
    return calls


def test_thm54_enumerates_its_window_once(monkeypatch):
    # one universe serves the extraction join and the series-zip scans, and
    # neither lists its series when the class scan passes: the one listing
    # is of the class series, over fewer values than the ring has
    fx = cli.load_fixture(cli.resolve_fixture("z4_tau_power"))
    calls = _counting_window_terms(monkeypatch)
    report = cli.run_suite(fx, "thm5.4")
    assert report.status == "pass"
    assert sum(c.prop == "series-zip" for c in report.checks) == 2
    assert len(calls) == 1 and len(calls[0]) < fx.ring.size


def test_a_failed_table_check_raises_before_the_window_is_enumerated(monkeypatch):
    # a failed table check raises out of the scan, which then lists no series
    fx = cli.load_fixture(cli.resolve_fixture("z4_tau_power"))
    universe = TruncatedUniverse(fx.twist, fx.group.window(*fx.cap("window")))
    i = universe.window.index(0)
    universe.algebra.term[i][3][i][2] = 0  # 3 * sigma_0(2) * tau(0, 0) is 2
    calls = _counting_window_terms(monkeypatch)
    with pytest.raises(TraceMismatch, match=r"^term table disagrees with term_product "
                                            r"at \(0, 0\), a=3, b=2$"):
        extraction_scan(universe, fx.ideals["U"])
    assert len(calls) == 0


def _z4_example_with_a_wrong_term():
    """z4_example_5_5 over 0..1 with 2 * sigma_0(2) * tau(0, 0) set to 2 (it is 0)."""
    fx = cli.load_fixture(cli.resolve_fixture("z4_example_5_5"))
    universe = TruncatedUniverse(fx.twist, fx.group.window(0, 1))
    assert universe.window == [0, 1] and universe.algebra.term[0][2][0][2] == 0
    universe.algebra.term[0][2][0][2] = 2
    return fx, universe


_WRONG_TERM = r"^term table disagrees with term_product at \(0, 0\), a=2, b=2$"


def test_a_wrong_term_fails_the_lifted_annihilator_check_with_the_table_check():
    """The universe's quotient kernel, which lemma4.3's and thm4.5's
    annihilators run on, checks the window tables first, so the lifted
    annihilator check raises the table check's message rather than a False
    verdict with annihilator-lift witnesses."""
    fx, universe = _z4_example_with_a_wrong_term()
    U = fx.ideals["U"]
    with pytest.raises(TraceMismatch, match=_WRONG_TERM):
        transfer.lifted_annihilator_check(U, U, "left", universe)


def test_a_wrong_term_fails_the_killers_join_with_the_table_check():
    """prop3.2's killers join reads the same tables, through the same check."""
    _, universe = _z4_example_with_a_wrong_term()
    with pytest.raises(TraceMismatch, match=_WRONG_TERM):
        universe.killers([[(0, 2)]])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(CASES)), st.data())
def test_the_table_check_matches_the_per_entry_check_on_a_changed_entry(name, data):
    """One term entry set to any value, out of range ones too: the row
    check passes or raises exactly as the check of every entry does, with
    the same message."""
    universe = CASES[name]
    alg = WindowAlgebra(universe.twist, universe.window)
    w, n = len(alg.window), universe.twist.ring.size
    i, j = (data.draw(st.integers(0, w - 1)) for _ in range(2))
    a, b = (data.draw(st.integers(0, n - 1)) for _ in range(2))
    alg.term[i][a][j][b] = data.draw(st.integers(-1, n + 300))
    outcomes = []
    for check in (alg.check_tables, lambda: oracles.per_entry_check_tables(alg)):
        try:
            check()
            outcomes.append(None)
        except TraceMismatch as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_annihilator_kernel_runs_once_per_coefficient_set_and_side(monkeypatch):
    """lemma4.3 on t_z4_example_5_6 asks for one annihilator per lemma 4.3
    record, 14 in all, of 14 distinct (coefficient set, side) keys; each key
    is one box kernel, computed the first time its memo key is asked for,
    which reads the term table alone: no window product and no quotient
    kernel. The shared result is a frozenset, which no caller can change."""
    fx = cli.load_fixture(cli.resolve_fixture("t_z4_example_5_6"))
    products = []
    real_multiply = series_module.WindowAlgebra.multiply
    real_quotient = TruncatedUniverse.quotient

    def counting_multiply(alg, f, g):
        products.append("multiply")
        return real_multiply(alg, f, g)

    def counting_quotient(universe, factors, members, side):
        products.append("quotient")
        return real_quotient(universe, factors, members, side)

    real = TruncatedUniverse.annihilator
    calls, kernels = [], []

    def counting(universe, coeffs, side):
        key = ("annihilator", frozenset(coeffs), side)
        if key not in universe._memo:
            kernels.append(key[1:])
        before = len(products)
        result = real(universe, coeffs, side)
        assert isinstance(result, frozenset)
        assert len(products) == before, products[before:]
        calls.append(None)
        return result

    monkeypatch.setattr(series_module.WindowAlgebra, "multiply", counting_multiply)
    monkeypatch.setattr(TruncatedUniverse, "quotient", counting_quotient)
    monkeypatch.setattr(TruncatedUniverse, "annihilator", counting)
    assert cli.run_suite(fx, "lemma4.3").status == "pass"
    assert len(calls) == 14
    assert len(kernels) == len(set(kernels)) == 14

    universe = CASES["z4-tau"]
    assert universe.annihilator([2, 0], "left") is universe.annihilator({0, 2}, "left")
    assert universe.annihilator({0, 2}, "left") is not universe.annihilator({0, 2}, "right")
    assert universe.with_coeffs_in([2]) is universe.with_coeffs_in({0, 2})
