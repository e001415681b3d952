"""The ring-table kernels against the direct scans they replaced.

`ideal_closure` grows an additive subgroup one generator at a time,
`check_ring_axioms` compares whole table rows (on the additive generators
where it can) and `classify_kind`, `quotient_ideal` and the annihilators
work on rows (or columns) as well.
`enumerate_ideals` joins ideals as subgroup sums, `subgroup_sum` and
`is_subgroup_sum` decide the annihilator sums of `is_IN` and `is_SA`, and
a quotient by an ideal reads only its additive generators. The oracles in
`oracles.py` (and the product-form `set_sum`) do the same jobs one
element, pair or triple at a time. Over generated Zn, products, trivial
extensions and the noncommutative UT2(Z2) and UT2(Z4), closures, lattices
(in order), kinds, sums, quotients, generators, annihilators and the IN
and SA reports must agree (the SA table also with one formed pair by
pair), and so must the zip searches on singleton masks, their cores, and
the per-subset searches they replaced, and the sigma-U-zip
count by Moebius inversion over the meet-closure of the singleton masks
and the one over all 2^|R| subsets; the lattices, the sigma-U-zip counts
and the generator test of V*U inside U also on generated subrings of F2
matrix rings. The quotient, annihilator and zip kernels also run
interleaved on one fresh ring object each of UT2(Z2), UT2(Z4), M2(F2)
and Z12, so a row mask kept in the ring's memo under one key is never
read under another. On tables
with one entry changed, rings with + relabelled, F2^k algebras and loops,
so must every (axiom, ok, witness), and a witness scan may run only for an
axiom that fails.
"""

from __future__ import annotations

import functools
import random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mnseries import properties, rings
from mnseries.ideals import (IdealSet, annihilator, classify_kind, enumerate_ideals,
                             ideal_closure, nil_radical, quotient_ideal, set_sum,
                             singleton_quotient_masks, subgroup_sum, weak_annihilator)
from mnseries.properties import (DEFAULT_WITNESS_CAP, _meet_counts, _qualifying_by_meets,
                                 _right_zip, _sigma_u_zip, _weak_zip, is_IN, is_SA,
                                 right_zip_witness, sigma_u_zip_scan, sigma_u_zip_witness,
                                 weak_zip_witness)
from mnseries.rings import (FiniteRing, check_ring_axioms, ring_from_table, ring_product,
                            ring_trivial_extension, ring_zn)
from oracles import (additive_span, elementwise_annihilator, elementwise_kind,
                     elementwise_weak_annihilator, f2_algebra_table,
                     f2_matrix_algebra_table, loop_table,
                     membership_quotient, pairwise_sa_table, relabelled_add_table,
                     subset_dp_qualifying,
                     subset_right_zip_witness, subset_sigma_u_zip_witness,
                     subset_weak_zip_witness, triple_scan_axioms, ut2_table, worklist_closure,
                     worklist_lattice)


@functools.lru_cache(maxsize=None)
def _ring(kind, *params):
    if kind == "Zn":
        return ring_zn(*params)
    if kind == "product":
        return ring_product(ring_zn(params[0]), ring_zn(params[1]))
    if kind == "trivial_extension":
        return ring_trivial_extension(ring_zn(*params))
    if kind == "ut2xZn":
        return ring_product(_ring("ut2", params[0]), ring_zn(params[1]))
    if kind == "T(ut2)":
        return ring_trivial_extension(_ring("ut2", *params))
    return ring_from_table(ut2_table(*params))


@functools.lru_cache(maxsize=None)
def _lattice(key, kind):
    return worklist_lattice(_ring(*key), kind)


@st.composite
def _ring_keys(draw, ut2_sizes=(2, 4)):
    """A ring of at most 16 elements, or UT2(Z_n) for n in ut2_sizes."""
    kind = draw(st.sampled_from(["Zn", "product", "trivial_extension", "ut2"]))
    if kind == "Zn":
        return kind, draw(st.integers(2, 16))
    if kind == "product":
        m = draw(st.integers(2, 4))
        return kind, m, draw(st.integers(2, 16 // m))
    if kind == "trivial_extension":
        return kind, draw(st.integers(2, 4))
    return kind, draw(st.sampled_from(ut2_sizes))


@st.composite
def _f2_matrix_algebras(draw):
    """A subalgebra of the 2 x 2 or 3 x 3 matrices over F2 of at most 16
    elements, generated by the identity and up to two drawn matrices."""
    k = draw(st.sampled_from([2, 3]))
    table = f2_matrix_algebra_table(k, draw(st.lists(st.integers(0, (1 << k * k) - 1),
                                                     max_size=2)))
    assume(table is not None)
    return ring_from_table(table)


@settings(max_examples=60, deadline=None)
@given(_ring_keys(), st.data())
def test_closures_match_the_worklist_closure(key, data):
    ring = _ring(*key)
    gens = data.draw(st.lists(st.integers(0, ring.size - 1), max_size=4))
    for kind in ("left", "right", "twosided"):
        closed = ideal_closure(ring, gens, kind)
        assert closed.kind == kind
        assert closed.members == worklist_closure(ring, gens, kind), (key, gens, kind)


def _drawn_rings():
    """A ring of `_ring_keys` or a generated subring of an F2 matrix ring."""
    return st.one_of(_ring_keys().map(lambda key: _ring(*key)), _f2_matrix_algebras())


@settings(max_examples=40, deadline=None)
@given(_drawn_rings())
@example(_ring("ut2", 2))
# F2[x,y]/(x,y)^2: its ideal (x+y) lies inside (x)+(y) without being a sum
# of the principal ideals joined before it
@example(ring_from_table(f2_algebra_table(3, {(i, j): 0 for i in (1, 2) for j in (1, 2)})))
def test_lattices_match_the_worklist_lattice_in_order(ring):
    """Also on M2(F2)-type rings, where the left, right and two-sided
    lattices all differ."""
    for kind in ("twosided", "right", "left"):
        assert [i.members for i in enumerate_ideals(ring, kind)] == worklist_lattice(ring, kind)


@settings(max_examples=30, deadline=None)
@given(_drawn_rings())
def test_products_of_right_ideals_are_decided_on_their_generators(ring):
    """V*U lies inside U, which the `ideals` suite tests on the additive
    generators of V and U, exactly when every product of their members
    does, for every pair of right ideals."""
    mul = ring.mul_table
    right = enumerate_ideals(ring, "right")
    for U in right:
        for V in right:
            assert (all(mul[v][u] in U.members
                        for v in V.additive_generators for u in U.additive_generators)
                    == all(mul[v][u] in U.members for v in V.members for u in U.members))


@settings(max_examples=40, deadline=None)
@given(_ring_keys(), st.sampled_from(["left", "right", "twosided"]), st.data())
def test_subgroup_sums_match_the_product_form(key, kind, data):
    """On drawn ideals I and J of the kind, their meet, and the left and
    right annihilators of all three: the sets `is_IN`, `is_SA`, `thm4.5`
    and `lemma4.3` add."""
    ring = _ring(*key)
    I, J = (data.draw(st.sampled_from(_lattice(key, kind))) for _ in range(2))
    pool = [I, J] + [annihilator(ring, X, side) for X in (I, J, I & J)
                     for side in ("left", "right")]
    for A in pool:
        for B in pool:
            assert subgroup_sum(ring, A, B) == set_sum(ring, A, B), (key, kind)


@settings(max_examples=40, deadline=None)
@given(_ring_keys(), st.data())
def test_quotients_by_an_ideal_read_its_generators(key, data):
    """The `additive_generators` of an ideal of each kind generate it as an
    additive group and number at most log2 of its size, and the quotient of
    an ideal U by it equals the membership scan over all its members; a set
    of kind "subset" is read in full."""
    ring = _ring(*key)
    xs = frozenset(data.draw(st.lists(st.integers(0, ring.size - 1), max_size=6)))
    for kind in ("left", "right", "twosided"):
        U = IdealSet(ring, data.draw(st.sampled_from(_lattice(key, kind))), kind)
        for V in (IdealSet(ring, data.draw(st.sampled_from(_lattice(key, kind))), kind),
                  IdealSet(ring, xs | {0}, "subset")):
            gens = V.additive_generators
            if V.kind != "subset":
                assert additive_span(ring, gens) == V.members
                assert 1 << len(gens) <= len(V.members)
            assert quotient_ideal(U, V) == membership_quotient(ring, U.members, V.members)


@settings(max_examples=30, deadline=None)
@given(_ring_keys())
@example(("ut2", 2))
@example(("ut2", 4))
def test_IN_and_SA_reports_match_the_product_form(key):
    """With `set_sum` patched back in for the subgroup sum and its test, the
    IN and SA reports are the same; UT2(Z2) and UT2(Z4) fail IN, so the
    witness path is compared as well."""
    ring = _ring(*key)
    fast = [is_IN(ring).to_json(), is_SA(ring).to_json()]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(properties, "subgroup_sum", set_sum)
        mp.setattr(properties, "is_subgroup_sum", lambda C, A, B: C == set_sum(ring, A, B))
        assert [is_IN(ring).to_json(), is_SA(ring).to_json()] == fast, key


@settings(max_examples=40, deadline=None)
@given(_ring_keys(), st.data())
def test_kinds_and_quotients_match_the_elementwise_scans(key, data):
    """On drawn subsets and on the quotients of right-ideal pairs, which are
    what the `ideals` suite classifies."""
    ring = _ring(*key)
    right = _lattice(key, "right")
    U, V = data.draw(st.sampled_from(right)), data.draw(st.sampled_from(right))
    xs = frozenset(data.draw(st.lists(st.integers(0, ring.size - 1), max_size=6)))
    U_ideal = ideal_closure(ring, U, "right")
    for subset in (xs, xs | {0}, U, V, U | V):
        assert classify_kind(ring, subset) == elementwise_kind(ring, subset)
        q = quotient_ideal(U_ideal, subset)
        assert q == membership_quotient(ring, U, subset)
        assert classify_kind(ring, q) == elementwise_kind(ring, q)


@settings(max_examples=40, deadline=None)
@given(_ring_keys(), st.data())
def test_annihilators_match_the_elementwise_scans(key, data):
    """On drawn subsets and on right ideals, which is what `is_IN` and
    `lemma4.3` annihilate; the left side reads columns of the table."""
    ring = _ring(*key)
    nil, _ = nil_radical(ring)
    xs = frozenset(data.draw(st.lists(st.integers(0, ring.size - 1), max_size=6)))
    for subset in (xs, frozenset(), data.draw(st.sampled_from(_lattice(key, "right")))):
        for side in ("left", "right"):
            assert annihilator(ring, subset, side) == elementwise_annihilator(ring, subset, side)
        assert weak_annihilator(ring, subset, nil) == elementwise_weak_annihilator(ring, subset,
                                                                                   nil)


# a new ring object per call, so each test starts from an empty memo
_FRESH_RINGS = {
    "UT2(Z2)": lambda: ring_from_table(ut2_table(2)),
    "UT2(Z4)": lambda: ring_from_table(ut2_table(4)),
    # the matrix units e12 and e21 generate all of M2(F2)
    "M2(F2)": lambda: ring_from_table(f2_matrix_algebra_table(2, [2, 4])),
    "Z12": lambda: ring_zn(12),
}


@pytest.mark.parametrize("name", sorted(_FRESH_RINGS))
def test_interleaved_kernels_keep_their_own_masks(name):
    """The quotient, annihilator and weak-annihilator kernels keep their
    row masks in the one ring's memo, as do the right- and weak-zip
    searches. Run interleaved on one ring object over the same subsets
    (quotients by several U, both annihilators, the weak annihilator and
    both zip searches), each result must equal its element-at-a-time
    oracle: a mask filed under one U, side or kept set and read under
    another differs on some subset of these noncommutative rings and Z12."""
    ring = _FRESH_RINGS[name]()
    nil, _ = nil_radical(ring)
    us = [IdealSet(ring, frozenset({0}), "twosided"), IdealSet(ring, nil, "subset"),
          *enumerate_ideals(ring, "right"), *enumerate_ideals(ring, "left")]
    rng = random.Random(name)
    pools = [[v] for v in ring.elements()] + [
        rng.sample(range(ring.size), rng.randint(2, 5)) for _ in range(24)]
    for xs in pools:
        for U in rng.sample(us, 4):
            assert quotient_ideal(U, xs) == membership_quotient(ring, U.members, xs), (U, xs)
        for side in rng.sample(["right", "left"], 2):
            assert annihilator(ring, xs, side) == elementwise_annihilator(ring, xs, side), \
                (side, xs)
        assert weak_annihilator(ring, xs, nil) == elementwise_weak_annihilator(ring, xs, nil), xs
        assert right_zip_witness(ring, xs).to_json() == \
            subset_right_zip_witness(ring, xs).to_json(), xs
        assert weak_zip_witness(ring, xs, nil).to_json() == \
            subset_weak_zip_witness(ring, xs, nil).to_json(), xs
    for U in us:  # by an ideal V, only V's generators are read
        for V in enumerate_ideals(ring, "right"):
            assert quotient_ideal(U, V) == membership_quotient(ring, U.members, V.members)


def _axioms(ring):
    return [(r.axiom, r.ok, r.witness) for r in check_ring_axioms(ring).results]


def _assert_decided_like_the_triple_scan(ring):
    """The report equals the triple scan's, and a witness scan ran only for
    an axiom that fails: each one found a witness. The report alone would
    hide a row test that failed an axiom that holds, since its scan then
    comes up empty and the axiom is reported as holding."""
    scans = []

    def recording_next(scan, default):
        witness = next(scan, default)
        scans.append(witness)
        return witness

    with mock.patch.object(rings, "next", recording_next, create=True):
        assert _axioms(ring) == triple_scan_axioms(ring), ring.label
    assert None not in scans, ring.label


def test_axiom_scan_matches_the_triple_scan_on_the_rings():
    """Zn, products and trivial extensions are built without an axiom scan,
    so this is where they are shown to be rings, over noncommutative factors
    too: UT2(Z2) x Z2 and T(UT2(Z2)), 16 and 64 elements."""
    for key in [("Zn", 12), ("product", 4, 4), ("trivial_extension", 4), ("ut2", 2),
                ("ut2", 4), ("ut2xZn", 2, 2), ("T(ut2)", 2)]:
        ring = _ring(*key)
        assert _axioms(ring) == triple_scan_axioms(ring)
        assert check_ring_axioms(ring).passed, key


def test_rings_are_decided_by_the_row_tests_alone(monkeypatch):
    """Only an axiom whose row test fails is scanned element by element; on
    rings that satisfy every axiom, commutative or not, no scan starts."""
    import mnseries.rings as rings

    def no_scan(*args):
        raise AssertionError("a witness scan ran on a ring that satisfies the axioms")

    monkeypatch.setattr(rings, "next", no_scan, raising=False)
    for key in [("Zn", 12), ("product", 4, 4), ("ut2", 2), ("ut2", 4)]:
        assert check_ring_axioms(_ring(*key)).passed


@settings(max_examples=150, deadline=None)
@given(_ring_keys(ut2_sizes=(2, 3)), st.data())
def test_axiom_scan_matches_the_triple_scan_on_single_entry_mutations(key, data):
    """One entry of the add or mul table set to any element: the row tests
    must pass exactly the axioms the triple scan passes, and each failure
    carries the triple scan's first witness."""
    ring = _ring(*key)
    n = ring.size
    tables = {"add": [list(row) for row in ring.add_table],
              "mul": [list(row) for row in ring.mul_table]}
    name = data.draw(st.sampled_from(sorted(tables)))
    i, j, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    tables[name][i][j] = v
    mutated = FiniteRing(f"{ring.label}[{name} {i},{j}={v}]", tables["add"], tables["mul"],
                         ring.one)
    _assert_decided_like_the_triple_scan(mutated)


# A single changed entry breaks a row of the add table, so the tables above
# never reach the tests on additive generators. These do: + relabelled keeps
# (R, +) an abelian group (the distributive tests on generators, usually
# failing); an F2^k algebra with arbitrary structure constants is
# distributive (the generator test of mul-associativity, usually failing);
# a commutative loop has permutation rows (the generator test of
# add-associativity, failing unless the loop is a group). Noncommutative
# loops take the element-pair fallback.


def _table_ring(table):
    return FiniteRing(table["label"], table["add"], table["mul"], table["one"])


def _loop(rnd, n, commutative):
    """A random Latin square on 0..n-1 with identity 0, symmetric if
    commutative, filled cell by cell with backtracking."""
    T = [[None] * n for _ in range(n)]
    for i in range(n):
        T[0][i] = T[i][0] = i
    cells = [(i, j) for i in range(1, n) for j in range(i if commutative else 1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        free = [v for v in range(n) if v not in T[i] and all(row[j] != v for row in T)
                and not (commutative and v in T[j])]
        rnd.shuffle(free)
        for v in free:
            T[i][j] = v
            if commutative:
                T[j][i] = v
            if fill(k + 1):
                return True
        T[i][j] = None
        if commutative:
            T[j][i] = None
        return False

    assert fill(0)
    return T


@settings(max_examples=100, deadline=None)
@given(_ring_keys(ut2_sizes=(2, 3)), st.data())
def test_axioms_on_a_relabelled_add_table_match_the_triple_scan(key, data):
    ring = _ring(*key)
    perm = [0, *data.draw(st.permutations(range(1, ring.size)))]
    _assert_decided_like_the_triple_scan(_table_ring(relabelled_add_table(ring, perm)))


@st.composite
def _f2_algebras(draw):
    k = draw(st.integers(1, 4))
    unit = draw(st.integers(0, k - 1))
    others = [i for i in range(k) if i != unit]
    return k, {(i, j): draw(st.integers(0, (1 << k) - 1)) for i in others for j in others}, unit


@settings(max_examples=150, deadline=None)
@given(_f2_algebras())
@example((3, {(1, 1): 4, (1, 2): 2, (2, 1): 0, (2, 2): 3}, 0))
def test_axioms_of_an_f2_algebra_match_the_triple_scan(algebra):
    """The identity is any basis element, so the first additive generator
    (id 1) need not be the identity, whose products decide nothing."""
    _assert_decided_like_the_triple_scan(_table_ring(f2_algebra_table(*algebra)))


_LOOP6 = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
          [3, 2, 5, 4, 1, 0], [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]]


@st.composite
def _loops(draw):
    rnd = draw(st.randoms(use_true_random=False))
    return _loop(rnd, draw(st.integers(3, 7)), draw(st.booleans()))


@settings(max_examples=100, deadline=None)
@given(_loops())
@example(_LOOP6)  # commutative, not associative: (2 + 2) + 4 != 2 + (2 + 4)
def test_axioms_of_a_loop_match_the_triple_scan(add):
    _assert_decided_like_the_triple_scan(_table_ring(loop_table(add)))


# --- zip searches on singleton masks ----------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.one_of(_ring_keys(), st.sampled_from([("ut2xZn", 2, 2), ("T(ut2)", 2)])), st.data())
def test_zip_mask_searches_match_the_per_subset_searches(key, data):
    """On drawn subsets X (and X = R) of generated rings, UT2(Z2) x Z2 and
    T(UT2(Z2)) among them: the sigma-U-zip report for every two-sided ideal
    U, and the right-zip and weak-zip reports, equal the searches that
    recompute (U:Y), r(Y) or N(Y) for every candidate Y."""
    ring = _ring(*key)
    nil, _ = nil_radical(ring)
    ideals = enumerate_ideals(ring, "twosided")
    pools = [frozenset(data.draw(st.lists(st.integers(0, ring.size - 1), min_size=1,
                                          max_size=6)))
             for _ in range(3)] + [frozenset(ring.elements())]
    for xs in pools:
        for U in ideals:
            compatible = data.draw(st.sampled_from([None, True, False]))
            assert sigma_u_zip_witness(ring, U, xs, compatible).to_json() == \
                subset_sigma_u_zip_witness(ring, U, xs, compatible).to_json(), (key, U, xs)
        assert right_zip_witness(ring, xs).to_json() == \
            subset_right_zip_witness(ring, xs).to_json(), (key, xs)
        assert weak_zip_witness(ring, xs, nil).to_json() == \
            subset_weak_zip_witness(ring, xs, nil).to_json(), (key, xs)


def _zip_outcome(report) -> tuple:
    """A zip report's (status, minimal Y), as its search's core gives them."""
    if report.note:
        return report.note.split(":")[0], None
    return "ok", tuple(report.certificate["minimal_witness"])


_EXHAUSTED_RINGS = {
    "UT2(Z2)": lambda: _ring("ut2", 2),
    "Z2^3": lambda: ring_product(ring_zn(2), ring_product(ring_zn(2), ring_zn(2))),
    "Z8": lambda: ring_zn(8),
}


@pytest.mark.parametrize("key", sorted(_EXHAUSTED_RINGS))
def test_zip_cores_decide_every_subset_as_their_reports(key):
    """On every nonempty subset X of UT2(Z2), Z2^3 and Z8, each public zip
    search (sigma-U-zip for every two-sided ideal U, right-zip and weak-zip)
    reports its core's (status, minimal Y), and its report equals the
    search that recomputes (U:Y), r(Y) or N(Y) for every candidate Y."""
    ring = _EXHAUSTED_RINGS[key]()
    nil, _ = nil_radical(ring)
    ideals = enumerate_ideals(ring, "twosided")
    for x_mask in range(1, 1 << ring.size):
        xs = [x for x in ring.elements() if x_mask >> x & 1]
        for U in ideals:
            report = sigma_u_zip_witness(ring, U, xs, True)
            assert _zip_outcome(report) == _sigma_u_zip(U, xs), (key, U, xs)
            assert report.to_json() == \
                subset_sigma_u_zip_witness(ring, U, xs, True).to_json(), (key, U, xs)
        report = right_zip_witness(ring, xs)
        assert _zip_outcome(report) == _right_zip(ring, xs), (key, xs)
        assert report.to_json() == subset_right_zip_witness(ring, xs).to_json(), (key, xs)
        report = weak_zip_witness(ring, xs, nil)
        assert _zip_outcome(report) == _weak_zip(ring, xs, nil), (key, xs)
        assert report.to_json() == subset_weak_zip_witness(ring, xs, nil).to_json(), (key, xs)


def test_sa_table_matches_the_per_pair_sums():
    """On every generated ring of at most 16 elements, is_SA's table (or its
    failure) is the one formed with a set sum of elementwise annihilators
    for every ordered pair: a sum kept for one pair and read for another
    files some pair under the wrong K."""
    for key in _small_ring_keys():
        ring = _ring(*key)
        report = is_SA(ring)
        table = pairwise_sa_table(ring)
        assert report.verdict is (table is not None), key
        if table is not None:
            assert report.certificate == {"pairs": table}, key


def _small_ring_keys():
    """Every generated ring of at most 16 elements, UT2(Z2) and UT2(Z2) x Z2
    (noncommutative) among them."""
    return ([("Zn", n) for n in range(2, 17)]
            + [("product", m, n) for m in range(2, 5) for n in range(2, 16 // m + 1)]
            + [("trivial_extension", n) for n in range(2, 5)]
            + [("ut2", 2), ("ut2xZn", 2, 2)])


def _assert_meet_count_matches_the_subset_count(ring, kind):
    for U in enumerate_ideals(ring, kind):
        expected = subset_dp_qualifying(U)
        assert _qualifying_by_meets(U, singleton_quotient_masks(U)) == expected, (ring, kind, U)
        if 1 << ring.size > DEFAULT_WITNESS_CAP:
            cert = sigma_u_zip_scan(ring, U).certificate
            assert cert["qualifying"] == cert["witnessed"] == expected, (ring, kind, U)


def test_meet_count_matches_the_subset_count_on_small_rings():
    """On every two-sided ideal of the rings of at most 16 elements, and
    every left and right ideal of the noncommutative ones, the Moebius count
    over the meet-closure of the singleton masks equals the count over all
    2^|R| subsets (none for U = R); above the witness cap it is what
    sigma_u_zip_scan reports."""
    for key in _small_ring_keys():
        kinds = ("twosided", "right", "left") if key[0].startswith("ut2") else ("twosided",)
        for kind in kinds:
            _assert_meet_count_matches_the_subset_count(_ring(*key), kind)


@settings(max_examples=40, deadline=None)
@given(_f2_matrix_algebras(), st.sampled_from(["left", "right", "twosided"]))
def test_meet_count_matches_the_subset_count_on_generated_matrix_rings(ring, kind):
    """The same on generated subrings of F2 matrix rings: M2(F2), UT2(F2)
    and other noncommutative ones among them."""
    _assert_meet_count_matches_the_subset_count(ring, kind)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, (1 << 8) - 1), min_size=1, max_size=10))
def test_meet_counts_match_the_subsets_on_generated_masks(masks):
    """On any masks, not only quotient masks, whose closure under AND may
    take several rounds: every nonempty subset's AND, counted one subset at
    a time."""
    expected = {}
    for x in range(1, 1 << len(masks)):
        meet = -1
        for v, mask in enumerate(masks):
            if x >> v & 1:
                meet &= mask
        expected[meet] = expected.get(meet, 0) + 1
    assert _meet_counts(masks) == expected
