import itertools
import json

import pytest

from mnseries import ideals
from mnseries.ideals import (annihilator, classify_kind, close_under_inverses,
                             element_powers, enumerate_ideals, ideal_closure,
                             is_semiprime_ideal, is_sigma_compatible_ideal,
                             make_ideal, nil_radical, quotient_ideal, set_sum,
                             weak_annihilator)
from mnseries.rings import (check_automorphism, identity_automorphism, ring_from_table,
                            ring_product)
from oracles import ring_pow


def all_subsets(ring):
    elems = list(ring.elements())
    for size in range(len(elems) + 1):
        yield from (frozenset(c) for c in itertools.combinations(elems, size))


def test_closure_examples(z4, tz4):
    assert ideal_closure(z4, [2], "twosided").members == {0, 2}
    assert ideal_closure(z4, [], "twosided").members == {0}
    # <(0,1)> in the trivial extension is {(0, m)}: ids 0..3
    assert ideal_closure(tz4, [1], "twosided").members == {0, 1, 2, 3}


def test_closure_idempotent_and_monotone(z4, klein):
    for ring in (z4, klein):
        for gens in all_subsets(ring):
            closed = ideal_closure(ring, gens, "twosided")
            assert ideal_closure(ring, closed.members, "twosided").members == closed.members
            for extra in ring.elements():
                bigger = ideal_closure(ring, gens | {extra}, "twosided")
                assert closed.members <= bigger.members


def test_enumerate_ideals_z4(z4):
    found = enumerate_ideals(z4, "twosided")
    assert [i.sorted_members() for i in found] == [[0], [0, 2], [0, 1, 2, 3]]


def test_enumerate_ideals_klein(klein):
    found = enumerate_ideals(klein, "twosided")
    assert [i.sorted_members() for i in found] == [[0], [0, 1], [0, 2], [0, 1, 2, 3]]


def test_enumerate_contains_zero_and_whole_ring(z4, klein, gf4, tz4):
    for ring in (z4, klein, gf4, tz4):
        members = [i.members for i in enumerate_ideals(ring, "twosided")]
        assert frozenset({0}) in members
        assert frozenset(ring.elements()) in members


def test_enumeration_complete_against_subset_scan(z4, klein, gf4):
    # independent oracle: filter all subsets by the two-sided ideal predicate
    for ring in (z4, klein, gf4):
        expected = {s for s in all_subsets(ring)
                    if s and classify_kind(ring, s) == "twosided"}
        assert {i.members for i in enumerate_ideals(ring, "twosided")} == expected


def test_enumerate_ideals_returns_a_fresh_list_of_a_stored_lattice(z4, tz4):
    for ring in (z4, tz4):
        for kind in ("twosided", "right", "left"):
            first = enumerate_ideals(ring, kind)
            expected = list(first)
            first.reverse()
            first.append(first[0])
            first[0] = None
            assert enumerate_ideals(ring, kind) == expected


@pytest.mark.parametrize("argv, kinds", [
    (["props", "{ut2_z4}", "--format", "json"], {"right", "twosided"}),
    (["verify", "{z8_tau}", "--suite", "thm4.5", "--format", "json"], {"right", "twosided"}),
])
def test_each_lattice_is_computed_once_per_ring_and_kind(monkeypatch, tmp_path, argv, kinds):
    """`props` reads the right lattice twice (right nonsingularity, IN) and
    thm4.5 the two-sided one twice (its SA hypothesis, the K table), which
    is filtered from the right one: each (ring, kind) lattice is still
    computed once."""
    from mnseries.cli import main
    from oracles import ut2_table
    docs = {
        "ut2_z4": {"ring": {"kind": "table", **ut2_table(4)}},
        # tau(x, y) = 3^(xy) over Z, U = (2)
        "z8_tau": {"ring": {"kind": "Zn", "n": 8}, "group": {"group": "Z"},
                   "twist": {"sigma": "identity", "tau": {
                       "kind": "unit_power", "unit": 3, "exponent_rule": "product"}},
                   "ideals": {"U": {"kind": "twosided", "gens": [2]}}},
    }
    paths = {}
    for label, doc in docs.items():
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps({"label": label, **doc}))
    computed = []
    real = ideals._lattice
    monkeypatch.setattr(ideals, "_lattice",
                        lambda ring, kind: computed.append((ring, kind)) or real(ring, kind))
    assert main([str(paths[a[1:-1]]) if a.startswith("{") else a for a in argv]) == 0
    assert {kind for _, kind in computed} == kinds
    assert len(computed) == len(set(computed))


def test_is_SA_annihilates_each_two_sided_ideal_once(monkeypatch):
    """is_SA and its r(K) -> K table share one r(K) per two-sided ideal K."""
    from mnseries import properties
    from oracles import ut2_table
    ring = ring_from_table(ut2_table(4))
    annihilated = []
    for module in (ideals, properties):
        real = module.annihilator
        monkeypatch.setattr(module, "annihilator", lambda ring, X, side="right", _real=real:
                            annihilated.append((frozenset(X), side)) or _real(ring, X, side))
    first = properties.is_SA(ring).to_json()
    assert properties.is_SA(ring).to_json() == first
    assert ideals.ideals_by_right_annihilator(ring)
    assert sorted(annihilated, key=str) == sorted(
        ((K.members, "right") for K in ideals.enumerate_ideals(ring, "twosided")), key=str)


def test_quotient_examples(z4, u_z4, tz4, u_tz4):
    assert quotient_ideal(u_z4, {3}) == {0, 2}
    # the Example 5.6 anomaly: (U:{(2,0)}) = {(a,b) | a in {0,2}}, 8 elements
    got = quotient_ideal(u_tz4, {8})
    assert type(got) is frozenset and got == {0, 1, 2, 3, 8, 9, 10, 11}
    assert len(got) == 8 and not got <= u_tz4.members
    full = make_ideal(z4, set(z4.elements()), "twosided")
    for v in all_subsets(z4):
        assert quotient_ideal(full, v) == set(z4.elements())


def test_quotient_equals_right_annihilator_of_zero(z4, klein, zero_ideal_z4):
    for ring, zero in ((z4, zero_ideal_z4), (klein, make_ideal(klein, {0}, "twosided"))):
        for xs in all_subsets(ring):
            assert quotient_ideal(zero, xs) == annihilator(ring, xs)


def test_right_ideal_pair_quotient_is_twosided(z4, klein, tz4):
    for ring in (z4, klein, tz4):
        right = enumerate_ideals(ring, "right")
        for U in right:
            for V in right:
                assert classify_kind(ring, quotient_ideal(U, V)) == "twosided"


def test_twosided_U_contained_in_quotient(z4, klein, u_z4):
    for ring in (z4, klein):
        for U in enumerate_ideals(ring, "twosided"):
            for V in all_subsets(ring):
                if V:
                    assert U.members <= quotient_ideal(U, V)


def test_annihilator_examples(z4, klein):
    assert type(annihilator(z4, {2})) is frozenset
    assert annihilator(z4, {2}) == {0, 2}
    assert annihilator(z4, {0}) == set(z4.elements())
    # right annihilator of (1,0) in Z2 x Z2 is 0 x Z2 = ids {0, 1}
    assert annihilator(klein, {2}) == {0, 1}
    assert annihilator(klein, {2}, "left") == {0, 1}


def test_annihilator_and_quotient_never_classify(monkeypatch, z4, klein):
    # both are plain element sets: no caller reads a kind, so none is computed
    cases = [(ring, enumerate_ideals(ring, "twosided") + enumerate_ideals(ring, "right"),
              list(all_subsets(ring))) for ring in (z4, klein)]
    calls = []
    real = ideals.classify_kind
    monkeypatch.setattr(ideals, "classify_kind",
                        lambda ring, ms: calls.append(ms) or real(ring, ms))
    for ring, lattice, subsets in cases:
        for xs in subsets + lattice:
            for side in ("right", "left"):
                assert type(annihilator(ring, xs, side)) is frozenset
            for U in lattice:
                assert type(quotient_ideal(U, xs)) is frozenset
    assert calls == []


def test_semiprime_examples(z4, u_z4, zero_ideal_z4, u_tz4):
    assert is_semiprime_ideal(u_z4).ok
    bad = is_semiprime_ideal(zero_ideal_z4)
    assert not bad.ok and bad.witness == (2, 2)  # 2^2 = 0 in Z4
    bad_t = is_semiprime_ideal(u_tz4)
    assert not bad_t.ok and bad_t.witness == (8, 2)  # (2,0)^2 = (0,0)


def test_semiprime_witness_reverifies(zero_ideal_z4, z4):
    a, n = is_semiprime_ideal(zero_ideal_z4).witness
    assert a not in zero_ideal_z4.members
    assert ring_pow(z4, a, n) in zero_ideal_z4.members


def test_nil_radical_examples(z4, klein, gf4, tz4):
    assert nil_radical(z4) == ({0, 2}, True)
    assert nil_radical(klein) == ({0}, True)
    assert nil_radical(gf4) == ({0}, True)
    nil_t, ni_t = nil_radical(tz4)
    assert nil_t == {0, 1, 2, 3, 8, 9, 10, 11} and ni_t


def test_element_powers_cycle(z4):
    assert element_powers(z4, 2) == [2, 0]
    assert element_powers(z4, 3) == [3, 1]


def test_weak_annihilator_examples(z4):
    nil, _ = nil_radical(z4)
    assert weak_annihilator(z4, {2}, nil) == set(z4.elements())
    assert weak_annihilator(z4, {1}, nil) == {0, 2}
    assert weak_annihilator(z4, {0}, nil) == set(z4.elements())


def test_weak_annihilator_takes_nil_from_its_caller(monkeypatch, z4, tz4):
    nils = {ring.label: nil_radical(ring)[0] for ring in (z4, tz4)}

    def refuse(ring):
        raise AssertionError("weak_annihilator recomputed the nil radical")

    monkeypatch.setattr(ideals, "nil_radical", refuse)
    for ring in (z4, tz4):
        nil = nils[ring.label]
        # singletons, and every subset of the elements 0..3
        for xs in [frozenset({a}) for a in ring.elements()] + list(all_subsets(z4)):
            expected = {a for a in ring.elements()
                        if all(0 in element_powers(ring, ring.mul(x, a)) for x in xs)}
            assert weak_annihilator(ring, xs, nil) == expected


def test_weak_annihilator_is_nil_quotient_on_NI_rings(z4, klein, tz4):
    # (nil(R):X) = N_R(X) whenever nil(R) is an ideal
    for ring in (z4, klein, tz4):
        nil, is_ni = nil_radical(ring)
        assert is_ni
        nil_ideal = make_ideal(ring, nil)
        pool = list(all_subsets(ring)) if ring.size <= 4 else \
            [frozenset({a}) for a in ring.elements()] + \
            [frozenset({a, b}) for a in range(4) for b in range(8, 12)]
        for xs in pool:
            if xs:
                assert weak_annihilator(ring, xs, nil) == quotient_ideal(nil_ideal, xs)


def test_semiprime_ideals_contain_nil(z4, klein, tz4):
    for ring in (z4, klein, tz4):
        nil, _ = nil_radical(ring)
        for ideal in enumerate_ideals(ring, "twosided"):
            if is_semiprime_ideal(ideal).ok:
                assert nil <= ideal.members


def _flipped_holds(U, sigma_family):
    """The consequence of sigma-compatibility: ab in U <-> sigma(a)b in U,
    for every automorphism of the family and its inverse."""
    ring = U.ring
    return all((ring.mul(a, b) in U.members) == (ring.mul(s.map[a], b) in U.members)
               for s in close_under_inverses(sigma_family)
               for a in ring.elements() for b in ring.elements())


def test_sigma_compatible_ideal_identity(z4, u_z4):
    rep = is_sigma_compatible_ideal(u_z4, [identity_automorphism(z4)])
    assert rep.ok and _flipped_holds(u_z4, [identity_automorphism(z4)])


def test_sigma_compatible_ideal_swap_fails(klein, swap):
    zero = make_ideal(klein, {0}, "twosided")
    rep = is_sigma_compatible_ideal(zero, [swap])
    assert not rep.ok
    a, b, idx = rep.witness
    # the witness re-verifies: ab in U differs from a*sigma(b) in U
    fam_map = swap.map
    assert (klein.mul(a, b) in zero.members) != (klein.mul(a, fam_map[b]) in zero.members)


def test_sigma_compatible_ideal_componentwise_frobenius(gf4, frobenius):
    prod = ring_product(gf4, gf4)
    perm = [frobenius.map[a] * 4 + frobenius.map[b] for a in range(4) for b in range(4)]
    auto = check_automorphism(prod, perm)
    zero = make_ideal(prod, {0}, "twosided")
    rep = is_sigma_compatible_ideal(zero, [auto])
    assert rep.ok and _flipped_holds(zero, [auto])


def test_set_sum(z4):
    assert set_sum(z4, {0, 2}, {1, 3}) == {1, 3}


def test_make_ideal_rejects_wrong_kind(z4):
    with pytest.raises(ValueError):
        make_ideal(z4, {0, 1}, "twosided")


def test_serialization(u_z4):
    assert u_z4.to_json() == {"ring_label": "Z4", "kind": "twosided", "members": [0, 2]}
