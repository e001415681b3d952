import itertools

import pytest

import mnseries.properties as properties
from mnseries.errors import TraceMismatch, ZeroElement
from mnseries.ideals import make_ideal, nil_radical, quotient_ideal, singleton_quotient_masks
from mnseries.properties import (_meet_counts, fusible_decompositions, is_G_armendariz,
                                 is_IN, is_SA, is_left_fusible,
                                 is_right_nonsingular, is_sigma_compatible_ring,
                                 right_zip_witness, sigma_u_zip_scan,
                                 sigma_u_zip_witness, weak_zip_witness,
                                 zero_divisor_sets)
from mnseries.rings import identity_automorphism, ring_zn, units
from mnseries.transfer import TruncatedUniverse
from oracles import full_join_G_armendariz


def all_subsets(ring, nonempty=False):
    elems = list(ring.elements())
    for size in range(1 if nonempty else 0, len(elems) + 1):
        yield from (frozenset(c) for c in itertools.combinations(elems, size))


def test_zero_divisor_sets(z4, klein, gf4):
    zd = zero_divisor_sets(z4)
    assert zd.left == {0, 2} and zd.left_regular == {1, 3}
    zdk = zero_divisor_sets(klein)
    assert zdk.left == {0, 1, 2} and zdk.left_regular == {3}
    assert zero_divisor_sets(gf4).left == {0}


def test_zero_divisor_sets_are_scanned_once_per_ring():
    # prop3.2 asks for them twice per decomposition; the ring keeps the first scan
    ring = ring_zn(6)
    assert zero_divisor_sets(ring) is zero_divisor_sets(ring)
    assert zero_divisor_sets(ring) is not zero_divisor_sets(ring_zn(6))


def test_zero_divisors_partition_and_units(z4, klein, gf4, tz4):
    for ring in (z4, klein, gf4, tz4):
        zd = zero_divisor_sets(ring)
        elems = set(ring.elements())
        assert zd.left | zd.left_regular == elems
        assert not zd.left & zd.left_regular
        assert zd.right | zd.right_regular == elems
        assert units(ring) <= zd.left_regular & zd.right_regular


def test_fusible_decompositions_examples(z4, klein):
    assert (2, 3) in fusible_decompositions(z4, 1)
    assert fusible_decompositions(z4, 2) == []
    assert (1, 3) in fusible_decompositions(klein, 2)  # (0,1) + (1,1) = (1,0)
    with pytest.raises(ZeroElement):
        fusible_decompositions(z4, 0)


def test_left_fusible_verdicts(z4, klein, gf4):
    rep = is_left_fusible(z4)
    assert rep.verdict is False and rep.witness == 2
    assert is_left_fusible(klein).verdict is True
    assert is_left_fusible(gf4).verdict is True


def test_fusible_witness_reverifies(z4):
    witness = is_left_fusible(z4).witness
    assert fusible_decompositions(z4, witness) == []


def test_fusible_ring_decomposes_every_nonzero_element(klein, gf4):
    for ring in (klein, gf4):
        assert is_left_fusible(ring).verdict
        for a in range(1, ring.size):
            assert fusible_decompositions(ring, a)


def test_sigma_compatible_ring(z4, klein, gf4, swap, frobenius):
    assert is_sigma_compatible_ring(z4, [identity_automorphism(z4)]).verdict
    rep = is_sigma_compatible_ring(klein, [swap])
    assert rep.verdict is False
    w = rep.witness
    assert (klein.mul(w["a"], w["b"]) == 0) != (klein.mul(w["a"], swap(w["b"])) == 0)
    # the first failing (automorphism, a, b) in scan order, as the ideal check for U = {0} finds it
    assert w == {"a": 1, "b": 1, "automorphism": [0, 2, 1, 3], "ab": 1, "a_sigma_b": 0}
    assert is_sigma_compatible_ring(gf4, [frobenius]).verdict


def test_right_nonsingular(z4, klein, gf4):
    rep = is_right_nonsingular(z4)
    assert rep.verdict is False
    assert rep.certificate["singular"] == [0, 2]
    assert [0, 2] in rep.certificate["essential_right_ideals"]
    assert is_right_nonsingular(klein).verdict is True
    assert is_right_nonsingular(gf4).verdict is True


def test_in_and_sa_verdicts(z4, klein, gf4, tz4):
    for ring in (z4, klein, gf4, tz4):
        assert is_IN(ring).verdict is True
        assert is_SA(ring).verdict is True


def test_sa_certificate_reverifies(z4):
    from mnseries.ideals import annihilator, set_sum
    rep = is_SA(z4)
    ideals = rep.certificate["ideals"]
    for I, row in zip(ideals, rep.certificate["K"], strict=True):
        for J, k in zip(ideals, row, strict=True):
            left = set_sum(z4, annihilator(z4, I), annihilator(z4, J))
            assert left == annihilator(z4, ideals[k])


def test_sa_deterministic(z4, tz4):
    for ring in (z4, tz4):
        first = is_SA(ring)
        second = is_SA(ring)
        assert first.to_json() == second.to_json()


def test_g_armendariz_z2(z2):
    from mnseries.series import trivial_twist
    rep = is_G_armendariz(TruncatedUniverse(trivial_twist(z2), [0, 1, 2]), 2)
    assert rep.verdict is True
    assert rep.bounds["max_support"] == 2
    assert "fragment" in rep.note


def test_g_armendariz_swap_fails(klein, tw_klein_swap):
    from mnseries.series import series_from_json, series_mul
    rep = is_G_armendariz(TruncatedUniverse(tw_klein_swap, [0, 1, 2]), 2)
    assert rep.verdict is False
    w = rep.witness
    f = series_from_json(tw_klein_swap, w["f"])
    g = series_from_json(tw_klein_swap, w["g"])
    assert series_mul(f, g).is_zero
    assert klein.mul(f.terms[w["x"]], g.terms[w["y"]]) != 0


def test_g_armendariz_t_z4_fails_at_the_universe_cap(tz4):
    # T(Z4) has 16 elements: 16^3 = 4096 series over 0..2, at the universe cap
    from mnseries.series import series_from_json, series_mul, trivial_twist
    universe = TruncatedUniverse(trivial_twist(tz4), [0, 1, 2])
    rep = is_G_armendariz(universe, 3)
    assert rep.verdict is False
    w = rep.witness
    f = series_from_json(universe.twist, w["f"])
    g = series_from_json(universe.twist, w["g"])
    assert series_mul(f, g).is_zero
    assert tz4.mul(f.terms[w["x"]], g.terms[w["y"]]) == w["product"] != 0
    assert rep.to_json() == full_join_G_armendariz(universe, 3).to_json()


def test_sigma_u_zip_witness_z4(z4, u_z4):
    rep = sigma_u_zip_witness(z4, u_z4, {1, 3})
    assert rep.verdict is True
    assert rep.certificate["minimal_witness"] == [1]
    assert quotient_ideal(u_z4, [1]) == u_z4.members


def test_sigma_u_zip_not_applicable(z4, u_z4):
    rep = sigma_u_zip_witness(z4, u_z4, {2})
    assert rep.verdict is None and rep.note.startswith("not_applicable")


def test_sigma_u_zip_tz4(tz4, u_tz4):
    rep = sigma_u_zip_witness(tz4, u_tz4, {4, 12})  # {(1,0), (3,0)}
    assert rep.verdict is True
    assert rep.certificate["minimal_witness"] == [4]
    rep = sigma_u_zip_witness(tz4, u_tz4, {8})  # {(2,0)}
    assert rep.verdict is None and rep.note.startswith("hypothesis_fails")
    assert rep.witness["quotient"] == [0, 1, 2, 3, 8, 9, 10, 11]


def test_sigma_u_zip_scan_z4_exhaustive(z4, u_z4):
    rep = sigma_u_zip_scan(z4, u_z4)
    assert rep.verdict is True
    cert = rep.certificate
    assert cert["subsets"] == 16
    assert cert["qualifying"] == 12  # every X not inside U has (U:X) = U
    assert cert["witnessed"] == 12
    assert cert["anomalous_singletons"] == []


def test_sigma_u_zip_scan_tz4_reports_anomalies(tz4, u_tz4):
    rep = sigma_u_zip_scan(tz4, u_tz4)
    assert rep.verdict is True
    anomalies = rep.certificate["anomalous_singletons"]
    assert [a["element"] for a in anomalies] == [8, 9, 10, 11]
    assert anomalies[0]["quotient"] == [0, 1, 2, 3, 8, 9, 10, 11]


def test_sigma_u_zip_scan_checks_only_each_chosen_witness(monkeypatch, z4, u_z4):
    """The singleton masks come from the ideals layer, so quotient_ideal runs
    once per qualifying subset, for the minimal witness the mask search
    chose; a quotient that disagrees with the masks fails the verdict."""
    calls = []

    def counting(U, V):
        calls.append(tuple(V))
        return quotient_ideal(U, V)

    monkeypatch.setattr(properties, "quotient_ideal", counting)
    rep = sigma_u_zip_scan(z4, u_z4)
    assert rep.verdict is True
    assert len(calls) == rep.certificate["qualifying"]

    def wrong(U, V):
        calls.append(tuple(V))
        return frozenset(z4.elements())

    calls.clear()
    monkeypatch.setattr(properties, "quotient_ideal", wrong)
    rep = sigma_u_zip_scan(z4, u_z4)
    assert rep.verdict is False and len(rep.witness) == rep.certificate["qualifying"]


def test_meet_counts_that_do_not_add_up_raise_rather_than_miscount(monkeypatch, tz4, u_tz4):
    """T(Z4) over U = {(0, m)} is above the witness cap, so its scan counts
    by Moebius inversion over the meet-closure of the singleton masks. A
    count that does not add up to 2^|R| - 1 over the closure, here with the
    walk taken from the smallest members up so that nothing is subtracted,
    is a TraceMismatch, not a qualifying count."""
    single = singleton_quotient_masks(u_tz4)
    u_mask = sum(1 << u for u in u_tz4.members)
    exact = _meet_counts(single)
    assert sum(exact.values()) == (1 << 16) - 1
    assert exact[u_mask] - _meet_counts([single[u] for u in u_tz4.members]).get(u_mask, 0) \
        == sigma_u_zip_scan(tz4, u_tz4).certificate["qualifying"] == 65_280

    real_sorted = sorted
    monkeypatch.setattr(properties, "sorted", lambda xs, key=None, reverse=False:
                        real_sorted(xs, key=key, reverse=not reverse), raising=False)
    with pytest.raises(TraceMismatch, match=r"add up to \d+, not 2\^16 - 1"):
        sigma_u_zip_scan(tz4, u_tz4)


def test_sigma_u_zip_witness_scans_at_most_two_quotients_per_X(monkeypatch, tz4, u_tz4, klein):
    """One quotient_ideal for the hypothesis (U:X) = U and one for the chosen
    Y; the minimal-witness search itself runs on the singleton masks."""
    calls = []

    def counting(U, V):
        calls.append(tuple(V))
        return quotient_ideal(U, V)

    monkeypatch.setattr(properties, "quotient_ideal", counting)
    zero = make_ideal(klein, {0}, "twosided")
    for ring, U, pool in ((tz4, u_tz4, [frozenset(c) for k in range(4)
                                        for c in itertools.combinations(tz4.elements(), k)]),
                          (klein, zero, list(all_subsets(klein)))):
        for xs in pool:
            calls.clear()
            rep = sigma_u_zip_witness(ring, U, xs)
            assert len(calls) <= 2, (xs, calls)
            if rep.verdict:
                assert calls[-1] == tuple(rep.certificate["minimal_witness"])


def test_right_zip_matches_sigma_zip_at_zero_ideal(z4, klein, gf4):
    # (0:X) = r(X), so the two witness searches must agree everywhere
    for ring in (z4, klein, gf4):
        zero = make_ideal(ring, {0}, "twosided")
        for xs in all_subsets(ring):
            a = sigma_u_zip_witness(ring, zero, xs)
            b = right_zip_witness(ring, xs)
            assert (a.verdict, a.note is None) == (b.verdict, b.note is None) \
                or (a.note or "").split(":")[0] == (b.note or "").split(":")[0]
            if a.verdict:
                assert a.certificate["minimal_witness"] == b.certificate["minimal_witness"]


def test_weak_zip_matches_sigma_zip_at_nil(z4, klein, tz4):
    for ring in (z4, klein, tz4):
        nil, is_ni = nil_radical(ring)
        assert is_ni
        nil_ideal = make_ideal(ring, nil)
        pool = list(all_subsets(ring)) if ring.size <= 4 else \
            [frozenset({a}) for a in ring.elements()] + \
            [frozenset({a, b}) for a in (1, 4, 8) for b in (5, 12, 15)]
        for xs in pool:
            a = sigma_u_zip_witness(ring, nil_ideal, xs)
            b = weak_zip_witness(ring, xs, nil)
            assert (a.note or "").split(":")[0] == (b.note or "").split(":")[0]
            assert a.verdict == b.verdict
            if a.verdict:
                assert a.certificate["minimal_witness"] == b.certificate["minimal_witness"]


def test_zip_minimality_by_exhaustion(z4, u_z4):
    # independent check: no strictly smaller subset of X works
    xs = [1, 3]
    rep = sigma_u_zip_witness(z4, u_z4, xs)
    minimal = rep.certificate["minimal_witness"]
    for size in range(len(minimal)):
        for combo in itertools.combinations(xs, size):
            assert quotient_ideal(u_z4, combo) != u_z4.members


def test_report_json_shape(z4):
    rep = is_left_fusible(z4)
    data = rep.to_json()
    assert data["property"] == "left-fusible"
    assert data["verdict"] is False
    assert "elapsed" not in data
    # a checker called directly is untimed; run_suite stamps the checks it runs
    assert rep.to_json(include_timing=True)["elapsed"] == 0.0
