import random

import pytest

from mnseries.errors import (DuplicateKey, MalformedSpec, NotNormalized,
                             PreconditionFail, TwistMismatch)
from mnseries.groups import IntegersGroup, LexProductGroup
from mnseries.series import (Series, check_associativity, check_twist_conditions,
                             embed_scalar, series_from_json, series_make, series_mul,
                             series_to_json, twist_from_spec)
from oracles import (exhaustive_series, random_series, random_triples, series_add, series_neg,
                     series_zero, single_term_triples, support_stats, x_w_pairs)


def test_series_make_drops_zeros(tw_z4):
    assert series_make(tw_z4, [(1, 0)]).is_zero
    f = series_make(tw_z4, [(0, 2), (1, 3)])
    assert f.support() == [0, 1]
    assert f.content() == {2, 3}


def test_series_make_rejects_duplicates(tw_z4):
    with pytest.raises(DuplicateKey):
        series_make(tw_z4, [(0, 1), (0, 2)])


def test_series_make_rejects_bad_coefficient(tw_z4):
    with pytest.raises(MalformedSpec):
        series_make(tw_z4, [(0, 7)])


def test_embed_scalar(tw_z4):
    one = embed_scalar(tw_z4, 1)
    assert one.sorted_terms() == [(0, 1)]
    assert embed_scalar(tw_z4, 0).is_zero
    # 2 + 2 = 0 in Z4
    assert series_add(embed_scalar(tw_z4, 2), embed_scalar(tw_z4, 2)).is_zero


def test_embed_scalar_is_identity_for_mul(tw_z4, tw_z4_tau, tw_gf4_frob):
    rng = random.Random(0)
    for twist in (tw_z4, tw_z4_tau, tw_gf4_frob):
        one = embed_scalar(twist, twist.ring.one)
        for _ in range(25):
            f = random_series(twist, rng, range(-2, 3), 3)
            assert series_mul(one, f) == f
            assert series_mul(f, one) == f


def test_embed_requires_normalized_twist(z4):
    # tau(x, y) = 3^(x + y) is not normalized: tau(0, 1) = 3 != 1
    twist = twist_from_spec(z4, IntegersGroup(), {
        "sigma": "identity",
        "tau": {"kind": "patched", "base": {"kind": "one"}, "overrides": [[0, 1, 3]]}})
    assert not twist.normalized
    with pytest.raises(NotNormalized):
        embed_scalar(twist, 1)


def test_series_add_examples(tw_z4):
    f = series_make(tw_z4, [(0, 2)])
    g = series_make(tw_z4, [(0, 2), (1, 1)])
    assert series_add(f, g).sorted_terms() == [(1, 1)]
    assert series_add(f, series_zero(tw_z4)) == f
    assert series_add(f, series_neg(f)).is_zero


def test_add_requires_same_twist(tw_z4, tw_z4_tau):
    with pytest.raises(TwistMismatch):
        series_add(series_make(tw_z4, [(0, 1)]), series_make(tw_z4_tau, [(0, 1)]))


def test_x_w_pairs(tw_z4):
    f = series_make(tw_z4, [(0, 1), (1, 1)])
    g = series_make(tw_z4, [(0, 1), (1, 1)])
    assert x_w_pairs(f, g, 1) == [(0, 1), (1, 0)]
    assert x_w_pairs(f, g, -1) == []
    f3 = series_make(tw_z4, [(0, 1), (1, 1), (2, 1)])
    assert x_w_pairs(f3, f3, 2) == [(0, 2), (1, 1), (2, 0)]


def test_series_mul_tau_power(tw_z4_tau):
    x = series_make(tw_z4_tau, [(1, 1)])
    assert series_mul(x, x).sorted_terms() == [(2, 3)]  # tau(1,1) = 3


def test_series_mul_swap_sigma_kills_product(tw_klein_swap):
    # (1,0) X * (1,0) X: (1,0) * swap((1,0)) = (1,0)(0,1) = 0
    f = series_make(tw_klein_swap, [(1, 2)])
    assert series_mul(f, f).is_zero


def test_support_stats(tw_z4):
    f = series_make(tw_z4, [(2, 3), (0, 2)])
    stats = support_stats(f)
    assert stats.support == [0, 2]
    assert stats.minimal == 0
    assert stats.leading == 2
    assert stats.content == {2, 3}
    r = embed_scalar(tw_z4, 3)
    assert support_stats(r).minimal == 0 and support_stats(r).content == {3}
    with pytest.raises(PreconditionFail, match="no minimal support element"):
        support_stats(series_zero(tw_z4))


def test_mul_support_bound(tw_z4_tau):
    rng = random.Random(1)
    for _ in range(50):
        f = random_series(tw_z4_tau, rng, range(-2, 3), 3)
        g = random_series(tw_z4_tau, rng, range(-2, 3), 3)
        products = {x + y for x in f.terms for y in g.terms}
        assert set(series_mul(f, g).terms) <= products
        assert set(series_add(f, g).terms) <= set(f.terms) | set(g.terms)


def test_leading_term_law(tw_z4, tw_z4_tau, tw_gf4_frob, tw_klein_swap):
    # when the twisted product of leading coefficients survives, it leads
    for twist in (tw_z4, tw_z4_tau, tw_gf4_frob, tw_klein_swap):
        ring = twist.ring
        for f in exhaustive_series(twist, [0, 1]):
            for g in exhaustive_series(twist, [0, 1]):
                if f.is_zero or g.is_zero:
                    continue
                sf, sg = support_stats(f), support_stats(g)
                lead = ring.mul(ring.mul(sf.leading, twist.sigma_at(sf.minimal).map[sg.leading]),
                                twist.tau_at(sf.minimal, sg.minimal))
                if lead != 0:
                    fg = series_mul(f, g)
                    stats = support_stats(fg)
                    assert stats.minimal == sf.minimal + sg.minimal
                    assert stats.leading == lead


def test_embed_scalar_is_ring_homomorphism(tw_z4, tw_z4_tau, tw_gf4_frob):
    for twist in (tw_z4, tw_z4_tau, tw_gf4_frob):
        ring = twist.ring
        for r in ring.elements():
            for s in ring.elements():
                assert series_add(embed_scalar(twist, r), embed_scalar(twist, s)) \
                    == embed_scalar(twist, ring.add(r, s))
                assert series_mul(embed_scalar(twist, r), embed_scalar(twist, s)) \
                    == embed_scalar(twist, ring.mul(r, s))


class _FewDraws(random.Random):
    """A seeded source that fails a caller who keeps redrawing."""

    def randint(self, a, b):
        self.draws = getattr(self, "draws", 0) + 1
        assert self.draws < 1000, "random_series keeps redrawing"
        return super().randint(a, b)


@pytest.mark.parametrize("max_support, exponents, nonzero", [
    (0, [0, 1, 2], True), (3, [], True), (-1, [0, 1], False)])
def test_random_series_refuses_a_support_bound_that_leaves_nothing_to_draw(
        tw_z4, max_support, exponents, nonzero):
    with pytest.raises(PreconditionFail, match=f"max_support {max_support} over "
                                               f"{len(exponents)} exponents"):
        random_series(tw_z4, _FewDraws(0), exponents, max_support, nonzero=nonzero)
    # a zero series may be drawn from no support at all
    assert random_series(tw_z4, random.Random(0), [0, 1], 0, nonzero=False).is_zero


def test_series_ring_axioms_sampled(tw_z4, tw_z4_tau, tw_gf4_frob, tw_klein_swap):
    for twist in (tw_z4, tw_z4_tau, tw_gf4_frob, tw_klein_swap):
        rng = random.Random(7)
        for _ in range(40):
            f = random_series(twist, rng, range(-2, 3), 3, nonzero=False)
            g = random_series(twist, rng, range(-2, 3), 3, nonzero=False)
            h = random_series(twist, rng, range(-2, 3), 3, nonzero=False)
            assert series_add(f, g) == series_add(g, f)
            assert series_add(series_add(f, g), h) == series_add(f, series_add(g, h))
            assert series_mul(f, series_add(g, h)) \
                == series_add(series_mul(f, g), series_mul(f, h))
            assert series_mul(series_add(f, g), h) \
                == series_add(series_mul(f, h), series_mul(g, h))
            assert series_mul(series_mul(f, g), h) == series_mul(f, series_mul(g, h))


def test_twist_conditions_trivial(tw_z4):
    report = check_twist_conditions(tw_z4, range(-3, 4))
    assert report.gate_ok
    assert all(o.ok for o in report.outcomes.values())


def test_twist_conditions_tau_power(tw_z4_tau):
    report = check_twist_conditions(tw_z4_tau, range(-3, 4))
    assert report["cocycle-paper"].ok
    assert report["cocycle-standard"].ok
    assert report["tau-units"].ok and report["normalized"].ok


def test_twist_conditions_corrupted(tw_z4_tau_corrupt, z4):
    report = check_twist_conditions(tw_z4_tau_corrupt, range(-3, 4))
    assert not report["cocycle-standard"].ok
    assert not report["cocycle-paper"].ok
    # both witnesses re-verify: evaluate the failed equation at the triple
    for name in ("cocycle-standard", "cocycle-paper"):
        w = report[name].witness
        assert w["lhs"] != w["rhs"]
    tau = tw_z4_tau_corrupt.tau_at
    w = report["cocycle-standard"].witness
    x, y, z = w["x"], w["y"], w["z"]
    assert z4.mul(tau(x, y), tau(x + y, z)) \
        != z4.mul(tw_z4_tau_corrupt.sigma_at(x).map[tau(y, z)], tau(x, y + z))


def test_sigma_eta_conditions_hold_for_homomorphic_sigma(tw_gf4_frob, tw_klein_swap):
    for twist in (tw_gf4_frob, tw_klein_swap):
        report = check_twist_conditions(twist, range(-2, 3))
        assert report["sigma-eta-left"].ok
        assert report["sigma-eta-right"].ok


def test_associativity_untwisted_single_terms(tw_z4):
    report = check_associativity(tw_z4, single_term_triples(tw_z4, [0, 1, 2]))
    assert report.ok
    assert report.checked == (3 * 3) ** 3


def test_associativity_tau_power_random(tw_z4_tau):
    rng = random.Random(0)
    report = check_associativity(
        tw_z4_tau, random_triples(tw_z4_tau, rng, range(-3, 4), 1000))
    assert report.ok and report.checked == 1000


def test_associativity_corrupted_fails(tw_z4_tau_corrupt):
    report = check_associativity(
        tw_z4_tau_corrupt, single_term_triples(tw_z4_tau_corrupt, [0, 1, 2]))
    assert not report.ok
    w = report.witness
    f = series_from_json(tw_z4_tau_corrupt, w["f"])
    g = series_from_json(tw_z4_tau_corrupt, w["g"])
    h = series_from_json(tw_z4_tau_corrupt, w["h"])
    assert series_mul(series_mul(f, g), h) != series_mul(f, series_mul(g, h))


def test_standard_cocycle_pass_implies_associativity(tw_z4, tw_z4_tau, tw_gf4_frob, tw_klein_swap):
    for twist in (tw_z4, tw_z4_tau, tw_gf4_frob, tw_klein_swap):
        cond = check_twist_conditions(twist, range(-2, 3))
        assert cond["cocycle-standard"].ok
        rng = random.Random(3)
        assert check_associativity(
            twist, random_triples(twist, rng, range(-2, 3), 200)).ok


def test_lex_group_series(gf4):
    twist = twist_from_spec(gf4, LexProductGroup(2), {
        "sigma": {"generators": ["identity", [0, 1, 3, 2]]}, "tau": {"kind": "one"}})
    f = series_make(twist, [((0, 1), 2), ((1, 0), 1)])
    assert f.support() == [(0, 1), (1, 0)]
    assert support_stats(f).minimal == (0, 1)
    # sigma at (0, 1) applies Frobenius to the coefficient
    g = series_make(twist, [((0, 1), 1)])
    prod = series_mul(g, series_make(twist, [((0, 0), 2)]))
    assert prod.sorted_terms() == [((0, 1), 3)]


def test_serialization_roundtrip(tw_z4_tau):
    f = series_make(tw_z4_tau, [(2, 3), (-1, 1)])
    assert series_from_json(tw_z4_tau, series_to_json(f)) == f
    assert series_to_json(f) == [[-1, 1], [2, 3]]
