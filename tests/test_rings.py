import pytest

import mnseries.cli as cli
import mnseries.rings as rings
from mnseries.errors import AxiomViolation, MalformedSpec, NotAutomorphism, RingMismatch
from mnseries.rings import (FiniteRing, automorphism_power, check_automorphism,
                            check_ring_axioms, compose_automorphisms,
                            identity_automorphism, ring_from_table, ring_make,
                            ring_product, ring_trivial_extension, ring_zn, units)
from oracles import per_entry_product, per_entry_trivial_extension, ut2_table


def test_zn4_basic(z4):
    assert z4.size == 4
    assert z4.mul(2, 2) == 0
    assert z4.add(3, 2) == 1
    assert z4.neg(1) == 3


def test_zn2_mul_is_and_table(z2):
    for a in range(2):
        for b in range(2):
            assert z2.mul(a, b) == (a & b)


def test_zn_requires_at_least_two_elements():
    with pytest.raises(MalformedSpec):
        ring_zn(1)


def test_trivial_extension_structure(tz4):
    # pair (a, b) has id 4a + b; (2,0)*(2,0) = (2*2, 2*0 + 0*2) = (0,0)
    assert tz4.size == 16
    assert tz4.one == 4
    assert tz4.mul(8, 8) == 0
    assert tz4.names[9] == "(2,1)"


def test_check_ring_axioms_pass(z4, klein, gf4, tz4):
    for ring in (z4, klein, gf4, tz4):
        assert check_ring_axioms(ring).passed


def test_check_ring_axioms_reports_corruption(z4):
    mul = [list(row) for row in z4.mul_table]
    mul[2][2] = 1
    bad = FiniteRing("Z4-corrupt", z4.add_table, mul, one=1)
    report = check_ring_axioms(bad)
    assert not report.passed
    failed = {r.axiom: r.witness for r in report.failures()}
    assert "left-distributive" in failed or "right-distributive" in failed
    # every reported witness re-verifies against the corrupted tables
    for axiom, witness in failed.items():
        if axiom == "left-distributive":
            a, b, c = witness
            assert bad.mul(a, bad.add(b, c)) != bad.add(bad.mul(a, b), bad.mul(a, c))
        if axiom == "mul-associative":
            a, b, c = witness
            assert bad.mul(bad.mul(a, b), c) != bad.mul(a, bad.mul(b, c))


def test_ring_axioms_are_scanned_once_per_ring(monkeypatch):
    """Loading a table-ring fixture scans its axioms, and the ring-axioms
    suite reads that same report: one axiom scan per ring. A Zn, product or
    trivial-extension ring is a ring by construction, so its load scans
    nothing and its ring-axioms suite scans once."""
    reports = []
    real = rings.AxiomReport

    def counting(results):
        reports.append(real(results))
        return reports[-1]

    monkeypatch.setattr(rings, "AxiomReport", counting)
    fx = cli.load_fixture(cli.resolve_fixture("gf4_frobenius"))
    assert len(reports) == 1
    assert cli.run_suite(fx, "ring-axioms").status == "pass"
    assert len(reports) == 1
    assert check_ring_axioms(fx.ring) is reports[0]

    for name in ("z4_example_5_5", "klein_fusible", "t_z4_example_5_6"):
        reports.clear()
        fx = cli.load_fixture(cli.resolve_fixture(name))
        assert reports == [], name
        assert cli.run_suite(fx, "ring-axioms").status == "pass"
        assert len(reports) == 1, name
        assert check_ring_axioms(fx.ring) is reports[0]


def test_ring_from_table_rejects_missing_rows():
    with pytest.raises(MalformedSpec):
        ring_from_table({"label": "bad", "size": 3, "add": [[0, 1], [1, 0]],
                         "mul": [[0, 0], [0, 1]], "one": 1})


def test_ring_make_rejects_axiom_violations(z4):
    mul = [list(row) for row in z4.mul_table]
    mul[2][2] = 1
    spec = {"kind": "table", "label": "Z4-bad", "size": 4,
            "add": [list(r) for r in z4.add_table], "mul": mul, "one": 1}
    with pytest.raises(AxiomViolation):
        ring_make(spec)


def test_units_examples(z4, z2, tz4, gf4):
    assert units(z4) == {1, 3}          # 3*3 = 9 = 1 mod 4
    assert units(z2) == {1}
    assert units(gf4) == {1, 2, 3}
    # units of the trivial extension: (a, b) with a invertible in Z4
    assert units(tz4) == {4 * a + b for a in (1, 3) for b in range(4)}


def test_units_form_a_group(z4, klein, gf4, tz4):
    for ring in (z4, klein, gf4, tz4):
        us = units(ring)
        assert ring.one in us
        for a in us:
            assert any(ring.mul(a, b) == ring.one and ring.mul(b, a) == ring.one
                       for b in us)
            for b in us:
                assert ring.mul(a, b) in us


def test_identity_automorphism_valid(z4):
    auto = check_automorphism(z4, [0, 1, 2, 3])
    assert auto.is_identity


def test_swap_is_automorphism_of_klein(swap, klein):
    for a in klein.elements():
        for b in klein.elements():
            assert swap(klein.mul(a, b)) == klein.mul(swap(a), swap(b))
            assert swap(klein.add(a, b)) == klein.add(swap(a), swap(b))


def test_times_three_map_is_not_automorphism(z4):
    # x -> 3x is additive and bijective but fails multiplicativity at (1, 1)
    with pytest.raises(NotAutomorphism) as exc:
        check_automorphism(z4, [0, 3, 2, 1])
    assert exc.value.witness == ("mul", (1, 1))


def test_non_permutation_rejected(z4):
    with pytest.raises(NotAutomorphism):
        check_automorphism(z4, [0, 1, 1, 3])


def test_swap_squared_is_identity(swap):
    assert compose_automorphisms(swap, swap).is_identity


def test_frobenius_squared_is_identity(frobenius):
    assert compose_automorphisms(frobenius, frobenius).is_identity


def test_identity_inverse_is_identity(z4):
    assert identity_automorphism(z4).inverse().is_identity


def test_automorphism_power_laws(swap, frobenius):
    for auto in (swap, frobenius):
        for m in range(-4, 5):
            for n in range(-4, 5):
                combined = compose_automorphisms(automorphism_power(auto, m),
                                                 automorphism_power(auto, n))
                assert automorphism_power(auto, m + n) == combined


def test_composition_is_associative(swap, klein):
    autos = [identity_automorphism(klein), swap]
    for a in autos:
        for b in autos:
            for c in autos:
                assert compose_automorphisms(compose_automorphisms(a, b), c) \
                    == compose_automorphisms(a, compose_automorphisms(b, c))


def test_compose_requires_same_ring(z4, klein, swap):
    with pytest.raises(RingMismatch):
        compose_automorphisms(identity_automorphism(z4), swap)


def test_automorphisms_preserve_operations_exhaustively(frobenius, gf4):
    for a in gf4.elements():
        for b in gf4.elements():
            assert frobenius(gf4.add(a, b)) == gf4.add(frobenius(a), frobenius(b))
            assert frobenius(gf4.mul(a, b)) == gf4.mul(frobenius(a), frobenius(b))


def test_ring_make_dispatch():
    prod = ring_make({"kind": "product",
                      "factors": [{"kind": "Zn", "n": 2}, {"kind": "Zn", "n": 3}]})
    assert prod.size == 6
    triv = ring_make({"kind": "trivial_extension", "base": {"kind": "Zn", "n": 2}})
    assert triv.size == 4
    with pytest.raises(MalformedSpec):
        ring_make({"kind": "nonsense"})
    with pytest.raises(MalformedSpec):
        ring_make({"kind": "Zn", "n": 300})  # over the default size cap


def test_product_encoding_is_row_major(klein):
    # (a, b) -> 2a + b, so (1, 0) is id 2 and (1, 1) is id 3
    assert klein.names[2] == "(1,0)"
    assert klein.mul(2, 3) == 2
    assert klein.one == 3


_PAIR_RINGS = {
    # (the row-at-a-time build, the per-entry build)
    "Z4^3": lambda product, extension: product(ring_zn(4), product(ring_zn(4), ring_zn(4))),
    "T(Z8)": lambda product, extension: extension(ring_zn(8)),
    "Z2xUT2(Z2)": lambda product, extension: product(ring_zn(2),
                                                     ring_from_table(ut2_table(2))),
}


@pytest.mark.parametrize("name", sorted(_PAIR_RINGS))
def test_pair_rings_match_the_per_entry_build(name):
    """Products and trivial extensions built a row at a time have the
    tables, names, label and one of the per-entry build: on a nested
    product, a trivial extension of a ring with zero divisors, and a
    product with a noncommutative factor."""
    build = _PAIR_RINGS[name]
    fast = build(ring_product, ring_trivial_extension)
    slow = build(per_entry_product, per_entry_trivial_extension)
    assert (fast.label, fast.size, fast.one, fast.names) == \
        (slow.label, slow.size, slow.one, slow.names)
    assert fast.add_table == slow.add_table
    assert fast.mul_table == slow.mul_table


@pytest.mark.parametrize("build", [
    lambda: ring_zn(2), lambda: ring_zn(7), lambda: ring_zn(64),
    lambda: ring_product(ring_zn(2), ring_from_table(ut2_table(2))),
    lambda: ring_product(ring_zn(4), ring_product(ring_zn(4), ring_zn(4))),
    lambda: ring_trivial_extension(ring_zn(8)),
], ids=["Z2", "Z7", "Z64", "Z2xUT2(Z2)", "Z4^3", "T(Z8)"])
def test_built_rings_equal_their_tables_through_the_checked_constructor(build):
    """ring_zn, products and trivial extensions skip the constructor's
    entry check; their tables pass it, and give the same ring field by
    field."""
    built = build()
    checked = FiniteRing(built.label, [list(row) for row in built.add_table],
                         [list(row) for row in built.mul_table], built.one, list(built.names))
    assert vars(built).keys() == vars(checked).keys()
    for name, value in vars(checked).items():
        assert getattr(built, name) == value, name
    assert {type(v) for row in built.add_table + built.mul_table for v in row} == {int}


def test_gf4_table_is_a_field(gf4):
    assert units(gf4) == set(gf4.elements()) - {0}
    # x * x = x + 1, x * (x+1) = 1
    assert gf4.mul(2, 2) == 3
    assert gf4.mul(2, 3) == 1


def _z3_tables():
    return ([[(a + b) % 3 for b in range(3)] for a in range(3)],
            [[a * b % 3 for b in range(3)] for a in range(3)])


@pytest.mark.parametrize("table, i, j, value, message", [
    ("add", 1, 2, True, "ring 'z3': add[1][2] = True out of range"),
    ("mul", 2, 0, 0.0, "ring 'z3': mul[2][0] = 0.0 out of range"),
    ("add", 0, 1, -1, "ring 'z3': add[0][1] = -1 out of range"),
    ("mul", 1, 1, 3, "ring 'z3': mul[1][1] = 3 out of range"),
])
def test_a_bad_table_entry_is_named(table, i, j, value, message):
    tables = dict(zip(("add", "mul"), _z3_tables()))
    tables[table][i][j] = value
    with pytest.raises(MalformedSpec) as exc:
        FiniteRing("z3", tables["add"], tables["mul"], 1)
    assert str(exc.value) == message


@pytest.mark.parametrize("table, i, j, value, message", [
    ("add", 1, 2, True, "ring 'z3': add[1][2] = True out of range"),
    ("mul", 1, 1, 3, "ring 'z3': mul[1][1] = 3 out of range"),
])
def test_a_loaded_table_keeps_the_entry_check(table, i, j, value, message):
    """Only the builders skip the entry check: a table read from a document
    still has its first bad entry named."""
    tables = dict(zip(("add", "mul"), _z3_tables()))
    tables[table][i][j] = value
    with pytest.raises(MalformedSpec) as exc:
        ring_from_table({"label": "z3", "size": 3, "one": 1, **tables})
    assert str(exc.value) == message


def test_the_first_bad_entry_in_row_order_is_named():
    # a bad entry, then a short row, then another bad entry: the first in
    # the order add rows, then mul rows, each row's entries left to right
    add, mul = _z3_tables()
    add[1][2] = 7
    add[2] = add[2][:2]
    mul[0][0] = "0"
    with pytest.raises(MalformedSpec, match=r"^ring 'z3': add\[1\]\[2\] = 7 out of range$"):
        FiniteRing("z3", add, mul, 1)
    add[1][2] = 0
    with pytest.raises(MalformedSpec, match=r"^ring 'z3': add row 2 has 2 entries$"):
        FiniteRing("z3", add, mul, 1)
    add[2] = [2, 0, 1]
    with pytest.raises(MalformedSpec, match=r"^ring 'z3': mul\[0\]\[0\] = '0' out of range$"):
        FiniteRing("z3", add, mul, 1)
    mul[0][0] = 0
    assert FiniteRing("z3", add, mul, 1).size == 3
