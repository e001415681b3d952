import itertools

import pytest

from mnseries.errors import MalformedSpec
from mnseries.groups import IntegersGroup, LexProductGroup, group_make


def test_group_make():
    assert group_make({"group": "Z"}).kind == "Z"
    assert group_make({"group": "Z^k_lex", "k": 2}).k == 2
    with pytest.raises(MalformedSpec):
        group_make({"group": "free"})
    with pytest.raises(MalformedSpec):
        group_make({"group": "Z^k_lex", "k": 0})


def test_integers_ops():
    g = IntegersGroup()
    assert g.op(2, 3) == 5
    assert g.identity == 0
    assert g.inverse(3) == -3


def test_lex_ops():
    g = LexProductGroup(2)
    assert g.op((1, 2), (-1, 1)) == (0, 3)
    assert g.inverse((2, -1)) == (-2, 1)
    # first coordinate dominates
    assert g.canon([1, 0]) > g.canon([0, 5])
    assert g.canon([0, 9]) < g.canon([1, 0])


def test_identity_laws_sampled():
    g = IntegersGroup()
    for x in range(-5, 6):
        assert g.op(x, g.identity) == x
        assert g.op(x, g.inverse(x)) == g.identity
    g2 = LexProductGroup(2)
    for x in g2.window(-2, 2):
        assert g2.op(x, g2.identity) == x
        assert g2.op(x, g2.inverse(x)) == g2.identity


def test_window_sorted_ascending():
    g = IntegersGroup()
    assert g.window(-2, 2) == [-2, -1, 0, 1, 2]
    g2 = LexProductGroup(2)
    win = g2.window(-1, 1)
    assert len(win) == 9
    assert all(a < b for a, b in zip(win, win[1:]))


def test_window_size_counts_the_window_without_building_it():
    for g in (IntegersGroup(), LexProductGroup(1), LexProductGroup(2), LexProductGroup(3)):
        for lo, hi in ((0, 0), (-2, 2), (1, 3)):
            assert g.window_size(lo, hi) == len(g.window(lo, hi))
    assert LexProductGroup(2).window_size(0, 10000) == 10001 ** 2


def test_order_is_total_and_transitive_on_window():
    for g in (IntegersGroup(), LexProductGroup(2)):
        win = g.window(-2, 2)
        for x in win:
            for y in win:
                # exactly one of x < y, x == y, y < x
                assert (x < y) + (x == y) + (y < x) == 1


def test_bi_invariance_on_windows():
    # abelian groups: x < y implies x + a < y + a, checked exhaustively
    g = IntegersGroup()
    win = g.window(-5, 5)
    for x in win:
        for y in win:
            if x < y:
                for a in win:
                    assert g.op(x, a) < g.op(y, a)
    g2 = LexProductGroup(2)
    win2 = g2.window(-2, 2)
    for x, y, a in itertools.product(win2, repeat=3):
        if x < y:
            assert g2.op(x, a) < g2.op(y, a)


def test_minimum_of_set_product_is_product_of_minima():
    # the leading-term lemma: min(A+B) = min(A)+min(B), achieved exactly once
    g = IntegersGroup()
    win = g.window(-3, 3)
    subsets = [c for size in (1, 2, 3) for c in itertools.combinations(win, size)]
    for A in subsets:
        for B in subsets:
            products = [g.op(a, b) for a in A for b in B]
            expected = g.op(min(A), min(B))
            assert min(products) == expected
            assert products.count(expected) == 1


def test_coordinate_overflow_detected():
    g = IntegersGroup()
    with pytest.raises(MalformedSpec):
        g.op(1 << 30, 1 << 30)
    with pytest.raises(MalformedSpec):
        g.canon("3")


def test_element_serialization_roundtrip():
    g2 = LexProductGroup(2)
    x = g2.canon([1, -2])
    assert x == (1, -2)
    assert g2.from_json(g2.to_json(x)) == x
