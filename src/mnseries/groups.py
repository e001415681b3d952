"""Ordered abelian exponent groups: Z and Z^k under lexicographic order.

Elements are plain ints (Z) or k-tuples of ints (Z^k), so Python's own
`<`, `min` and `sorted` give the group order. Both orders are bi-invariant
total orders, which is what the leading- and trailing-term arguments on
series supports rely on.
"""

from __future__ import annotations

import itertools

from .errors import MalformedSpec

COORD_BOUND = 1 << 30


class OrderedGroup:
    """Common interface: op / inverse / window over canonical elements."""

    kind: str
    k: int  # the number of Z factors
    identity = None

    def canon(self, x):
        raise NotImplementedError

    def op(self, x, y):
        raise NotImplementedError

    def inverse(self, x):
        raise NotImplementedError

    def coords(self, x) -> tuple:
        """x as a k-tuple of integers."""
        raise NotImplementedError

    def window(self, lo: int, hi: int) -> list:
        """All elements with every coordinate in [lo, hi], sorted ascending."""
        raise NotImplementedError

    def window_size(self, lo: int, hi: int) -> int:
        """len(window(lo, hi)), without building the window (lo <= hi)."""
        raise NotImplementedError

    def to_json(self, x):
        raise NotImplementedError

    def from_json(self, data):
        return self.canon(data)


def _check_coord(v: int):
    if not isinstance(v, int) or isinstance(v, bool):
        raise MalformedSpec(f"group coordinate must be an int, got {v!r}")
    if abs(v) > COORD_BOUND:
        raise MalformedSpec(f"group coordinate {v} exceeds bound {COORD_BOUND}")
    return v


class IntegersGroup(OrderedGroup):
    """(Z, +) with the natural order."""

    kind = "Z"
    k = 1
    identity = 0

    def canon(self, x):
        return _check_coord(x)

    def op(self, x, y):
        return _check_coord(x + y)

    def inverse(self, x):
        return -x

    def coords(self, x):
        return (x,)

    def window(self, lo, hi):
        return list(range(lo, hi + 1))

    def window_size(self, lo, hi):
        return hi - lo + 1

    def to_json(self, x):
        return x

    def __repr__(self):
        return "IntegersGroup()"


class LexProductGroup(OrderedGroup):
    """(Z^k, +) ordered lexicographically, first coordinate dominant."""

    kind = "Z^k_lex"

    def __init__(self, k: int):
        if type(k) is not int or k < 1:
            raise MalformedSpec(f"Z^k_lex requires k >= 1, got {k!r}")
        self.k = k
        self.identity = (0,) * k

    def canon(self, x):
        if isinstance(x, list):
            x = tuple(x)
        if not isinstance(x, tuple) or len(x) != self.k:
            raise MalformedSpec(f"expected a {self.k}-tuple, got {x!r}")
        for v in x:
            _check_coord(v)
        return x

    def op(self, x, y):
        return tuple(_check_coord(a + b) for a, b in zip(x, y))

    def inverse(self, x):
        return tuple(-a for a in x)

    def coords(self, x):
        return x

    def window(self, lo, hi):
        return [tuple(t) for t in itertools.product(range(lo, hi + 1), repeat=self.k)]

    def window_size(self, lo, hi):
        return (hi - lo + 1) ** self.k

    def to_json(self, x):
        return list(x)

    def __repr__(self):
        return f"LexProductGroup(k={self.k})"


def group_make(spec: dict | str) -> OrderedGroup:
    """Build a group from a fixture spec: {"group": "Z"} or {"group": "Z^k_lex", "k": k}."""
    if isinstance(spec, str):
        spec = {"group": spec}
    if not isinstance(spec, dict) or "group" not in spec:
        raise MalformedSpec(f"group spec must name a group: {spec!r}")
    kind = spec["group"]
    if kind == "Z":
        return IntegersGroup()
    if kind == "Z^k_lex":
        return LexProductGroup(spec.get("k", 0))
    raise MalformedSpec(f"unknown group kind {kind!r}")
