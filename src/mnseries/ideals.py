"""Explicit subsets and ideals of a finite ring.

Ideals are carried as explicit element sets so every checker is a finite
scan and equality is set equality. Closure kinds: subset < left/right <
twosided. A computed element set (annihilator, quotient, sum, nil radical)
is a plain frozenset; an IdealSet is an ideal that carries its kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, filterfalse
from operator import itemgetter, not_
from typing import Iterable

from .errors import RingMismatch, SizeCapExceeded
from .rings import DEFAULT_SIZE_CAP, FiniteRing, RingAutomorphism

KINDS = ("subset", "left", "right", "twosided")


@dataclass(frozen=True)
class IdealSet:
    ring: FiniteRing
    members: frozenset[int]
    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ideal kind {self.kind!r}")

    def sorted_members(self) -> list[int]:
        return sorted(self.members)

    @cached_property
    def additive_generators(self) -> tuple[int, ...]:
        """Members that generate the ideal as an additive group, at most
        log2|members| of them (each at least doubles the group it joins);
        the members themselves for a kind "subset", which need not be a group."""
        if self.kind == "subset":
            return tuple(self.members)
        return tuple(_subgroup(self.ring.add_table, (), self.members)[1])

    def describe(self) -> str:
        return self.ring.describe_set(self.members)

    def to_json(self) -> dict:
        return {"ring_label": self.ring.label, "kind": self.kind,
                "members": self.sorted_members()}


def classify_kind(ring: FiniteRing, members: Iterable[int]) -> str:
    """Strongest closure kind the member set satisfies: it is a left (right)
    ideal iff its left (right) closure adds nothing to it."""
    ms = frozenset(members)
    left = ideal_closure(ring, ms, "left").members == ms
    right = ideal_closure(ring, ms, "right").members == ms
    if left and right:
        return "twosided"
    if left:
        return "left"
    if right:
        return "right"
    return "subset"


_SATISFIES = {
    "subset": ("subset", "left", "right", "twosided"),
    "left": ("left", "twosided"),
    "right": ("right", "twosided"),
    "twosided": ("twosided",),
}


def make_ideal(ring: FiniteRing, members: Iterable[int], kind: str | None = None) -> IdealSet:
    """Wrap an explicit member set, classifying (or verifying) its kind."""
    ms = frozenset(members)
    actual = classify_kind(ring, ms)
    if kind is None:
        return IdealSet(ring, ms, actual)
    if actual not in _SATISFIES[kind]:
        raise ValueError(f"set {ring.describe_set(ms)} is not a {kind} ideal of {ring.label}")
    return IdealSet(ring, ms, kind)


def _grow(add, group: list[int], members: set[int], g: int) -> None:
    """Extend the additive subgroup H (listed in `group`, zero first, and held
    in `members`) to H + <g>: add the cosets H + g, H + 2g, ... until kg
    lands in H. A g outside H at least doubles H."""
    step = add[g].__getitem__
    coset = list(map(step, group))
    new = []
    while coset[0] not in members:  # coset[0] = kg, the image of zero
        new += coset
        coset = list(map(step, coset))
    group += new
    members.update(new)


def _subgroup(add, base: Iterable[int], gens: Iterable[int]) -> tuple[set[int], list[int]]:
    """The additive subgroup generated by the subgroup `base` and `gens`, and
    the gens that each grew it (at most log2 of the result's size)."""
    members = set(base) | {0}
    group = [0, *(members - {0})]
    used = []
    for g in gens:
        if g not in members:
            _grow(add, group, members, g)
            used.append(g)
    return members, used


def ideal_closure(ring: FiniteRing, gens: Iterable[int], kind: str = "twosided") -> IdealSet:
    """Least ideal of the given kind containing gens.

    Grown as an additive subgroup H, one generator at a time: a generator g
    outside H extends H by the cosets H + kg until kg lands in H, and only
    g's products with the ring are queued as further generators. Products
    are additive in each argument, so once every generator's products lie
    in H, so do the products of every sum of generators. Each generator at
    least doubles H, so at most log2|I| of them cost O(|I| + |R|) each.
    """
    if kind not in ("left", "right", "twosided"):
        raise ValueError(f"closure kind must be left/right/twosided, not {kind!r}")
    add, mul = ring.add_table, ring.mul_table
    left, right = kind != "right", kind != "left"
    group = [0]  # H, zero first
    members = {0}
    work = list(gens)
    while work:
        g = work.pop()
        if g in members:
            continue
        _grow(add, group, members, g)
        if left:
            work += filterfalse(members.__contains__, map(itemgetter(g), mul))
        if right:
            work += filterfalse(members.__contains__, mul[g])
    return IdealSet(ring, frozenset(members), kind)


def subgroup_sum(ring: FiniteRing, A: Iterable[int], B: Iterable[int]) -> frozenset[int]:
    """A + B for additive subgroups A and B of the ring, such as ideals and
    their annihilators: A grown by the elements of B, one coset chain at a
    time, in O(|A + B|) additions per element of B that grows it, where
    `set_sum` forms all |A|*|B| sums. Holds only for subgroups."""
    return frozenset(_subgroup(ring.add_table, A, B)[0])


def is_subgroup_sum(C: frozenset, A: frozenset, B: frozenset) -> bool:
    """Whether C = A + B, for A, B and C additive subgroups of one group, such
    as ring or universe annihilators. A subgroup holding A and B holds A + B,
    and |A + B| = |A|*|B| / |A n B|, so C = A + B iff A and B lie in C and
    |C|*|A n B| = |A|*|B|: no sums."""
    return A <= C and B <= C and len(C) * len(A & B) == len(A) * len(B)


def enumerate_ideals(ring: FiniteRing, kind: str = "twosided") -> list[IdealSet]:
    """All ideals of the kind, each once, ascending by size then member list;
    computed once per (ring, kind), and a fresh list on every call.

    Complete for finite rings: every ideal is a finite join of singleton
    closures, and pairwise joins are iterated to a fixpoint. The join of two
    ideals of a kind is their sum I + J, already an ideal of that kind, so
    it is a subgroup sum and needs no closure.
    """
    if ring.size > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(f"ring {ring.label} has {ring.size} elements, cap {DEFAULT_SIZE_CAP}",
                              {"size_cap": DEFAULT_SIZE_CAP})
    return list(ring.once(("lattice", kind), lambda: _lattice(ring, kind)))


def _lattice(ring: FiniteRing, kind: str) -> tuple[IdealSet, ...]:
    seen = {frozenset({0})}
    frontier = set()
    for a in ring.elements():
        frontier.add(ideal_closure(ring, [a], kind).members)
    seen |= frontier
    current = set(seen)
    while True:
        fresh = set()
        for i in current:
            for j in frontier:
                if not (j <= i):
                    joined = subgroup_sum(ring, i, j)
                    if joined not in seen:
                        fresh.add(joined)
        if not fresh:
            break
        seen |= fresh
        current = fresh
    out = [IdealSet(ring, ms, kind) for ms in seen]
    out.sort(key=lambda ideal: (len(ideal.members), ideal.sorted_members()))
    return tuple(out)


def ideals_by_right_annihilator(ring: FiniteRing) -> dict[frozenset[int], IdealSet]:
    """r(K) -> K over the two-sided ideals, the first K in lattice order
    winning; built once per ring, for is_SA and the SA transfer."""
    return ring.once("K by r(K)", lambda: {
        annihilator(ring, K.members): K for K in reversed(enumerate_ideals(ring, "twosided"))})


def _member_set(ring: FiniteRing, xs) -> frozenset[int]:
    if isinstance(xs, IdealSet):
        if xs.ring is not ring:
            raise RingMismatch(f"expected a subset of {ring.label}, got one of {xs.ring.label}")
        return xs.members
    return frozenset(xs)


def _rows_meet(ring: FiniteRing, rows, keep) -> frozenset[int]:
    """The positions a at which keep(row[a]) holds for every row: the
    positions of each row that pass, intersected. Every caller's rows keep
    position 0 (x*0 = 0*x = 0, and 0 is kept), so the scan stops at {0}."""
    out = set(ring.elements())
    for row in rows:
        out.intersection_update(compress(ring.elements(), map(keep, row)))
        if len(out) == 1:
            break
    return frozenset(out)


def quotient_ideal(U: IdealSet, V) -> frozenset[int]:
    """(U:V) = {x | v*x in U for every v in V}: for each v, the positions of
    row v of the product table that land in U, intersected; two-sided when
    U and V are right ideals (the `ideals` suite checks it). For ideals U
    and V only V's additive generators are read: U is a subgroup and the
    product is additive in v, so (U:V) = (U:gens(V)). Any other V is read
    in full."""
    ring = U.ring
    vs = _member_set(ring, V)
    if isinstance(V, IdealSet) and U.kind != "subset":
        vs = V.additive_generators
    return _rows_meet(ring, (ring.mul_table[v] for v in vs), U.members.__contains__)


def annihilator(ring: FiniteRing, X, side: str = "right") -> frozenset[int]:
    """r_R(X) = {a | xa = 0 for all x in X}, the zeros of row x of the
    product table; side='left' uses ax = 0, the zeros of column x."""
    xs = _member_set(ring, X)
    if side == "right":
        rows = (ring.mul_table[x] for x in xs)
    elif side == "left":
        rows = (map(itemgetter(x), ring.mul_table) for x in xs)
    else:
        raise ValueError(f"side must be 'right' or 'left', not {side!r}")
    return _rows_meet(ring, rows, not_)


def set_sum(ring: FiniteRing, A: Iterable[int], B: Iterable[int]) -> frozenset[int]:
    """Element-set sum {a + b | a in A, b in B}, for any sets (a sum of
    subgroups is `subgroup_sum`, which this checks in the tests)."""
    return frozenset(ring.add_table[a][b] for a in A for b in B)


def element_powers(ring: FiniteRing, a: int) -> list[int]:
    """a^1, a^2, ... up to the first repeat (powers cycle within |R| steps)."""
    out = []
    seen = set()
    x = a
    while x not in seen:
        seen.add(x)
        out.append(x)
        x = ring.mul_table[x][a]
    return out


@dataclass
class SemiprimeResult:
    ok: bool
    witness: tuple[int, int] | None = None  # (a, n) with a not in U, a^n in U


def is_semiprime_ideal(U: IdealSet) -> SemiprimeResult:
    """True iff no power of an element outside U lands in U."""
    ring = U.ring
    for a in ring.elements():
        if a in U.members:
            continue
        for n, p in enumerate(element_powers(ring, a), start=1):
            if p in U.members:
                return SemiprimeResult(False, (a, n))
    return SemiprimeResult(True)


def nil_radical(ring: FiniteRing) -> tuple[frozenset[int], bool]:
    """Nilpotent elements, and whether they already form a two-sided ideal (NI)."""
    nil = frozenset(a for a in ring.elements() if 0 in element_powers(ring, a))
    is_ni = ideal_closure(ring, nil, "twosided").members == nil
    return nil, is_ni


def weak_annihilator(ring: FiniteRing, X, nil: frozenset[int]) -> frozenset[int]:
    """N_R(X) = {a | xa is nilpotent for every x in X}, given the nilpotent
    elements `nil` of the ring (the first part of nil_radical)."""
    return _rows_meet(ring, (ring.mul_table[x] for x in _member_set(ring, X)),
                      nil.__contains__)


def close_under_inverses(sigma_family: Iterable[RingAutomorphism]) -> list[RingAutomorphism]:
    out = []
    for s in sigma_family:
        if s not in out:
            out.append(s)
        inv = s.inverse()
        if inv not in out:
            out.append(inv)
    return out


@dataclass
class SigmaCompatResult:
    ok: bool
    witness: tuple | None = None            # (a, b, generator index) breaking ab in U <-> a s(b) in U


def is_sigma_compatible_ideal(U: IdealSet, sigma_family: Iterable[RingAutomorphism]) -> SigmaCompatResult:
    """ab in U <-> a*sigma(b) in U for every generator and inverse."""
    ring = U.ring
    mul = ring.mul_table
    for idx, s in enumerate(close_under_inverses(sigma_family)):
        for a in ring.elements():
            for b in ring.elements():
                if (mul[a][b] in U.members) != (mul[a][s.map[b]] in U.members):
                    return SigmaCompatResult(False, (a, b, idx))
    return SigmaCompatResult(True)
