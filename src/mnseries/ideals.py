"""Explicit subsets and ideals of a finite ring.

Ideals are carried as explicit element sets so every checker is a finite
scan and equality is set equality. Closure kinds: subset < left/right <
twosided. A computed element set (annihilator, quotient, sum, nil radical)
is a plain frozenset; an IdealSet is an ideal that carries its kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import filterfalse
from operator import itemgetter
from typing import Iterable

from .errors import RingMismatch
from .rings import (FiniteRing, RingAutomorphism, greedy_generators, grow_subgroup,
                    require_byte_ids)

KINDS = ("subset", "left", "right", "twosided")
_ZERO = frozenset({0})


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
        return tuple(greedy_generators(self.ring.add_table, {0}, self.members))

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
        grow_subgroup(add, group, members, g)
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
    members = {0, *A}
    for _ in greedy_generators(ring.add_table, members, B):
        pass
    return frozenset(members)


def is_subgroup_sum(C: frozenset, A: frozenset, B: frozenset) -> bool:
    """Whether C = A + B, for A, B and C additive subgroups of one group, such
    as ring or universe annihilators. A subgroup holding A and B holds A + B,
    and |A + B| = |A|*|B| / |A n B|, so C = A + B iff A and B lie in C and
    |C|*|A n B| = |A|*|B|: no sums."""
    return A <= C and B <= C and len(C) * len(A & B) == len(A) * len(B)


def enumerate_ideals(ring: FiniteRing, kind: str = "twosided") -> list[IdealSet]:
    """All ideals of the kind, each once, ascending by size then member list;
    computed once per (ring, kind), and a fresh list on every call.

    R has a 1, so aR is row a of the product table and Ra column a, and
    every right (left) ideal is the sum of its members' principal ideals, a
    subgroup sum that needs no closure. The two-sided ideals are the right
    ideals I with R*I inside I, in the same order.
    """
    require_byte_ids(ring)
    return list(_stored_lattice(ring, kind))


def _stored_lattice(ring: FiniteRing, kind: str) -> tuple[IdealSet, ...]:
    return ring.once(("lattice", kind), lambda: _lattice(ring, kind))


def _lattice(ring: FiniteRing, kind: str) -> tuple[IdealSet, ...]:
    mul = ring.mul_table
    if kind == "twosided":
        # products are additive in each argument: generators of R and I decide R*I <= I
        gens = list(greedy_generators(ring.add_table, {0}, ring.elements()))
        return tuple(IdealSet(ring, I.members, kind) for I in _stored_lattice(ring, "right")
                     if all(mul[r][g] in I.members for r in gens for g in I.additive_generators))
    principals = dict.fromkeys(map(frozenset, {"right": mul, "left": zip(*mul)}[kind]))
    # after each principal P, seen holds every sum of the principals so far
    seen = {frozenset({0})}
    for P in sorted(principals, key=len):
        if P in seen:
            continue
        seen.update([subgroup_sum(ring, I, P) for I in seen if not P <= I])
    out = [IdealSet(ring, ms, kind) for ms in seen]
    out.sort(key=lambda ideal: (len(ideal.members), ideal.sorted_members()))
    return tuple(out)


def right_annihilators(ring: FiniteRing) -> dict[IdealSet, frozenset[int]]:
    """K -> r(K) over the two-sided ideals, in lattice order; computed once
    per ring, for is_SA and the table below."""
    return ring.once("r(K)", lambda: {
        K: annihilator(ring, K.members) for K in enumerate_ideals(ring, "twosided")})


def ideals_by_right_annihilator(ring: FiniteRing) -> dict[frozenset[int], IdealSet]:
    """r(K) -> K over the two-sided ideals, the first K in lattice order
    winning; built once per ring from `right_annihilators`, for is_SA and
    the SA transfer."""
    return ring.once("K by r(K)", lambda: {
        r: K for K, r in reversed(right_annihilators(ring).items())})


def _members(ring: FiniteRing, xs) -> Iterable[int]:
    if isinstance(xs, IdealSet):
        if xs.ring is not ring:
            raise RingMismatch(f"expected a subset of {ring.label}, got one of {xs.ring.label}")
        return xs.members
    return xs


def keep_table(ring: FiniteRing, keep: frozenset[int]) -> bytes:
    """The bytes.translate table of a kept set: the digit 1 for each id in
    `keep`, 0 for every other byte. A ring has at most DEFAULT_SIZE_CAP
    elements, as an ideal lattice's has, so every id, and every row of its
    product table, fits in bytes; a larger ring raises SizeCapExceeded."""
    require_byte_ids(ring)
    table = bytearray(b"0" * 256)
    for a in keep:
        table[a] = ord("1")
    return bytes(table)


def row_mask(reversed_row: bytes, table: bytes) -> int:
    """The bitmask of the positions a whose entry is kept by `table` (see
    keep_table), from the row's bytes last position first, read as binary."""
    return int(reversed_row.translate(table), 2)


def _mask_handle(ring: FiniteRing, kernel: str, keep: frozenset[int], side: str) -> tuple:
    """(masks built so far, keep's table, the reversed byte rows of the side,
    the ring's one dict of meet sets) in one lookup; the masks are filed under
    (kernel, keep, side), so no two kernels share one."""
    return ring.once((kernel, keep, side), lambda: (
        {}, keep_table(ring, keep), ring.byte_rows().reversed(side), ring.once("meets", dict)))


def _meet(ring: FiniteRing, kernel: str, keep: frozenset[int], side: str, xs) -> frozenset[int]:
    """The positions a with x*a in keep (a*x for side "left") for every x
    in xs: the AND of their row masks, stopping once at most bit 0 is left.
    A row's mask is built when first read and kept in the handle's dict."""
    masks, table, rows, sets = _mask_handle(ring, kernel, keep, side)
    meet = (1 << ring.size) - 1
    for x in xs:
        mask = masks.get(x)
        if mask is None:
            mask = masks[x] = row_mask(rows[x], table)
        meet &= mask
        if meet <= 1:
            break
    found = sets.get(meet)
    if found is None:
        found = sets[meet] = frozenset(a for a in range(meet.bit_length()) if meet >> a & 1)
    return found


def quotient_ideal(U: IdealSet, V) -> frozenset[int]:
    """(U:V) = {x | v*x in U for every v in V}, the AND over v in V of the
    masks of row v's positions that land in U; two-sided when U and V are
    right ideals (the `ideals` suite checks it). For ideals U and V only V's
    additive generators are read: U is a subgroup and the product is
    additive in v, so (U:V) = (U:gens(V)). Any other V is read in full."""
    ring = U.ring
    vs = _members(ring, V)
    if isinstance(V, IdealSet) and U.kind != "subset":
        vs = V.additive_generators
    return _meet(ring, "(U:V)", U.members, "right", vs)


def quotient_masks(U: IdealSet) -> list[int]:
    """(U:{v}) for every element v as an int bitmask, from quotient_ideal's
    own memo of row masks (built where missing), so the ANDs of a search
    over them are the quotients quotient_ideal returns."""
    masks, table, rows, _ = _mask_handle(U.ring, "(U:V)", U.members, "right")
    for v, row in enumerate(rows):
        if v not in masks:
            masks[v] = row_mask(row, table)
    return [masks[v] for v in U.ring.elements()]


def singleton_quotient_masks(U: IdealSet) -> tuple[int, ...]:
    """(U:{v}) for every element v as an int bitmask, bit x set iff v*x is
    in U: row v of the product table, read once per (ring, U) and kept in
    the ring's memo apart from quotient_ideal's masks, which check it. (U:Y)
    for any member set Y is the AND of its members' masks."""
    def build():
        table = keep_table(U.ring, U.members)
        return tuple(row_mask(row, table) for row in U.ring.byte_rows().reversed("right"))
    return U.ring.once(("(U:{v}) masks", U.members), build)


def annihilator(ring: FiniteRing, X, side: str = "right") -> frozenset[int]:
    """r_R(X) = {a | xa = 0 for all x in X}, the AND of the masks of the
    zeros of each row x; side='left' uses ax = 0, the zeros of column x."""
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', not {side!r}")
    return _meet(ring, "r(X)", _ZERO, side, _members(ring, X))


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
    elements `nil` of the ring (the first part of nil_radical): the AND of
    the masks of the positions of each row x that lie in nil."""
    return _meet(ring, "N(X)", frozenset(nil), "right", _members(ring, X))


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
    """ab in U <-> a*sigma(b) in U for every generator and inverse: byte row a
    against row a permuted by sigma, both through U's keep table; b is
    scanned only in the first row that differs, for the first witness.
    SizeCapExceeded above DEFAULT_SIZE_CAP elements."""
    ring = U.ring
    mul, rows = ring.mul_table, ring.byte_rows()
    keep = keep_table(ring, U.members)
    kept = [row.translate(keep) for row in rows.mul]
    tabs = [tab.translate(keep) for tab in rows.mul_tab]
    for idx, s in enumerate(close_under_inverses(sigma_family)):
        moved = bytes(s.map)
        for a, (row, tab) in enumerate(zip(kept, tabs)):
            if moved.translate(tab) != row:
                b = next(b for b in ring.elements()
                         if (mul[a][b] in U.members) != (mul[a][s.map[b]] in U.members))
                return SigmaCompatResult(False, (a, b, idx))
    return SigmaCompatResult(True)
