"""Executable transfer arguments between a base ring and its series ring.

Each harness runs a constructive argument step by step over a truncated
series universe and re-verifies every claimed membership by direct
evaluation, with an independent brute-force scan as the final oracle. A
TraceMismatch means a step's claim failed direct evaluation; that aborts
loudly because it would signal either an implementation bug or a genuine
gap in the argument, and neither may be papered over.

The universe's quantifiers over series become quotients, (members : X) on
one side, each a frozenset of member indices, and each quotient is the
kernel of the window product, which is additive in the series it quotients:
`TruncatedUniverse.quotient` matches half-window sums of the single-term
products, reduced mod `members`, instead of multiplying every universe
series. An annihilator needs no such kernel: it is killed by the single
terms whose coefficients are additive generators of its coefficient set,
and a single term times a series puts each coefficient in its own slot, so
the annihilator is a box of per-position coefficient sets read from the
term table. It is kept in the universe's memo per (set, side). The filter
over every series that both replaced is the tests' oracle,
`universe_quotient_scan` in tests/oracles.py.
`lift_universe` lifts every universe member for prop 3.2 and decides each
(0 : h) by one `killers` join for all of them, not by a kernel.

`extraction_scan` runs thm 5.4's extraction induction over a universe: one
trace per class-series pair mod U, listing every series only when a class
trace fails. `series_zip_witness` traces one U-coefficient series per
support and factor. Both rest on the universe's table check, the one oracle
for the tables every trace reads: it runs once per universe, before any
trace (in `series_zip_witness`, before its quotients), and a failed check
raises TraceMismatch out of the scan.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from operator import getitem
from typing import Any, Iterable, Sequence

from .errors import (HypothesisFails, NotFusibleRing, NotNormalized,
                     NotSigmaCompatible, PreconditionFail, RingMismatch,
                     SizeCapExceeded, TraceMismatch, TwistMismatch)
from .ideals import (IdealSet, annihilator, ideal_closure, ideals_by_right_annihilator,
                     is_semiprime_ideal, is_sigma_compatible_ideal, is_subgroup_sum,
                     subgroup_sum)
from .properties import (PropertyReport, fusible_decompositions,
                         is_G_armendariz, is_left_fusible, is_SA,
                         is_sigma_compatible_ring, sigma_u_zip_witness,
                         zero_divisor_sets)
from .rings import Memo, greedy_generators, require_byte_ids
from .series import (Series, TwistSystem, WindowAlgebra, embed_scalar, series_make,
                     series_mul, series_to_json)

DEFAULT_UNIVERSE_CAP = 4096


def universe_count(size: int, length: int) -> int:
    """size^length, the number of series over `length` exponents, or
    SizeCapExceeded naming the cap when that exceeds DEFAULT_UNIVERSE_CAP.
    Every ring has two or more elements, so a window longer than the cap's
    bits is over it for any ring, and is refused before its count is formed."""
    cap = DEFAULT_UNIVERSE_CAP
    count = size ** length if length <= cap.bit_length() else None
    if count is None or count > cap:
        shown = f"{size}^{length}" + ("" if count is None else f" = {count}")
        raise SizeCapExceeded(f"{shown} universe series exceed the cap of {cap}",
                              {"universe_cap": cap})
    return count


class TruncatedUniverse(Memo):
    """All series with support inside a finite window: the decidable stand-in
    for the full series ring, over which its quantifiers become quotients. A
    member is its index, whose base-|R| digits are its coefficients over the
    sorted window, the first position most significant, so index order is
    coefficient-tuple order. Its ring has at most DEFAULT_SIZE_CAP elements,
    as an ideal lattice's has, so the quotient kernel can hold a coefficient
    in a byte."""

    def __init__(self, twist: TwistSystem, window: Iterable):
        require_byte_ids(twist.ring)
        grp = twist.group
        win = sorted({grp.canon(x) for x in window})
        if not win:
            raise PreconditionFail("universe window must be nonempty")
        self.twist = twist
        self.window = win
        self.count = universe_count(twist.ring.size, len(win))
        self.algebra = WindowAlgebra(twist, win)
        self._memo: dict = {}

    def __len__(self) -> int:
        return self.count

    @property
    def has_identity(self) -> bool:
        return self.twist.group.identity in self.window

    def checked_algebra(self) -> WindowAlgebra:
        """The window algebra, once its tables have passed
        `WindowAlgebra.check_tables`, which runs once per universe. A failed
        check stores nothing and raises its TraceMismatch on every call."""
        self.once("check_tables", self.algebra.check_tables)
        return self.algebra

    def terms_at(self, i: int) -> list[tuple]:
        """The window terms of member i, from its base-|R| digits."""
        size, w = self.twist.ring.size, len(self.window)
        return [(j, c) for j in range(w) if (c := i // size ** (w - 1 - j) % size)]

    def terms(self) -> list[list[tuple]]:
        """Every member's window terms, in universe order, listed once; read by
        `killers`, `lift_universe` and the extraction and G-Armendariz reruns."""
        return self.once("terms", self.algebra.universe)

    def series(self, i: int) -> Series:
        return self.algebra.series(self.terms_at(i))

    def terms_of(self, s: Series) -> list[tuple]:
        if s.twist is not self.twist:
            raise TwistMismatch("series must share the universe's twist")
        position = {x: i for i, x in enumerate(self.window)}
        if not s.terms.keys() <= position.keys():
            raise PreconditionFail(f"{s!r} has support outside the universe window")
        return sorted((position[x], c) for x, c in s.terms.items())

    def all_series(self) -> list[Series]:
        return [self.series(i) for i in range(self.count)]

    def _box(self, digits: Sequence[Sequence[int]]) -> frozenset[int]:
        """The members whose coefficient at each window position j lies in
        digits[j]: one base-|R| digit from digits[j] per position."""
        size = self.twist.ring.size
        return frozenset(functools.reduce(
            lambda found, values: [i * size + c for i in found for c in values], digits, [0]))

    def with_coeffs_in(self, coeffs: Iterable[int]) -> frozenset[int]:
        """The members whose coefficients all lie in `coeffs` or are 0."""
        values = sorted({0, *coeffs})
        return self.once(("with_coeffs_in", *values),
                         lambda: self._box([values] * len(self.window)))

    def _cosets(self, members: frozenset[int]) -> tuple[list[int], list[list[int]], bytes]:
        """(rep, add, neg) for the cosets of `members` in the ring's additive
        group: rep[r] is the least element of r + members, and add and neg
        are the group operations on those representatives, neg as a
        bytes.translate table. Kept per member set; a set that is not an
        additive subgroup raises ValueError."""
        def build():
            ring_add = self.twist.ring.add_table
            if 0 not in members or any(ring_add[a][b] not in members
                                       for a in members for b in members):
                raise ValueError(f"members {sorted(members)} are not an additive subgroup")
            rep = [min(row[m] for m in members) for row in ring_add]
            add = [[rep[c] for c in row] for row in ring_add]
            neg = bytes(rep[a] for a in self.algebra.neg)
            return rep, add, neg + bytes(256 - len(neg))
        return self.once(("cosets", members), build)

    def quotient(self, factors: Iterable[list[tuple]], members, side: str) -> frozenset[int]:
        """The members u such that every coefficient of s*u (side "right") or
        u*s (side "left") lies in `members`, an additive subgroup, for every
        factor s, a list of window terms.

        The window product is additive in u, so this is the kernel of the
        map u -> sum over positions j of phi_j(u_j) into the cosets of
        `members`, where phi_j(b) lists the coefficients of every factor's
        product with the single term b X^(x_j), each reduced to its coset's
        representative. The w*|R| values of phi are tabulated, the sums over
        the first half of the positions are bucketed, and each sum over the
        second half is matched with the bucket of its negative: |R|^(w/2)
        vector sums where a filter multiplies every series by every factor.
        That filter is the tests' oracle, universe_quotient_scan in
        tests/oracles.py. A `members` that is not an additive subgroup
        raises ValueError, as the kernel would not be the set asked for.
        """
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', not {side!r}")
        rep, add, neg = self._cosets(frozenset(members))
        mul, size = self.checked_algebra().multiply, self.twist.ring.size
        factors = list(factors)
        # phi[j][b], as the bytes of its coefficients (ring elements < 256)
        phi = [[bytes(rep[c] for s in factors
                      for c in (mul(s, [(j, b)]) if side == "right" else mul([(j, b)], s)))
                 for b in range(size)] for j in range(len(self.window))]

        def sums(positions):
            """(index, sum of phi) for every coefficient choice at `positions`,
            the index counting the choices in universe order."""
            out = [(0, phi[0][0])]  # phi_j(0) = 0
            for j in positions:
                out = [(index * size + b, bytes(map(getitem, map(add.__getitem__, v), step)))
                       for index, v in out for b, step in enumerate(phi[j])]
            return out

        w = len(self.window)
        half, scale = w // 2, size ** (w - w // 2)
        buckets: dict[bytes, list[int]] = {}
        for head, v in sums(range(half)):
            buckets.setdefault(v, []).append(head * scale)
        return frozenset(head + tail for tail, v in sums(range(half, w))
                         for head in buckets.get(v.translate(neg), ()))

    def annihilator(self, coeffs: Iterable[int], side: str) -> frozenset[int]:
        """The members u with u*s = 0 (side "left") or s*u = 0 (side "right")
        for every member s with coefficients in `coeffs`; one kernel per
        (coefficient set, side). The product is additive in s and every such
        s is a sum of single terms c*X^(x_i) with c in `coeffs`; a term of
        c1 + c2 is killed when the c1 and c2 terms are, so the terms whose c
        are greedy additive generators of `coeffs` decide it.

        For a fixed i, cancellation in the group sends the window's w
        exponents x to w distinct products x_i x (and x x_i), so each
        coefficient of c X^(x_i) * u is the one table entry
        term[i][c][j][u_j], and of u * c X^(x_i) the entry term[j][u_j][i][c].
        The kernel is therefore the box A_0 x ... x A_(w-1), A_j the b that
        every generator term sends to 0 at position j."""
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', not {side!r}")
        coeffs = frozenset(coeffs)

        def kernel():
            gens = list(greedy_generators(self.twist.ring.add_table, {0}, sorted(coeffs - {0})))
            term, size = self.checked_algebra().term, self.twist.ring.size
            positions = range(len(self.window))
            singles = [(i, c) for i in positions for c in gens]

            def killed_at(j):
                """A_j: the b that every generator term sends to 0 at position j."""
                if side == "right":  # term[i][c][j][b]: column b of the rows term[i][c][j]
                    columns = zip(range(size), *(term[i][c][j] for i, c in singles))
                    return [b for b, *column in columns if not any(column)]
                return [b for b, row in enumerate(term[j])  # term[j][b][i][c]
                        if not any([row[i][c] for i, c in singles])]
            return self._box([killed_at(j) for j in positions])
        return self.once(("annihilator", coeffs, side), kernel)

    def killers(self, hs: Sequence[list[tuple]]) -> list[list[int]]:
        """For each h, given as window terms, the nonzero members k with
        h*k = 0, ascending: one join of the distinct h with `terms`. An h
        whose leading coefficient b is left regular leaves the lead-term
        prune only k = 0: b sigma(c) tau != 0."""
        distinct = list(dict.fromkeys(map(tuple, hs)))
        found: dict[tuple, list[int]] = {h: [] for h in distinct}
        for p, q, _ in self.checked_algebra().join(distinct, {0}, self.terms()):
            if q:  # member 0 is the zero series
                found[distinct[p]].append(q)
        return [found[tuple(h)] for h in hs]

    def describe(self) -> dict:
        return {"window": [self.twist.group.to_json(x) for x in self.window],
                "series": self.count}


# --- hypotheses: one definition per result, each raising a PreconditionFail ---


def _checked_once(check):
    """Keep a hypothesis check that held in its ring's memo under (check, *args),
    so a suite run makes it once; one that fails stores nothing and raises on every call."""
    @functools.wraps(check)
    def once(*args):
        args[0].ring.once((check, *args), lambda: check(*args))
    return once


@_checked_once
def require_sigma_compatible(twist: TwistSystem):
    """ab = 0 <-> a*sigma(b) = 0 in the base ring, for every sigma of the twist."""
    compat = is_sigma_compatible_ring(twist.ring, twist.sigma_generators())
    if not compat.verdict:
        raise NotSigmaCompatible(f"{twist.ring.label} is not sigma-compatible (witness {compat.witness})")


@_checked_once
def require_fusible(twist: TwistSystem):
    """Prop 3.2: a left fusible, sigma-compatible base ring and a normalized twist."""
    fus = is_left_fusible(twist.ring)
    if not fus.verdict:
        raise NotFusibleRing(f"{twist.ring.label} is not left fusible (witness {fus.witness})")
    require_sigma_compatible(twist)
    if not twist.normalized:
        raise NotNormalized("twist is not normalized")


@_checked_once
def require_zip(U: IdealSet, twist: TwistSystem):
    """Thm 5.4: U a semiprime, sigma-compatible two-sided ideal and a normalized twist."""
    if U.kind != "twosided":
        raise PreconditionFail("U must be two-sided")
    semi = is_semiprime_ideal(U)
    if not semi.ok:
        raise PreconditionFail(f"U is not semiprime (witness {semi.witness})")
    compat = is_sigma_compatible_ideal(U, twist.sigma_generators())
    if not compat.ok:
        raise NotSigmaCompatible(f"U is not sigma-compatible (witness {compat.witness})")
    if not twist.normalized:
        raise NotNormalized("twist is not normalized")


@_checked_once
def require_sa(twist: TwistSystem, universe: TruncatedUniverse):
    """Thm 4.5: a normalized twist over an SA base ring that passes the
    G-Armendariz check on every pair of the universe's members."""
    if not twist.normalized:
        raise NotNormalized("twist is not normalized")
    sa = is_SA(twist.ring)
    if not sa.verdict:
        raise PreconditionFail(f"base ring is not SA: {sa.witness}")
    garm = is_G_armendariz(universe, len(universe.window))
    if not garm.verdict:
        raise PreconditionFail(f"base ring fails the bounded G-Armendariz check: {garm.witness}")


# --- fusible decomposition lift ----------------------------------------------


@dataclass
class FusibleLift:
    """f = g + h with g a left zero-divisor of the series ring (killed by
    embed(d)) and h left regular on the whole truncated universe."""

    g: Series
    h: Series
    s0: Any
    a: int
    b: int
    d: int
    sum_ok: bool
    g_annihilated_ok: bool
    leading_regular_ok: bool
    h_regular_ok: bool
    h_regular_witness: Series | None = None

    @property
    def ok(self) -> bool:
        return (self.sum_ok and self.g_annihilated_ok
                and self.leading_regular_ok and self.h_regular_ok)

    def to_json(self) -> dict:
        grp = self.g.twist.group
        out = {"g": series_to_json(self.g), "h": series_to_json(self.h),
               "s0": grp.to_json(self.s0), "a": self.a, "b": self.b, "d": self.d,
               "sum_ok": self.sum_ok, "g_annihilated_ok": self.g_annihilated_ok,
               "leading_regular_ok": self.leading_regular_ok,
               "h_regular_ok": self.h_regular_ok}
        if self.h_regular_witness is not None:
            out["h_regular_witness"] = series_to_json(self.h_regular_witness)
        return out


def lift_universe(universe: TruncatedUniverse,
                  max_support: int) -> tuple[int, list[tuple[Series, FusibleLift]]]:
    """Lift every nonzero member with at most `max_support` terms: (the
    number lifted, the failing (f, lift) pairs in universe order).

    The window is sorted, so a member's first term is at s0. Its
    coefficient c there splits as c = a + b with a a left zero-divisor and
    b left regular; g is a X^s0 and h the member with b at s0. The split,
    the d with a*d = 0, sum_ok (a + b = c, so f = g + h) and
    leading_regular_ok are decided once per c, g_annihilated_ok (g *
    embed(d) = 0, by series_mul) once per (s0, a, d), and h_regular_ok,
    that no nonzero k in the universe has h*k = 0, by one `killers` join of
    the distinct h. Only a failing lift is built as Series; its witness is
    the least killer. The tests' oracle lifts one Series at a time:
    `lift_fusible_decompositions` in tests/oracles.py.
    """
    twist, win = universe.twist, universe.window
    ring = twist.ring
    require_fusible(twist)
    regular = zero_divisor_sets(ring).left_regular

    @functools.cache
    def annihilated(s0, a, d):
        return series_mul(series_make(twist, [(win[s0], a)]), embed_scalar(twist, d)).is_zero

    splits: dict[int, tuple] = {}  # c -> (a, b, d, sum_ok, leading_ok)
    lifted, hs = [], []
    for m, terms in enumerate(universe.terms()):
        if terms and len(terms) <= max_support:
            s0, c = terms[0]
            parts = splits.get(c)
            if parts is None:
                a, b = fusible_decompositions(ring, c)[0]
                d = next(r for r in range(1, ring.size) if ring.mul_table[a][r] == 0)
                parts = splits[c] = a, b, d, ring.add(a, b) == c, b in regular
            b = parts[1]
            lifted.append((m, s0, parts))
            hs.append([(s0, b), *terms[1:]] if b else terms[1:])
    if not lifted:
        raise PreconditionFail(f"max_support {max_support} over {len(win)} exponents "
                               "leaves no nonzero series to lift")
    failures = []
    for (m, s0, (a, b, d, sum_ok, leading_ok)), h, killers in zip(lifted, hs,
                                                                  universe.killers(hs)):
        g_ok = annihilated(s0, a, d)
        if not (sum_ok and g_ok and leading_ok and not killers):
            lift = FusibleLift(series_make(twist, [(win[s0], a)]), universe.algebra.series(h),
                               win[s0], a, b, d, sum_ok, g_ok, leading_ok, not killers,
                               universe.series(killers[0]) if killers else None)
            failures.append((universe.series(m), lift))
    return len(lifted), failures


# --- annihilator lifting (IN side) -------------------------------------------


def lifted_annihilator_check(I: IdealSet, J: IdealSet, side: str,
                             universe: TruncatedUniverse) -> PropertyReport:
    """Check the three coefficientwise annihilator identities on the universe.

    (1) the I-and-J coefficient series are exactly the (I n J) ones;
    (2) a series annihilates the I-coefficient series on the chosen side
        iff its own coefficients lie in the matching base annihilator of I
        (and likewise for J);
    (3) the base-ring sum identity l(I n J) = l(I) + l(J) and its
        universe-level counterpart agree for this pair.
    """
    twist = universe.twist
    ring = twist.ring
    if I.ring is not ring or J.ring is not ring:
        raise RingMismatch("ideals must live in the universe's coefficient ring")
    require_sigma_compatible(twist)
    witnesses = {}
    sets = (I.members & J.members, I.members, J.members)
    # identities (1) and (3) read no side: decided once per (I, J)
    stray, base_holds, univ_holds = universe.once(("side-free", *sets), lambda: (
        (universe.with_coeffs_in(I.members) & universe.with_coeffs_in(J.members))
        ^ universe.with_coeffs_in(I.members & J.members),
        is_subgroup_sum(*(annihilator(ring, m, "left") for m in sets)),
        is_subgroup_sum(*(universe.annihilator(m, "left") for m in sets))))
    id1 = not stray
    if not id1:
        witnesses["membership-intersection"] = series_to_json(universe.series(min(stray)))

    id2 = True
    for name, ideal in (("I", I), ("J", J)):
        expected = universe.with_coeffs_in(annihilator(ring, ideal.members, side))
        actual = universe.annihilator(ideal.members, side)
        if actual != expected:
            id2 = False
            sample = min(actual ^ expected)
            witnesses[f"annihilator-lift-{name}"] = series_to_json(universe.series(sample))

    id3 = base_holds == univ_holds
    if not id3:
        witnesses["sum-identity-agreement"] = {"base": base_holds, "universe": univ_holds}

    verdict = id1 and id2 and id3
    return PropertyReport(
        "lifted-annihilator", verdict,
        witness=witnesses or None,
        certificate={"I": I.sorted_members(), "J": J.sorted_members(), "side": side,
                     "identities": {"membership-intersection": id1,
                                    "annihilator-lift": id2,
                                    "sum-identity-agreement": id3},
                     "base_sum_identity": base_holds,
                     "universe_sum_identity": univ_holds},
        bounds=universe.describe())


# --- SA transfer (content-ideal construction) ---------------------------------


def _contents(series_list: Iterable[Series]) -> set[int]:
    return set().union(*(s.content() for s in series_list))


def sa_transfer_witness(I_gens: Sequence[Series], J_gens: Sequence[Series],
                        universe: TruncatedUniverse) -> PropertyReport:
    """Build the base ideal K matching r(I0) + r(J0) from series contents and
    verify the annihilator sum identity on both levels.

    I0 and J0 are the right ideals generated by the generator contents; K is
    the first enumerated base ideal whose right annihilator is r(I0) + r(J0),
    looked up in the ring's table that is_SA reads, which files each
    two-sided K under r(K), so r(K) = r(I0) + r(J0) holds by construction;
    the universe-level identity compares the right annihilators of the
    coefficientwise series sets.
    """
    twist = universe.twist
    ring = twist.ring
    for s in itertools.chain(I_gens, J_gens):
        if s.twist is not twist:
            raise TwistMismatch("generator series must share the universe's twist")
    require_sa(twist, universe)
    k_by_annihilator = ideals_by_right_annihilator(ring)

    I0 = ideal_closure(ring, _contents(I_gens), "right")
    J0 = ideal_closure(ring, _contents(J_gens), "right")
    rI0 = annihilator(ring, I0.members)
    rJ0 = annihilator(ring, J0.members)
    target = subgroup_sum(ring, rI0, rJ0)
    K = k_by_annihilator.get(target)
    if K is None:
        return PropertyReport(
            "sa-transfer", False,
            witness={"I0": I0.sorted_members(), "J0": J0.sorted_members(),
                     "r_sum": sorted(target)},
            note="no-K: annihilator sum matches no ideal, contradicting the SA precondition",
            bounds=universe.describe())

    r_I = universe.annihilator(I0.members, "right")
    r_J = universe.annihilator(J0.members, "right")
    r_K = universe.annihilator(K.members, "right")
    universe_ok = is_subgroup_sum(r_K, r_I, r_J)
    return PropertyReport(
        "sa-transfer", universe_ok,
        witness=None if universe_ok else {"universe_ok": universe_ok},
        certificate={"I0": I0.sorted_members(), "J0": J0.sorted_members(),
                     "K": K.sorted_members(),
                     "r_I0": sorted(rI0), "r_J0": sorted(rJ0), "r_sum": sorted(target)},
        bounds=universe.describe())


# --- coefficient extraction (the series-to-base zip induction) ----------------


@dataclass
class TraceStep:
    w: Any
    pairs: list
    established: tuple
    multiplier: int
    ih_pairs: list = field(default_factory=list)
    check: str = "direct-eval-ok"

    def to_json(self, group) -> dict:
        return {"w": group.to_json(self.w),
                "pairs": [[group.to_json(u), group.to_json(v)] for u, v in self.pairs],
                "established": [[group.to_json(self.established[0]),
                                 group.to_json(self.established[1])]],
                "multiplier": self.multiplier,
                "check": self.check}


@dataclass
class DerivationTrace:
    f: Series
    g: Series
    U: IdealSet
    steps: list[TraceStep]
    conclusions: dict

    def to_json(self) -> dict:
        grp = self.f.twist.group
        return {"f": series_to_json(self.f), "g": series_to_json(self.g),
                "U": self.U.sorted_members(),
                "steps": [s.to_json(grp) for s in self.steps],
                "conclusions": [
                    {"u": grp.to_json(u), "v": grp.to_json(v), "product": t}
                    for (u, v), t in sorted(self.conclusions.items(), key=repr)]}


def coefficient_extraction(f: Series, g: Series, U: IdealSet) -> DerivationTrace:
    """Extract every product f(u)*sigma_u(g(v))*tau(u,v) into U from fg in U.

    Walks the products w in ascending order; at each w the pairs of X_w are
    peeled off front to back, multiplying the running remainder on the right
    by f(u_i), discharging later terms by the induction hypothesis, and
    concluding membership of the head term by semiprimeness. Every claim a
    step makes is re-verified by direct evaluation and a failure aborts via
    TraceMismatch. The finished conclusion set is checked against the
    brute-force oracle.
    """
    if f.twist is not g.twist:
        raise TwistMismatch("series belong to different twist systems")
    twist = f.twist
    grp = twist.group
    if U.ring is not twist.ring:
        raise RingMismatch("ideal must live in the series' coefficient ring")
    require_zip(U, twist)
    fg = series_mul(f, g)
    bad = [(w, c) for w, c in fg.sorted_terms() if c not in U.members]
    if bad:
        raise PreconditionFail(
            f"fg has coefficients outside U at {[(grp.to_json(w), c) for w, c in bad]}")
    return _extract(f, g, U, fg)


def _extract(f: Series, g: Series, U: IdealSet, fg: Series) -> DerivationTrace:
    """The derivation of coefficient_extraction, for a caller that has already
    checked its preconditions and computed fg (by any product), which every
    step is checked against: `_trace` over a window algebra compiled on the
    sorted union of the supports of f and g, whose tables are checked first."""
    window = sorted({*f.terms, *g.terms})
    alg = WindowAlgebra(f.twist, window)
    alg.check_tables()
    if not fg.terms.keys() <= set(alg.products):
        raise TraceMismatch("the product has a term at an exponent that no pair of supports reaches")
    position = {x: i for i, x in enumerate(window)}
    steps, established = _trace(alg, [(position[x], a) for x, a in f.terms.items()],
                                [(position[y], b) for y, b in g.terms.items()],
                                U, [fg.coeff(z) for z in alg.products])

    def exps(key):
        return window[key[0]], window[key[1]]

    return DerivationTrace(
        f, g, U,
        [TraceStep(alg.products[k], [exps(p) for p in pairs], exps(est), multiplier,
                   [exps(p) for p in ih]) for k, pairs, est, multiplier, ih in steps],
        {exps(key): t for key, t in established.items()})


def _trace(alg: WindowAlgebra, f: list[tuple], g: list[tuple], U: IdealSet,
           fg: list[int]) -> tuple[list[tuple], dict]:
    """The extraction derivation over window positions.

    f and g are window terms of `alg` and fg is their product's coefficient
    list over `alg.products`, as any product computed it. Walks the products
    in ascending order, reading each term f(x_i) sigma_x_i(g(x_j)) tau(x_i,
    x_j) from `alg.term` and checking every claim of every step; a failed
    claim raises TraceMismatch. Returns the steps, as (slot, pairs, (i, j),
    multiplier, induction-hypothesis pairs), and the conclusions {(i, j):
    term}, each already tested for membership in U by its step.

    The trace trusts `alg.term` and `alg.xw`: over tables that passed
    `check_tables`, every conclusion is a checked entry of `term` and the
    X_w lists cover f x g, so no conclusion is compared again.
    """
    grp, win, products = alg.twist.group, alg.window, alg.products
    members = U.members
    mul, add, neg, term = alg.twist.ring.mul_table, alg.add, alg.neg, alg.term
    fa, gb = dict(f), dict(g)
    steps: list[tuple] = []
    established: dict = {}

    def fail(msg, step=None):
        raise TraceMismatch(msg, step=step)

    def exps(key):
        return win[key[0]], win[key[1]]

    reached = {alg.slot[i][j] for i in fa for j in gb}
    if not reached.issuperset(k for k, c in enumerate(fg) if c):
        fail("the product has a term at an exponent that no pair of supports reaches")

    for k in sorted(reached):
        w = products[k]
        pairs = [(i, j) for i, j in alg.xw[k] if i in fa and j in gb]
        terms = [term[i][fa[i]][j][gb[j]] for i, j in pairs]
        remainder = 0
        for t in terms:
            remainder = add[remainder][t]
        if remainder != fg[k]:
            fail(f"sum over X_w disagrees with the product coefficient at w={grp.to_json(w)}")
        for n, (i, j) in enumerate(pairs):
            multiplier = fa[i]
            ih = []
            for m in range(n + 1, len(pairs)):
                key = (i, pairs[m][1])
                if key not in established:
                    fail(f"induction hypothesis pair {exps(key)} not yet established",
                         step=(w, n, m))
                if mul[terms[m]][multiplier] not in members:
                    fail(f"hypothesis term times multiplier left U at {exps(key)}", step=(w, n, m))
                ih.append(key)
            if remainder not in members:
                fail(f"running remainder left U at w={grp.to_json(w)}, i={n}", step=(w, n))
            if mul[remainder][multiplier] not in members:
                fail(f"remainder times multiplier left U at w={grp.to_json(w)}, i={n}", step=(w, n))
            if terms[n] not in members:
                fail(f"semiprime extraction failed: term at {exps((i, j))} is outside U",
                     step=(w, n))
            established[(i, j)] = terms[n]
            steps.append((k, pairs, (i, j), multiplier, ih))
            remainder = add[remainder][neg[terms[n]]]
        if remainder != 0:
            fail(f"peeling X_w left a nonzero remainder at w={grp.to_json(w)}")
    return steps, established


def extraction_scan(universe: TruncatedUniverse, U: IdealSet) -> tuple[int, int, str | None]:
    """thm5.4's extraction over every pair of universe series: (pairs
    decided, qualifying pairs, the failing trace's message or None).

    Runs over the class series mod U instead of the series themselves. With
    require_zip's U (two-sided, sigma_x(U) = U) every membership the join and
    the trace test, fg in U((G)), each term, remainder and multiple, has the
    same outcome for every lift of a class pair with the same supports, and
    the trace's skeleton depends only on the supports. So one trace per
    class pair decides all its lifts, and the counts are weighted.

    The universe's table check runs first, once per universe, and vouches
    for every term of every lift, traced or not; a failed check raises its
    TraceMismatch. A class trace that fails on checked tables reruns the
    exact scan over every lift pair, enumerated only then, which reports the
    first failing pair and its message.
    """
    alg = universe.checked_algebra()
    classes, weights = alg.classes(U.members)
    qualifying = 0
    try:
        for p, q, fg in alg.join(classes, U.members):
            if classes[p] and classes[q]:  # a zero factor leaves no X_w pair to trace
                _trace(alg, classes[p], classes[q], U, fg)
            qualifying += weights[p] * weights[q]
        return len(universe) ** 2, qualifying, None
    except TraceMismatch as exc:
        first = str(exc)
    lifts = universe.terms()
    qualifying = 0
    try:
        for p, q, fg in alg.join(lifts, U.members):
            qualifying += 1
            _trace(alg, lifts[p], lifts[q], U, fg)
    except TraceMismatch as exc:
        return p * len(lifts) + q + 1, qualifying, str(exc)
    return len(lifts) ** 2, qualifying, first


# --- series-level zip witness --------------------------------------------------


def series_zip_witness(X: Sequence[Series], U: IdealSet,
                       universe: TruncatedUniverse) -> PropertyReport:
    """Reduce a series-level quotient hypothesis to contents and back.

    Verifies (inside the universe) that the quotient by X is exactly the
    U-coefficient series, reduces to the base hypothesis (U:C_X) = U, finds
    the minimal content witness, forms the corresponding finite X0 and
    verifies the quotient by X0, with the extraction trace supplying the
    step-by-step justification and the universe's table check as the
    oracle for every term the trace reads.

    The extraction runs for every factor s of X0 and every h in the
    quotient, which is then the set of U-coefficient series, but traces
    one h per (factor, support of h): with require_zip's U (two-sided,
    sigma_x(U) = U) every term s(x) sigma_x(h(y)) tau(x, y), sum, remainder
    and multiple the trace tests lies in U for any h with U-coefficients,
    and the trace's skeleton depends only on the supports. The universe's
    table check, which its quotient kernel runs first, vouches for the terms
    the quotients read and for those of the h it does not trace; a failed
    check raises its TraceMismatch. On
    checked tables the first failing h is the first of its support, so a
    failed trace raises the message the per-h extraction would.
    `extractions` counts every (h, factor) pair.
    """
    twist = universe.twist
    ring = twist.ring
    if U.ring is not ring:
        raise RingMismatch("ideal must live in the universe's coefficient ring")
    X = list(X)
    if not X:
        raise PreconditionFail("X must be a nonempty set of series")
    for s in X:
        if s.twist is not twist:
            raise TwistMismatch("members of X must share the universe's twist")
    require_zip(U, twist)
    if all(s.content() <= U.members for s in X):
        raise PreconditionFail("X lies inside the U-coefficient series")
    if not universe.has_identity:
        raise PreconditionFail("universe window must contain the group identity")
    u_series = universe.with_coeffs_in(U.members)
    q = universe.quotient([universe.terms_of(s) for s in X], U.members, "right")
    if q != u_series:
        raise HypothesisFails(
            "(U((G)):X) differs from the U-coefficient series in the universe",
            witness=series_to_json(universe.series(min(q ^ u_series))))

    c_x = sorted(_contents(X))
    # require_zip has found U sigma-compatible
    base_ok = sigma_u_zip_witness(ring, U, c_x, True)
    if base_ok.verdict is not True:
        # cannot happen when the universe-level hypothesis held; still reported
        return PropertyReport("series-zip", False,
                              witness={"base": base_ok.to_json()},
                              bounds=universe.describe())
    c_x0 = base_ok.certificate["minimal_witness"]
    x0 = [s for s in X if any(c in c_x0 for c in s.content())]

    factors = [universe.terms_of(s) for s in x0]
    quotient0 = universe.quotient(factors, U.members, "right")
    reduced_ok = quotient0 == u_series

    # the induction runs for an X0 that reduces the quotient; one that
    # does not is the False verdict below, not a failed derivation
    extractions = 0
    if reduced_ok:
        _extract_by_support(universe, factors, U)
        extractions = len(quotient0) * len(factors)

    verdict = reduced_ok
    return PropertyReport(
        "series-zip", verdict,
        witness=None if verdict else {"quotient0_size": len(quotient0),
                                      "expected_size": len(u_series)},
        certificate={"C_X": c_x, "C_X0": list(c_x0),
                     "X0": [series_to_json(s) for s in x0],
                     "extractions": extractions},
        bounds=universe.describe())


def _extract_by_support(universe: TruncatedUniverse, factors: list[list[tuple]], U: IdealSet):
    """series_zip_witness's extraction over the tables it has checked, once
    its quotient is the U-coefficient series: for the first h of each
    support in universe order and every factor s, in that order, a trace of
    s*h, then the content conclusion the induction is for, that h has
    U-coefficients. The first failure raises TraceMismatch.

    The first member of a support holds U's least nonzero element at each
    of its positions, so it is built without a member being decoded. The
    first members of two supports compare as their supports do, read as
    binary numbers with the first window position most significant, so
    the supports are walked in that order. U = {0} leaves only the zero h,
    which has no X_w pair to trace."""
    alg, grp = universe.algebra, universe.twist.group
    w = len(universe.window)
    least = min(U.members - {0}, default=None)
    if least is None:
        return
    for support in range(1, 1 << w):
        h = [(j, least) for j in range(w) if support >> (w - 1 - j) & 1]
        for s in factors:
            # require_zip and h in the quotient are coefficient_extraction's checks
            _trace(alg, s, h, U, alg.multiply(s, h))
            for i, c in h:
                if c not in U.members:
                    raise TraceMismatch(
                        f"extraction finished but h({grp.to_json(universe.window[i])}) "
                        "is outside U")
