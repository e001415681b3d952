"""Exhaustive decision procedures for base-ring properties.

Every checker returns a PropertyReport whose witness (on failure) or
certificate (on success) re-verifies by direct evaluation of the defining
condition; checkers re-run that evaluation themselves before returning.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from .errors import TraceMismatch, ZeroElement
from .ideals import (IdealSet, annihilator, close_under_inverses, enumerate_ideals,
                     ideals_by_right_annihilator, is_sigma_compatible_ideal, is_subgroup_sum,
                     keep_table, quotient_ideal, quotient_masks, right_annihilators, row_mask,
                     set_sum, singleton_quotient_masks, subgroup_sum)
from .rings import FiniteRing, RingAutomorphism
from .series import series_mul, series_to_json

if TYPE_CHECKING:
    from .transfer import TruncatedUniverse

DEFAULT_WITNESS_CAP = 1 << 12  # subsets of R decided one by one while 2^|R| is at most this
_ZERO = frozenset({0})


@dataclass
class PropertyReport:
    prop: str
    verdict: bool | None
    witness: Any = None
    certificate: Any = None
    bounds: dict | None = None
    note: str | None = None
    elapsed: float = 0.0

    def to_json(self, include_timing: bool = False) -> dict:
        out = {"property": self.prop, "verdict": self.verdict}
        for key in ("witness", "certificate", "bounds", "note"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if include_timing:
            out["elapsed"] = self.elapsed
        return out


@dataclass(frozen=True)
class ZeroDivisorSets:
    left: frozenset[int]
    left_regular: frozenset[int]
    right: frozenset[int]
    right_regular: frozenset[int]


def zero_divisor_sets(ring: FiniteRing) -> ZeroDivisorSets:
    """Left/right zero-divisors and their complements; 0 always divides.
    a divides on the left iff byte row a holds a 0 after position 0, on
    the right iff its byte column does. Scanned once per ring, like its units;
    SizeCapExceeded above DEFAULT_SIZE_CAP elements."""
    def scan():
        rows = ring.byte_rows()
        left = frozenset(a for a, row in enumerate(rows.mul) if row.find(0, 1) >= 0)
        right = frozenset(a for a, col in enumerate(rows.mul_t) if col.find(0, 1) >= 0)
        all_set = frozenset(ring.elements())
        return ZeroDivisorSets(left, all_set - left, right, all_set - right)
    return ring.once("zero divisors", scan)


def fusible_decompositions(ring: FiniteRing, a: int) -> list[tuple[int, int]]:
    """All (z, r) with z a left zero-divisor, r not one, z + r = a."""
    if a == 0:
        raise ZeroElement("fusible decompositions are defined for nonzero elements")
    zd = zero_divisor_sets(ring)
    out = []
    for z in sorted(zd.left):
        r = ring.sub(a, z)
        if r in zd.left_regular:
            out.append((z, r))
    return out


def is_left_fusible(ring: FiniteRing) -> PropertyReport:
    """Every nonzero element splits as left zero-divisor + left regular."""
    zd = zero_divisor_sets(ring)
    reachable = set_sum(ring, zd.left, zd.left_regular)
    witness = None
    for a in range(1, ring.size):
        if a not in reachable:
            witness = a
            break
    # direct re-verification: the witness has no split, and on a True
    # verdict every nonzero element has one
    splits = [] if witness is None else fusible_decompositions(ring, witness)
    if splits:
        raise TraceMismatch(f"set_sum leaves {witness} out of the left zero-divisors plus "
                            f"the left regular elements, but fusible_decompositions "
                            f"splits it as {splits[0]}")
    if witness is None:
        for a in range(1, ring.size):
            if not any(ring.sub(a, z) in zd.left_regular for z in zd.left):
                raise TraceMismatch(f"set_sum reaches {a} as a left zero-divisor plus a left "
                                    f"regular element, but no left zero-divisor z leaves "
                                    f"{a} - z left regular")
    return PropertyReport(
        "left-fusible", witness is None, witness=witness,
        certificate=None if witness is not None else
        {"left_divisors": sorted(zd.left), "left_regular": sorted(zd.left_regular)})


def is_sigma_compatible_ring(ring: FiniteRing,
                             sigma_family: Iterable[RingAutomorphism]) -> PropertyReport:
    """ab = 0 <-> a*sigma(b) = 0 for every generator and inverse: the ideal
    check for U = {0}."""
    fam = close_under_inverses(sigma_family)
    compat = is_sigma_compatible_ideal(IdealSet(ring, frozenset({0}), "twosided"), fam)
    witness = None
    if not compat.ok:
        a, b, idx = compat.witness
        s = fam[idx]  # closing a closed family keeps its order, so idx indexes fam
        witness = {"a": a, "b": b, "automorphism": list(s.map),
                   "ab": ring.mul_table[a][b], "a_sigma_b": ring.mul_table[a][s.map[b]]}
    return PropertyReport("sigma-compatible", compat.ok, witness=witness)


def is_right_nonsingular(ring: FiniteRing) -> PropertyReport:
    """Sing(R) = {x | r(x) essential} must be {0}."""
    right_ideals = enumerate_ideals(ring, "right")
    nonzero_ideals = [i.members for i in right_ideals if i.members != {0}]
    essential = set()
    for ideal in right_ideals:
        if all(ideal.members & m != {0} for m in nonzero_ideals):
            essential.add(ideal.members)
    sing = sorted(a for a in ring.elements()
                  if annihilator(ring, {a}) in essential)
    verdict = sing == [0]
    return PropertyReport(
        "right-nonsingular", verdict,
        witness=None if verdict else [a for a in sing if a != 0],
        certificate={"singular": sing,
                     "essential_right_ideals": sorted(sorted(m) for m in essential)})


def is_IN(ring: FiniteRing) -> PropertyReport:
    """l(I n J) = l(I) + l(J) over all pairs of right ideals. Each meet is a
    right ideal, so its left annihilator is in the table already, and every
    set here is a subgroup, so the identity is decided without a sum."""
    right_ideals = enumerate_ideals(ring, "right")
    lann = {i.members: annihilator(ring, i.members, "left") for i in right_ideals}
    witness = None
    for I in right_ideals:
        for J in right_ideals:
            meet = lann[I.members & J.members]
            if not is_subgroup_sum(meet, lann[I.members], lann[J.members]):
                witness = {"I": I.sorted_members(), "J": J.sorted_members(),
                           "l_meet": sorted(meet),
                           "l_sum": sorted(subgroup_sum(ring, lann[I.members],
                                                        lann[J.members]))}
                break
        if witness:
            break
    return PropertyReport(
        "IN", witness is None, witness=witness,
        certificate=None if witness else {"right_ideals": len(right_ideals)})


def is_SA(ring: FiniteRing) -> PropertyReport:
    """r(I) + r(J) = r(K) solvable in K for every pair of two-sided ideals.
    The sum is symmetric, so each one is formed, and its K looked up and
    checked, once per unordered pair of annihilators. The certificate lists
    each ideal once, in lattice order, and K[i][j] is the index of the K
    filed for (ideals[i], ideals[j])."""
    rann = right_annihilators(ring)
    by_annihilator = ideals_by_right_annihilator(ring)
    index = {K: k for k, K in enumerate(rann)}
    listed = [K.sorted_members() for K in rann]
    solved: dict[frozenset, int] = {}
    witness = None
    table = []
    for i, rI in enumerate(rann.values()):
        row = []
        for j, rJ in enumerate(rann.values()):
            pair = frozenset((rI, rJ))
            k = solved.get(pair)
            if k is None:
                target = subgroup_sum(ring, rI, rJ)
                K = by_annihilator.get(target)
                if K is None:
                    direct = set_sum(ring, rI, rJ)
                    if direct != target:  # the witness re-verifies
                        raise TraceMismatch(f"subgroup_sum gives r(I) + r(J) = {sorted(target)} "
                                            f"for I = {listed[i]} and J = {listed[j]}, "
                                            f"but set_sum gives {sorted(direct)}")
                    witness = {"I": listed[i], "J": listed[j], "r_sum": sorted(target)}
                    break
                if rann[K] != target:  # certificate re-verifies
                    raise TraceMismatch(f"K = {K.sorted_members()} is filed under r(I) + r(J) = "
                                        f"{sorted(target)} for I = {listed[i]} and "
                                        f"J = {listed[j]}, but r(K) = {sorted(rann[K])}")
                solved[pair] = k = index[K]
            row.append(k)
        if witness:
            break
        table.append(row)
    return PropertyReport(
        "SA", witness is None, witness=witness,
        certificate=None if witness else {"ideals": listed, "K": table})


def is_G_armendariz(universe: TruncatedUniverse, max_support: int) -> PropertyReport:
    """fg = 0 forces all coefficient products to vanish, on a bounded fragment:
    every pair of the universe's members with at most `max_support` terms.

    This is an enumerative check of the fragment only, never a proof of the
    unbounded property; the report carries its bounds. Pairs come from the
    window join (WindowAlgebra.join with U = {0}) over the universe's
    checked tables, so a pair whose leading or trailing term is nonzero is
    decided without its product being built; pairs_checked counts those
    pruned pairs too.

    The join runs over orbit representatives (WindowAlgebra.representatives):
    f up to multiplying its coefficients on the left by a unit u, g up to
    multiplying them on the right by a central unit v that every sigma
    generator fixes. Then (uf)(gv) has the coefficients u (fg)_z v, as
    sigma_x(b v) = sigma_x(b) v and v commutes with tau(x, y), and
    (u a)(b v) = u (ab) v, so fg = 0 and ab = 0 hold for the whole orbit
    pair or for none of it, and a representative pair counts
    |orbit f| * |orbit g| zero products; each side's sizes must sum to the
    fragment's size, or TraceMismatch is raised. When both sides act by the
    same maps (every unit central and fixed by sigma), the left walk serves
    the right side too. If a representative pair has a nonzero a_i b_j,
    the exact join over every pair of `universe.terms()` runs instead,
    and reports the first witness in f-major order with the pairs checked
    and zero products seen up to it. A witness pair is multiplied again
    with series_mul before the verdict False is reported: a nonzero
    product, or a zero a_i b_j, raises TraceMismatch. So does a True
    verdict whose single-term zero products, weighted, miscount the
    twist's zero terms.
    """
    twist, exps = universe.twist, universe.window
    ring, grp = twist.ring, twist.group
    alg = universe.checked_algebra()
    mul = ring.mul_table

    def scan(fs, f_sizes, gs, g_sizes):
        """(weighted zero products, weighted single-term zero products, the
        first pair with a nonzero a_i b_j as (p, q, i, j, a_i b_j) or None)."""
        zero = single = 0
        for p, q, _ in alg.join(fs, {0}, gs):
            f, g = fs[p], gs[q]
            weight = f_sizes[p] * g_sizes[q]
            zero += weight
            single += weight if len(f) == len(g) == 1 else 0
            hit = next(((p, q, i, j, mul[a][b]) for i, a in f for j, b in g
                        if mul[a][b] != 0), None)
            if hit is not None:
                return zero, single, hit
        return zero, single, None

    count = sum(math.comb(len(exps), s) * (ring.size - 1) ** s for s in range(max_support + 1))
    orbits = {"left": alg.representatives("left", max_support)}
    orbits["right"] = (orbits["left"] if alg.unit_maps("right") == alg.unit_maps("left")
                       else alg.representatives("right", max_support))
    for side, (_, sizes) in orbits.items():
        if sum(sizes) != count:
            raise TraceMismatch(f"G-Armendariz {side} orbit sizes sum to {sum(sizes)}, but "
                                f"{count} series have at most {max_support} terms")
    zero_products, single_terms, hit = scan(*orbits["left"], *orbits["right"])
    if hit is not None:
        fragment = [terms for terms in universe.terms() if len(terms) <= max_support]
        ones = [1] * len(fragment)
        zero_products, single_terms, hit = scan(fragment, ones, fragment, ones)
    witness = None
    pairs_checked = count * count
    if hit is not None:
        p, q, i, j, product = hit
        fs, gs = alg.series(fragment[p]), alg.series(fragment[q])
        x, y = alg.window[i], alg.window[j]
        fg, ab = series_mul(fs, gs), ring.mul(fs.coeff(x), gs.coeff(y))
        if not fg.is_zero or ab == 0:
            raise TraceMismatch(f"G-Armendariz witness f = {fs}, g = {gs} at x = "
                                f"{grp.to_json(x)}, y = {grp.to_json(y)} does not re-check: "
                                f"series_mul gives f*g = {fg} and f(x)g(y) = {ab}")
        witness = {"f": series_to_json(fs), "g": series_to_json(gs),
                   "x": grp.to_json(x), "y": grp.to_json(y), "product": product}
        pairs_checked = p * len(fragment) + q + 1
    if witness is None and max_support >= 1:
        nonzero, vanishing = range(1, ring.size), 0
        for x, y in itertools.product(exps, repeat=2):
            sig, t = twist.sigma_at(x).map, twist.tau_at(x, y)
            vanishing += sum(mul[mul[a][sig[b]]][t] == 0 for a in nonzero for b in nonzero)
        if single_terms != vanishing:
            raise TraceMismatch(f"G-Armendariz join yielded {single_terms} single-term pairs "
                                f"with f*g = 0, but {vanishing} products a*sigma_x(b)*tau(x, y) "
                                "with a, b nonzero vanish")
    bounds = {"max_support": max_support,
              "exponents": [grp.to_json(x) for x in exps],
              "pairs_checked": pairs_checked, "zero_products_seen": zero_products}
    return PropertyReport(
        "G-armendariz", witness is None, witness=witness, bounds=bounds,
        note="verdict certified for the bounded fragment only")


# --- relative-zip witnesses --------------------------------------------------


def _minimal_meet(xs: list[int], masks, accepts) -> tuple[int, ...] | None:
    """First subset Y of the sorted pool xs, in ascending size then
    lexicographic order, whose members' masks AND to a mask that `accepts`
    (the empty Y meets to -1, every bit set)."""
    for size in range(len(xs) + 1):
        for combo in itertools.combinations(xs, size):
            meet = -1
            for y in combo:
                meet &= masks[y]
            if accepts(meet):
                return combo
    return None


def _subset_meets(masks: Sequence[int]) -> list[int]:
    """The AND of the masks of every subset X of their positions, indexed
    by X's bitmask (-1 for the empty X). The list doubles with each
    position i: the new half is the old one with i added."""
    meets = [-1]
    for mask in masks:
        meets += [m & mask for m in meets]
    return meets


def _minimal_subsets(meets: list[int], accepts) -> list[int | None]:
    """For every subset X, indexed by its bitmask, the first subset Y of X
    in ascending size then lexicographic order whose meet `accepts`, as a
    bitmask, or None: `_minimal_meet(_bits(X), masks, accepts)` for every X
    at once, in O(n * 2^n) for n positions.

    A set's rank orders sets by size, then by the least member at which
    they differ: adding position i adds 2^n (one member more) less
    2^(n-1-i) (a smaller i sorts first). best[X] starts as X's own rank if
    its meet accepts and becomes the least over X's accepting subsets one
    position at a time, best[X] = min(best[X], best[X without i]) for every
    X holding i. The top position is taken as the upper half of the list
    against the lower; evens then odds rotate the next position to the top,
    and n rotations restore the order."""
    n = len(meets).bit_length() - 1
    rank = [0]
    for i in range(n):
        step = (1 << n) - (1 << (n - 1 - i))
        rank += [r + step for r in rank]
    none = (n + 1) << n  # above every rank
    best = [r if accepts(m) else none for r, m in zip(rank, meets)]
    half = len(best) >> 1
    for _ in range(n):
        low = best[:half]
        best = low + [a if a < b else b for a, b in zip(best[half:], low)]
        best = best[::2] + best[1::2]
    subset = dict(zip(rank, range(len(rank))))
    return [subset.get(r) for r in best]


# a pool decision: one of these, or the minimal Y as a bitmask
NOT_APPLICABLE, HYPOTHESIS_FAILS = -2, -1


def _pool_decisions(outside: int, hypothesis: list[int], meets: list[int],
                    accepts) -> list[int] | None:
    """A zip core's decision for every nonempty subset X of the ring, in
    mask order, from subset meets: NOT_APPLICABLE for X with no element in
    `outside`, HYPOTHESIS_FAILS when X's `hypothesis` meet is not accepted,
    else X's minimal Y over `meets`. None if some such X has no Y, where
    the core's per-X search raises."""
    best = _minimal_subsets(meets, accepts)
    decisions = [NOT_APPLICABLE if not x & outside else best[x] if accepts(h)
                 else HYPOTHESIS_FAILS for x, h in enumerate(hypothesis)][1:]
    return None if None in decisions else decisions


def _bits(mask: int) -> list[int]:
    """The positions set in a mask of ring elements, ascending."""
    return [a for a in range(mask.bit_length()) if mask >> a & 1]


def _sigma_u_zip(U: IdealSet, xs: list[int]) -> tuple[str, tuple[int, ...] | None]:
    """sigma_u_zip_witness's decision for a sorted X: ("not_applicable",
    None), ("hypothesis_fails", None) or ("ok", the minimal Y). U's mask and
    the singleton quotient masks are read from the ring's memo, once per
    (ring, U)."""
    if U.members.issuperset(xs):
        return "not_applicable", None
    if quotient_ideal(U, xs) != U.members:
        return "hypothesis_fails", None
    u_mask, single = _sigma_u_masks(U)
    minimal = _minimal_meet(xs, single, u_mask.__eq__)
    if minimal is None:
        raise TraceMismatch(f"(U:X) = U for U = {U.sorted_members()} and X = {xs}, "
                            "but no subset Y of X has (U:Y) = U on the singleton quotient masks")
    # Y = X was checked by the hypothesis scan already
    if len(minimal) < len(xs) and quotient_ideal(U, minimal) != U.members:
        raise TraceMismatch(f"the singleton quotient masks give (U:Y) = U for "
                            f"U = {U.sorted_members()}, X = {xs} and Y = {list(minimal)}, "
                            "but quotient_ideal finds (U:Y) != U")
    return "ok", minimal


def _sigma_u_masks(U: IdealSet) -> tuple[int, tuple[int, ...]]:
    """U's mask and the singleton quotient masks, once per (ring, U)."""
    return U.ring.once(("sigma-U-zip masks", U.members), lambda: (
        sum(1 << u for u in U.members), singleton_quotient_masks(U)))


def _sigma_u_zip_pool(U: IdealSet) -> list[int] | None:
    """`_sigma_u_zip`'s decision for every nonempty subset X of the ring, in
    mask order, as a pool decision; None where `_sigma_u_zip` would raise
    for some X, so the caller runs it. The hypothesis meets are ANDs of
    quotient_ideal's own row masks, and the minimal Y are searched on the
    singleton quotient masks; each distinct Y other than its X is checked
    again, once, with quotient_ideal."""
    ring = U.ring
    quotients = quotient_masks(U)
    # quotient_ideal stops once at most bit 0 is left: its meets are these
    # ANDs only while every mask keeps bit 0, as x*0 = 0 in U makes it
    if not all(m & 1 for m in quotients):
        return None
    u_mask, single = _sigma_u_masks(U)
    outside = ((1 << ring.size) - 1) & ~u_mask
    decisions = _pool_decisions(outside, _subset_meets(quotients), _subset_meets(single),
                                u_mask.__eq__)
    if decisions is None:
        return None
    chosen = {y for x, y in enumerate(decisions, 1) if y >= 0 and y != x}
    if any(quotient_ideal(U, _bits(y)) != U.members for y in chosen):
        return None
    return decisions


def sigma_u_zip_witness(ring: FiniteRing, U: IdealSet, X,
                        sigma_compatible: bool | None = None) -> PropertyReport:
    """Minimal finite Y inside X with (U:Y) = U, given (U:X) = U.

    A witness always exists over a finite ring (Y = X works), so the content
    is the minimal witness and the quotient computations. X inside U is
    reported not-applicable; (U:X) != U is reported as a failed hypothesis
    with the quotient attached. `sigma_compatible`, when given, is the
    caller's is_sigma_compatible_ideal verdict for U, recorded in the
    certificate as U_sigma_compatible.

    The decision is `_sigma_u_zip`: the hypothesis is one `quotient_ideal`
    scan of X's rows. The minimal Y is searched on the singleton quotient
    masks (U:{v}), whose AND over Y is (U:Y), and is checked again with
    `quotient_ideal`; a search that finds no Y, or a Y that check rejects,
    raises TraceMismatch.
    """
    xs = sorted(X)
    status, minimal = _sigma_u_zip(U, xs)
    bounds = {"X": xs, "U": U.sorted_members()}
    context = None if sigma_compatible is None else {"U_sigma_compatible": sigma_compatible}
    if status == "not_applicable":
        return PropertyReport("sigma-U-zip", None, bounds=bounds, certificate=context,
                              note="not_applicable: X is contained in U")
    if status == "hypothesis_fails":
        return PropertyReport("sigma-U-zip", None,
                              witness={"quotient": sorted(quotient_ideal(U, xs))},
                              bounds=bounds, certificate=context,
                              note="hypothesis_fails: (U:X) != U")
    cert = {"minimal_witness": list(minimal), "quotient": U.sorted_members(), **(context or {})}
    return PropertyReport("sigma-U-zip", True, certificate=cert, bounds=bounds)


def _row_masks(ring: FiniteRing, keep: frozenset[int]) -> tuple[int, ...]:
    """x -> the bitmask of the positions a with x*a in keep, for every x:
    read here from row x of the product table with `row_mask`, once per
    (ring, keep) and under its own memo key, not from the ideals layer's
    memo, so the zip searches below stay independent of sigma_u_zip_witness."""
    def build():
        table = keep_table(ring, keep)
        return tuple(row_mask(row, table) for row in ring.byte_rows().reversed("right"))
    return ring.once(("zip row masks", keep), build)


def _right_zip(ring: FiniteRing, xs: list[int]) -> tuple[str, tuple[int, ...] | None]:
    """right_zip_witness's decision for a sorted X, as `_sigma_u_zip`'s."""
    if not any(xs):
        return "not_applicable", None
    zeros = _row_masks(ring, _ZERO)
    if functools.reduce(operator.and_, map(zeros.__getitem__, xs)) != 1:
        return "hypothesis_fails", None
    minimal = _minimal_meet(xs, zeros, (1).__eq__)
    if minimal is None:
        raise TraceMismatch(f"r(X) = 0 for X = {xs}, but no subset Y of X has r(Y) = 0")
    return "ok", minimal


def _right_zip_pool(ring: FiniteRing) -> list[int] | None:
    """`_right_zip`'s decision for every nonempty subset X of the ring, in
    mask order, as a pool decision; None where `_right_zip` would raise."""
    meets = _subset_meets(_row_masks(ring, _ZERO))
    return _pool_decisions(((1 << ring.size) - 1) & ~1, meets, meets, (1).__eq__)


def right_zip_witness(ring: FiniteRing, X) -> PropertyReport:
    """Directly coded right-zip search: minimal Y in X with r(Y) = 0, on the
    masks of the zeros of each row y (their AND over Y is r(Y)); decided by
    `_right_zip`."""
    xs = sorted(X)
    status, minimal = _right_zip(ring, xs)
    bounds = {"X": xs}
    if status == "not_applicable":
        return PropertyReport("right-zip", None, bounds=bounds,
                              note="not_applicable: X is contained in {0}")
    if status == "hypothesis_fails":
        zeros = _row_masks(ring, _ZERO)
        ann = functools.reduce(operator.and_, map(zeros.__getitem__, xs))
        return PropertyReport("right-zip", None, witness={"annihilator": _bits(ann)},
                              bounds=bounds, note="hypothesis_fails: r(X) != 0")
    return PropertyReport("right-zip", True, certificate={"minimal_witness": list(minimal)},
                          bounds=bounds)


def _weak_zip(ring: FiniteRing, xs: list[int],
              nil: frozenset[int]) -> tuple[str, tuple[int, ...] | None]:
    """weak_zip_witness's decision for a sorted X, as `_sigma_u_zip`'s; nil's
    row masks and the mask of what lies outside nil are read once per (ring, nil)."""
    if nil.issuperset(xs):
        return "not_applicable", None
    in_nil, outside = _weak_zip_masks(ring, nil)
    if functools.reduce(operator.and_, map(in_nil.__getitem__, xs)) & outside:
        return "hypothesis_fails", None
    minimal = _minimal_meet(xs, in_nil, lambda meet: not meet & outside)
    if minimal is None:
        raise TraceMismatch(f"N(X) lies in nil(R) for X = {xs}, "
                            "but no subset Y of X has N(Y) inside nil(R)")
    return "ok", minimal


def _weak_zip_masks(ring: FiniteRing, nil: frozenset[int]) -> tuple[tuple[int, ...], int]:
    """nil's row masks and the mask of what lies outside nil, once per (ring, nil)."""
    return ring.once(("weak-zip masks", nil), lambda: (
        _row_masks(ring, nil), ((1 << ring.size) - 1) & ~sum(1 << a for a in nil)))


def _weak_zip_pool(ring: FiniteRing, nil: frozenset[int]) -> list[int] | None:
    """`_weak_zip`'s decision for every nonempty subset X of the ring, in
    mask order, as a pool decision; None where `_weak_zip` would raise."""
    in_nil, outside = _weak_zip_masks(ring, nil)
    meets = _subset_meets(in_nil)
    return _pool_decisions(outside, meets, meets, lambda meet: not meet & outside)


def weak_zip_witness(ring: FiniteRing, X, nil: frozenset[int]) -> PropertyReport:
    """Weak-zip search built on the weak annihilator N_R, given the
    nilpotent elements `nil` of the ring (the first part of nil_radical):
    on the masks of the positions of each row y that lie in nil (their AND
    over Y is N(Y)); decided by `_weak_zip`."""
    nil = frozenset(nil)
    xs = sorted(X)
    status, minimal = _weak_zip(ring, xs, nil)
    bounds = {"X": xs, "nil": sorted(nil)}
    if status == "not_applicable":
        return PropertyReport("weak-zip", None, bounds=bounds,
                              note="not_applicable: X is contained in nil(R)")
    if status == "hypothesis_fails":
        weak = functools.reduce(operator.and_, map(_row_masks(ring, nil).__getitem__, xs))
        return PropertyReport("weak-zip", None, witness={"weak_annihilator": _bits(weak)},
                              bounds=bounds, note="hypothesis_fails: N(X) not inside nil(R)")
    return PropertyReport("weak-zip", True, certificate={"minimal_witness": list(minimal)},
                          bounds=bounds)


def _meet_counts(masks: Sequence[int]) -> dict[int, int]:
    """m -> the number of nonempty sets S of positions whose masks AND to
    exactly m, for every m in the closure L of `masks` under AND (every
    such AND lies in L). The sets whose AND contains m are the nonempty
    subsets of the c(m) positions whose mask contains m, 2^c(m) - 1 of
    them; Moebius inversion over L, from its largest members down,
    subtracts the exact counts of the strictly larger members that contain
    m. O(|L| * (len(masks) + |L|)). Every nonempty set has one AND, so the
    counts must add up to 2^len(masks) - 1, or TraceMismatch."""
    closure = set(masks)
    frontier = closure
    while frontier:
        frontier = {a & b for a in frontier for b in closure} - closure
        closure |= frontier
    exact: dict[int, int] = {}
    for m in sorted(closure, key=int.bit_count, reverse=True):
        # exact holds only members with at least m's bits: m's strict supersets
        above = sum(e for larger, e in exact.items() if larger & m == m)
        exact[m] = (1 << sum(v & m == m for v in masks)) - 1 - above
    if sum(exact.values()) != (1 << len(masks)) - 1:
        raise TraceMismatch(f"the exact meet counts over {len(closure)} closure members add up "
                            f"to {sum(exact.values())}, not 2^{len(masks)} - 1")
    return exact


def _qualifying_by_meets(U: IdealSet, single: Sequence[int]) -> int:
    """The number of subsets X of R not inside U whose singleton quotient
    masks AND to U's mask: those of all elements, less those of U's own."""
    u_mask = sum(1 << u for u in U.members)
    inside = [single[u] for u in sorted(U.members)]
    return _meet_counts(single).get(u_mask, 0) - _meet_counts(inside).get(u_mask, 0)


def sigma_u_zip_scan(ring: FiniteRing, U: IdealSet) -> PropertyReport:
    """Exhaust all subsets X of R: whenever X is not inside U and (U:X) = U,
    a finite witness Y with (U:Y) = U must exist.

    (U:X) is the AND of the singleton quotient masks (U:{v}) over X, read
    from the ring's `singleton_quotient_masks`. Up to the witness cap one
    subset DP over those masks (`_subset_meets`, `_minimal_subsets`) gives
    every X its meet and its minimal witness, and each qualifying X's Y
    alone is checked again with quotient_ideal. Above the witness cap Y = X
    certifies every qualifying X, so the certificate holds their count,
    taken by Moebius inversion over the meet-closure of the masks: the sets
    of all elements whose masks AND to U's mask, less those inside U. That
    costs O(|L| * (|R| + |L|)) for the closure L, for an ideal of any side.
    Singletons v outside U whose quotient (U:{v}) differs from U are
    reported as anomalies rather than silently ignored.
    """
    n = ring.size
    total = 1 << n
    u_mask = sum(1 << v for v in U.members)
    single = singleton_quotient_masks(U)
    anomalies = [{"element": v, "quotient": _bits(single[v])}
                 for v in range(n) if not (1 << v) & u_mask and single[v] != u_mask]
    failures = []
    examples = []
    if total > DEFAULT_WITNESS_CAP:
        # Y = X certifies every qualifying X
        qualifying = witnessed = _qualifying_by_meets(U, single)
    else:
        qualifying = witnessed = 0
        meets = _subset_meets(single)
        best = _minimal_subsets(meets, u_mask.__eq__)
        outside = (total - 1) & ~u_mask
        for x_mask in range(1, total):
            # X inside U (hypothesis not applicable), or (U:X) != U
            if not x_mask & outside or meets[x_mask] != u_mask:
                continue
            qualifying += 1
            # candidates are read from the masks; only the chosen Y is
            # checked against the table rows, so a wrong mask fails the verdict
            minimal = best[x_mask]
            if minimal is None or quotient_ideal(U, _bits(minimal)) != U.members:
                failures.append(_bits(x_mask))
            else:
                witnessed += 1
                if len(examples) < 8:
                    examples.append({"X": _bits(x_mask), "Y": _bits(minimal)})
    cert = {"subsets": total, "qualifying": qualifying, "witnessed": witnessed,
            "anomalous_singletons": anomalies}
    if examples:
        cert["examples"] = examples
    if total > DEFAULT_WITNESS_CAP:
        cert["note"] = "minimal witnesses searched only below the witness cap; Y = X certifies the rest"
    return PropertyReport("sigma-U-zip-scan", not failures,
                          witness=failures or None, certificate=cert,
                          bounds={"U": U.sorted_members()})
