"""Slow reference versions of the ring-table kernels, for differential tests.

These are the direct scans the library ran before its kernels moved onto
table rows: the worklist ideal closure (and the ideal lattice built from
it), the membership-scan quotient and annihilators, the (a, b, c) triple
scan of the ring axioms, the element-by-element ideal-kind test and the
additive span of a set, sum by sum, the zip searches that recompute a
quotient or annihilator for every candidate subset, the sigma-U-zip
scan's count over all 2^|R| subsets, and the truncated universe's
quotient as a filter that multiplies every window series by every factor,
the G-Armendariz check over the window join of every pair of series and
the unit orbits of a listed set of series, kept with a seen-set, the
series-zip witness that traces every quotient member with every factor,
and prop 3.2's fusible lift of one Series at a time by Series arithmetic.
They stay here as oracles, not as second paths in `src/`, beside
`random_series` and `random_triples`, the seeded series the tests draw,
and the Series-level helpers the differential tests compare the window
algebra with: every series of a window, the single-term triples, the X_w
pairs of a product exponent, the zero series, addition, negation and
subtraction, support statistics, a window product as a Series, a truncated
universe's nonzero series and the coefficientwise sum of two of its member
sets, and
the pairwise products that the extraction trace must conclude. The table builders make test rings and
tables that are not rings: UT2(Z_n), subalgebras of F2 matrix algebras,
a ring with + relabelled, F2^k algebras and loops. The product and the
trivial extension are also built here one entry at a time, as the library
built them before it built a row at a time, and the SA table is also
formed here with a set sum of elementwise annihilators for every pair.
So are the scans that now run on a ring's byte rows: Z_n, the units and
the units-group check, the zero-divisor sets, sigma-compatibility and a
window algebra's table check, each one entry at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from mnseries.errors import (HypothesisFails, PreconditionFail, RingMismatch, TraceMismatch,
                             TwistMismatch, ZeroElement)
from mnseries.ideals import (IdealSet, SigmaCompatResult, close_under_inverses,
                             enumerate_ideals, quotient_ideal, set_sum,
                             weak_annihilator)
from mnseries.properties import (PropertyReport, ZeroDivisorSets, fusible_decompositions,
                                 sigma_u_zip_witness, zero_divisor_sets)
from mnseries.rings import FiniteRing, units
from mnseries.series import (Series, TwistSystem, WindowAlgebra, _same_twist, embed_scalar,
                             series_make, series_mul, series_to_json, term_product)
from mnseries.transfer import (FusibleLift, TruncatedUniverse, _contents, _trace,
                               require_fusible, require_zip)


def ut2_table(n: int) -> dict:
    """Upper-triangular 2x2 matrices over Z_n as a ring table: [[a, b], [0, c]]
    has id a*n^2 + b*n + c, so the zero matrix is id 0."""
    elems = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    index = {e: i for i, e in enumerate(elems)}
    add = [[index[((a + x) % n, (b + y) % n, (c + z) % n)] for (x, y, z) in elems]
           for (a, b, c) in elems]
    mul = [[index[(a * x % n, (a * y + b * z) % n, c * z % n)] for (x, y, z) in elems]
           for (a, b, c) in elems]
    return {"label": f"UT2(Z{n})", "size": len(elems), "add": add, "mul": mul,
            "one": index[(1, 0, 1)]}


def ring_pow(ring: FiniteRing, a: int, n: int) -> int:
    """a^n for n >= 1, one product at a time: what a semiprime witness
    (a, n) claims lands in its ideal."""
    acc = a
    for _ in range(n - 1):
        acc = ring.mul_table[acc][a]
    return acc


def per_entry_pair_ring(label: str, r1: FiniteRing, r2: FiniteRing, mul, one: tuple) -> FiniteRing:
    """The ring on the pairs (a, b), pair (a, b) with id a*|r2| + b, built
    one entry at a time: (a, b)(c, d) = mul(a, b, c, d) as a pair."""
    n2 = r2.size
    pairs = [(a, b) for a in range(r1.size) for b in range(n2)]

    def enc(pair):
        return pair[0] * n2 + pair[1]

    add1, add2 = r1.add_table, r2.add_table
    return FiniteRing(label, [[add1[a][c] * n2 + add2[b][d] for c, d in pairs] for a, b in pairs],
                      [[enc(mul(a, b, c, d)) for c, d in pairs] for a, b in pairs],
                      one=enc(one), names=[f"({r1.names[a]},{r2.names[b]})" for a, b in pairs])


def per_entry_product(r1: FiniteRing, r2: FiniteRing) -> FiniteRing:
    mul1, mul2 = r1.mul_table, r2.mul_table
    return per_entry_pair_ring(f"{r1.label}x{r2.label}", r1, r2,
                               lambda a, b, c, d: (mul1[a][c], mul2[b][d]), (r1.one, r2.one))


def per_entry_trivial_extension(base: FiniteRing) -> FiniteRing:
    add, mul = base.add_table, base.mul_table
    return per_entry_pair_ring(f"T({base.label},{base.label})", base, base,
                               lambda a, b, c, d: (mul[a][c], add[mul[a][d]][mul[b][c]]),
                               (base.one, 0))


def per_entry_zn(n: int) -> FiniteRing:
    """Z_n with every sum and product reduced mod n on its own."""
    return FiniteRing(f"Z{n}", [[(i + j) % n for j in range(n)] for i in range(n)],
                      [[(i * j) % n for j in range(n)] for i in range(n)], one=1)


def per_entry_units(ring: FiniteRing) -> frozenset[int]:
    """{u | uv = vu = 1 for some v}, every pair (u, v) tested."""
    mul, one = ring.mul_table, ring.one
    return frozenset(u for u in ring.elements()
                     if any(mul[u][v] == one and mul[v][u] == one for v in ring.elements()))


def per_entry_unit_inverse(ring: FiniteRing, u: int) -> int | None:
    """The least v with uv = vu = 1, or None."""
    mul, one = ring.mul_table, ring.one
    return next((v for v in ring.elements() if mul[u][v] == one and mul[v][u] == one), None)


def per_entry_units_group(ring: FiniteRing, us) -> bool:
    """The `ring-axioms` suite's units-group verdict for the set `us`: it
    holds 1, every product of two members and, for each member, a member
    inverse to it on both sides."""
    mul, one = ring.mul_table, ring.one
    closed = all(mul[a][b] in us for a in us for b in us)
    inverses = all(any(mul[a][b] == one and mul[b][a] == one for b in us) for a in us)
    return one in us and closed and inverses


def per_entry_zero_divisor_sets(ring: FiniteRing) -> ZeroDivisorSets:
    """a is a left (right) zero-divisor iff ar = 0 (ra = 0) for some r != 0."""
    elems, mul = ring.elements(), ring.mul_table
    left = frozenset(a for a in elems if any(r != 0 and mul[a][r] == 0 for r in elems))
    right = frozenset(a for a in elems if any(r != 0 and mul[r][a] == 0 for r in elems))
    all_set = frozenset(elems)
    return ZeroDivisorSets(left, all_set - left, right, all_set - right)


def per_entry_sigma_compatible(U: IdealSet, sigma_family) -> SigmaCompatResult:
    """ab in U <-> a*sigma(b) in U, every (sigma, a, b) tested in order."""
    ring, mul = U.ring, U.ring.mul_table
    for idx, s in enumerate(close_under_inverses(sigma_family)):
        for a in ring.elements():
            for b in ring.elements():
                if (mul[a][b] in U.members) != (mul[a][s.map[b]] in U.members):
                    return SigmaCompatResult(False, (a, b, idx))
    return SigmaCompatResult(True)


def per_entry_check_tables(alg: WindowAlgebra) -> None:
    """WindowAlgebra.check_tables with every `term` entry compared with
    term_product on its own, in (x, y, a, b) order."""
    twist, win = alg.twist, alg.window
    grp, elems = twist.group, twist.ring.elements()
    for i, x in enumerate(win):
        for j, y in enumerate(win):
            for a in elems:
                for b in elems:
                    if alg.term[i][a][j][b] != term_product(twist, a, x, b, y):
                        raise TraceMismatch(
                            f"term table disagrees with term_product at "
                            f"({grp.to_json(x)}, {grp.to_json(y)}), a={a}, b={b}")
    positions = range(len(win))
    for k, pairs in enumerate(alg.xw):
        if sorted(pairs) != [(i, j) for i in positions for j in positions
                             if alg.slot[i][j] == k]:
            raise TraceMismatch(f"X_w pairs disagree with the product slots at "
                                f"w={grp.to_json(alg.products[k])}")


def pairwise_sa_table(ring: FiniteRing) -> dict | None:
    """is_SA's certificate, or None where SA fails: the two-sided ideals in
    lattice order, and for every ordered pair (i, j) of them the index of
    the first K in that order whose r(K) is r(I) + r(J), formed as a set
    sum of elementwise annihilators."""
    two = enumerate_ideals(ring, "twosided")
    rann = [elementwise_annihilator(ring, K.members, "right") for K in two]
    table = []
    for rI in rann:
        row = []
        for rJ in rann:
            target = set_sum(ring, rI, rJ)
            if target not in rann:
                return None
            row.append(rann.index(target))
        table.append(row)
    return {"ideals": [K.sorted_members() for K in two], "K": table}


def worklist_closure(ring: FiniteRing, gens, kind: str = "twosided") -> frozenset[int]:
    """Least ideal of the kind containing gens: every new member is added to
    every member and multiplied by every ring element until nothing is new."""
    members = {0}
    work = [g for g in gens]
    for g in work:
        members.add(g)
    while work:
        a = work.pop()
        new = {ring.neg(a)}
        new.update(ring.add_table[a][b] for b in members)
        if kind in ("left", "twosided"):
            new.update(ring.mul_table[r][a] for r in ring.elements())
        if kind in ("right", "twosided"):
            new.update(ring.mul_table[a][r] for r in ring.elements())
        for x in new:
            if x not in members:
                members.add(x)
                work.append(x)
    return frozenset(members)


def worklist_lattice(ring: FiniteRing, kind: str = "twosided") -> list[frozenset[int]]:
    """Every ideal of the kind, joining worklist closures of singletons to a
    fixpoint, ascending by size then member list."""
    seen = {frozenset({0})}
    frontier = {worklist_closure(ring, [a], kind) for a in ring.elements()}
    seen |= frontier
    current = set(seen)
    while current:
        fresh = {worklist_closure(ring, i | j, kind)
                 for i in current for j in frontier if not j <= i} - seen
        seen |= fresh
        current = fresh
    return sorted(seen, key=lambda ms: (len(ms), sorted(ms)))


def additive_span(ring: FiniteRing, gens) -> frozenset[int]:
    """The additive subgroup generated by gens: every member is added to
    every generator until nothing is new."""
    members = {0}
    work = [0]
    while work:
        a = work.pop()
        for g in gens:
            b = ring.add_table[a][g]
            if b not in members:
                members.add(b)
                work.append(b)
    return frozenset(members)


def membership_quotient(ring: FiniteRing, U: frozenset[int], V) -> frozenset[int]:
    """(U:V) = {x | v*x in U for every v in V}, one product at a time."""
    return frozenset(x for x in ring.elements()
                     if all(ring.mul_table[v][x] in U for v in V))


def elementwise_annihilator(ring: FiniteRing, X, side: str) -> frozenset[int]:
    """r(X) = {a | xa = 0 for every x in X}, or l(X) with ax = 0 for side
    "left", one product at a time."""
    if side == "right":
        return frozenset(a for a in ring.elements() if all(ring.mul_table[x][a] == 0 for x in X))
    return frozenset(a for a in ring.elements() if all(ring.mul_table[a][x] == 0 for x in X))


def elementwise_weak_annihilator(ring: FiniteRing, X, nil) -> frozenset[int]:
    """N(X) = {a | xa is in nil for every x in X}, one product at a time."""
    return frozenset(a for a in ring.elements() if all(ring.mul_table[x][a] in nil for x in X))


def minimal_subset(sorted_pool: list[int], accepts) -> tuple[int, ...] | None:
    """First subset, in ascending size then lexicographic order, that accepts."""
    for size in range(len(sorted_pool) + 1):
        for combo in itertools.combinations(sorted_pool, size):
            if accepts(combo):
                return combo
    return None


def subset_sigma_u_zip_witness(ring: FiniteRing, U: IdealSet, X,
                               sigma_compatible: bool | None = None) -> PropertyReport:
    """sigma_u_zip_witness with a quotient_ideal scan for every candidate Y."""
    xs = sorted(X)
    bounds = {"X": xs, "U": U.sorted_members()}
    context = None if sigma_compatible is None else {"U_sigma_compatible": sigma_compatible}
    if all(x in U.members for x in xs):
        return PropertyReport("sigma-U-zip", None, bounds=bounds, certificate=context,
                              note="not_applicable: X is contained in U")
    quotient = quotient_ideal(U, xs)
    if quotient != U.members:
        return PropertyReport("sigma-U-zip", None, witness={"quotient": sorted(quotient)},
                              bounds=bounds, certificate=context,
                              note="hypothesis_fails: (U:X) != U")
    minimal = minimal_subset(xs, lambda ys: quotient_ideal(U, ys) == U.members)
    cert = {"minimal_witness": list(minimal), "quotient": sorted(quotient), **(context or {})}
    return PropertyReport("sigma-U-zip", True, certificate=cert, bounds=bounds)


def subset_right_zip_witness(ring: FiniteRing, X) -> PropertyReport:
    """right_zip_witness with r(Y) scanned element by element for every Y."""
    xs = sorted(X)
    bounds = {"X": xs}
    if all(x == 0 for x in xs):
        return PropertyReport("right-zip", None, bounds=bounds,
                              note="not_applicable: X is contained in {0}")
    ann = elementwise_annihilator(ring, xs, "right")
    if ann != {0}:
        return PropertyReport("right-zip", None, witness={"annihilator": sorted(ann)},
                              bounds=bounds, note="hypothesis_fails: r(X) != 0")
    minimal = minimal_subset(xs, lambda ys: elementwise_annihilator(ring, ys, "right") == {0})
    return PropertyReport("right-zip", True, certificate={"minimal_witness": list(minimal)},
                          bounds=bounds)


def subset_weak_zip_witness(ring: FiniteRing, X, nil: frozenset[int]) -> PropertyReport:
    """weak_zip_witness with weak_annihilator recomputed for every Y."""
    xs = sorted(X)
    bounds = {"X": xs, "nil": sorted(nil)}
    if all(x in nil for x in xs):
        return PropertyReport("weak-zip", None, bounds=bounds,
                              note="not_applicable: X is contained in nil(R)")
    weak = weak_annihilator(ring, xs, nil)
    if not weak <= nil:
        return PropertyReport("weak-zip", None, witness={"weak_annihilator": sorted(weak)},
                              bounds=bounds, note="hypothesis_fails: N(X) not inside nil(R)")
    minimal = minimal_subset(xs, lambda ys: weak_annihilator(ring, ys, nil) <= nil)
    return PropertyReport("weak-zip", True, certificate={"minimal_witness": list(minimal)},
                          bounds=bounds)


def subset_dp_qualifying(U: IdealSet) -> int:
    """The subsets X of R not inside U with (U:X) = U, counted one subset at
    a time: (U:X) is built from (U:X minus its lowest member) and that
    member's singleton quotient, as bitmasks."""
    ring = U.ring
    n = ring.size
    u_mask = sum(1 << u for u in U.members)
    single = [sum(1 << q for q in quotient_ideal(U, {v})) for v in range(n)]
    dp = [(1 << n) - 1] * (1 << n)
    qualifying = 0
    for x_mask in range(1, 1 << n):
        low = x_mask & -x_mask
        dp[x_mask] = dp[x_mask ^ low] & single[low.bit_length() - 1]
        if x_mask & ~u_mask and dp[x_mask] == u_mask:
            qualifying += 1
    return qualifying


def universe_quotient_scan(universe, factors, members, side: str) -> frozenset[int]:
    """TruncatedUniverse.quotient as a filter over the whole universe: the
    members u, as their positions in the window algebra's list of every
    series, with every coefficient of s*u (side "right") or u*s (side
    "left") in `members`, for every factor s, each factor multiplying the
    members that passed the factors before it. `members` may be any set."""
    mul, allowed = universe.algebra.multiply, frozenset(members).issuperset
    kept = list(enumerate(universe.algebra.universe()))
    for s in factors:
        if side == "right":
            kept = [(m, u) for m, u in kept if allowed(mul(s, u))]
        else:
            kept = [(m, u) for m, u in kept if allowed(mul(u, s))]
    return frozenset(m for m, _ in kept)


def triple_scan_axioms(ring: FiniteRing) -> list[tuple]:
    """(axiom, ok, witness) per ring axiom, each decided by scanning every
    element, pair or triple in lexicographic order up to the first failure."""
    add, mul = ring.add_table, ring.mul_table
    n = ring.size
    results = []

    def first_fail(axiom, gen):
        witness = next(gen, None)
        results.append((axiom, witness is None, witness))

    first_fail("add-commutative",
               ((a, b) for a in range(n) for b in range(n) if add[a][b] != add[b][a]))
    first_fail("add-associative",
               ((a, b, c) for a in range(n) for b in range(n) for c in range(n)
                if add[add[a][b]][c] != add[a][add[b][c]]))
    first_fail("add-identity",
               ((a,) for a in range(n) if add[0][a] != a or add[a][0] != a))
    first_fail("add-inverse",
               ((a,) for a in range(n) if all(add[a][b] != 0 for b in range(n))))
    first_fail("mul-associative",
               ((a, b, c) for a in range(n) for b in range(n) for c in range(n)
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]))
    first_fail("mul-identity",
               ((a,) for a in range(n) if mul[ring.one][a] != a or mul[a][ring.one] != a))
    first_fail("left-distributive",
               ((a, b, c) for a in range(n) for b in range(n) for c in range(n)
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]))
    first_fail("right-distributive",
               ((a, b, c) for a in range(n) for b in range(n) for c in range(n)
                if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]))
    results.append(("one-not-zero", ring.one != ring.zero,
                    None if ring.one != ring.zero else (ring.one,)))
    return results


def elementwise_kind(ring: FiniteRing, members) -> str:
    """Strongest closure kind of a member set, testing each sum, negative
    and product one at a time."""
    ms = frozenset(members)
    if 0 not in ms or any(ring.neg(a) not in ms or ring.add_table[a][b] not in ms
                          for a in ms for b in ms):
        return "subset"
    left = all(ring.mul_table[r][a] in ms for r in ring.elements() for a in ms)
    right = all(ring.mul_table[a][r] in ms for r in ring.elements() for a in ms)
    if left and right:
        return "twosided"
    if left:
        return "left"
    if right:
        return "right"
    return "subset"


def relabelled_add_table(ring: FiniteRing, perm) -> dict:
    """The ring's tables with + carried across the bijection `perm` of the
    element ids (perm[0] = 0) and * left as it is: (R, +) stays an abelian
    group, isomorphic to the old one, but the distributive laws usually fail."""
    inv = [0] * ring.size
    for a, p in enumerate(perm):
        inv[p] = a
    add = [[perm[ring.add_table[inv[a]][inv[b]]] for b in ring.elements()]
           for a in ring.elements()]
    return {"label": f"{ring.label} with + relabelled", "size": ring.size, "add": add,
            "mul": [list(row) for row in ring.mul_table], "one": ring.one}


def f2_algebra_table(k: int, products: dict, unit: int = 0) -> dict:
    """F2^k with a bilinear product given on the basis: element ids are bit
    vectors added by xor, e_i = 1 << i, e_unit is the identity and
    e_i * e_j = products[i, j] (any element) for i, j other than unit.
    Distributive by construction, associative only by chance."""
    n = 1 << k

    def basis(i, j):
        return 1 << j if i == unit else 1 << i if j == unit else products[i, j]

    def mul(a, b):
        acc = 0
        for i in range(k):
            for j in range(k):
                if a >> i & 1 and b >> j & 1:
                    acc ^= basis(i, j)
        return acc

    return {"label": f"F2^{k} algebra", "size": n,
            "add": [[a ^ b for b in range(n)] for a in range(n)],
            "mul": [[mul(a, b) for b in range(n)] for a in range(n)], "one": 1 << unit}


def f2_matrix_algebra_table(k: int, gens, max_size: int = 16) -> dict | None:
    """The subalgebra of the k x k matrices over F2 generated by the identity
    and `gens`, each a k*k-bit int (bit k*i + j is entry (i, j)): a ring,
    commutative or not, or None when it has more than max_size elements.
    Element ids are the members in ascending bit order, so 0 is the zero
    matrix; + is xor."""
    def mul(a, b):
        out = 0
        for i in range(k):
            for j in range(k):
                entry = sum(a >> (k * i + m) & b >> (k * m + j) & 1 for m in range(k))
                out |= (entry & 1) << (k * i + j)
        return out

    def reduce(v, basis):
        for b in basis:
            v = min(v, v ^ b)
        return v

    identity = sum(1 << (k * i + i) for i in range(k))
    basis: list[int] = []  # descending, with distinct leading bits
    pending = [identity, *gens]
    while pending:
        v = reduce(pending.pop(), basis)
        if v:
            if 2 << len(basis) > max_size:
                return None
            pending += [mul(v, b) for b in basis + [v]] + [mul(b, v) for b in basis]
            basis = sorted(basis + [v], reverse=True)
    order = [0]
    for b in basis:
        order = sorted(order + [a ^ b for a in order])
    index = {a: i for i, a in enumerate(order)}
    return {"label": f"F2 subalgebra of M{k}", "size": len(order),
            "add": [[index[a ^ b] for b in order] for a in order],
            "mul": [[index[mul(a, b)] for b in order] for a in order],
            "one": index[identity]}


def loop_table(add) -> dict:
    """A table whose + is the given one (a loop, say, not associative) and
    whose * is that of Z_n, with one = 1."""
    n = len(add)
    return {"label": f"loop of order {n}", "size": n, "add": [list(row) for row in add],
            "mul": [[a * b % n for b in range(n)] for a in range(n)], "one": 1}


def random_series(twist: TwistSystem, rng, exponents, max_support: int = 3,
                  nonzero: bool = True) -> Series:
    """A seeded random series with support inside the exponent window."""
    exps = list(exponents)
    if min(max_support, len(exps)) < (1 if nonzero else 0):
        raise PreconditionFail(f"max_support {max_support} over {len(exps)} exponents "
                               f"leaves no {'nonzero ' if nonzero else ''}series to draw")
    while True:
        size = rng.randint(0, min(max_support, len(exps)))
        chosen = rng.sample(exps, size)
        terms = {twist.group.canon(x): rng.randrange(1, twist.ring.size) for x in chosen}
        if terms or not nonzero:
            return Series(twist, terms)


def random_triples(twist: TwistSystem, rng, exponents, count: int,
                   max_support: int = 3) -> list[tuple]:
    """`count` triples of seeded random nonzero series inside the window."""
    return [tuple(random_series(twist, rng, exponents, max_support) for _ in range(3))
            for _ in range(count)]


def exhaustive_series(twist: TwistSystem, exponents, max_support: int | None = None):
    """Every series with support inside the window, in the lexicographic
    order of its coefficient tuple over the exponents as listed."""
    exps = [twist.group.canon(x) for x in exponents]
    for coeffs in itertools.product(range(twist.ring.size), repeat=len(exps)):
        terms = {x: c for x, c in zip(exps, coeffs) if c}
        if max_support is None or len(terms) <= max_support:
            yield Series(twist, terms)


def single_term_triples(twist: TwistSystem, exponents):
    """All triples of single-term series with nonzero coefficients."""
    singles = [Series(twist, {twist.group.canon(x): c})
               for x in exponents for c in range(1, twist.ring.size)]
    return itertools.product(singles, repeat=3)


def x_w_pairs(f: Series, g: Series, w) -> list[tuple]:
    """Pairs (x, y) with x in supp f, y in supp g, xy = w; ascending in x."""
    grp = f.twist.group
    w = grp.canon(w)
    out = []
    for x in f.support():
        y = grp.op(grp.inverse(x), w)
        if y in g.terms:
            out.append((x, y))
    return out


def series_zero(twist: TwistSystem) -> Series:
    return Series(twist, {})


def series_add(f: Series, g: Series) -> Series:
    tw = _same_twist(f, g)
    terms = dict(f.terms)
    for x, c in g.terms.items():
        s = tw.ring.add(terms.get(x, 0), c)
        if s == 0:
            terms.pop(x, None)
        else:
            terms[x] = s
    return Series(tw, terms)


def series_neg(f: Series) -> Series:
    return Series(f.twist, {x: f.twist.ring.neg(c) for x, c in f.terms.items()})


def series_sub(f: Series, g: Series) -> Series:
    return series_add(f, series_neg(g))


@dataclass
class SupportStats:
    support: list
    minimal: Any
    leading: int
    content: frozenset[int]


def support_stats(f: Series) -> SupportStats:
    """Sorted support, its minimal exponent, the leading coefficient, content."""
    if f.is_zero:
        raise PreconditionFail("the zero series has no minimal support element")
    supp = f.support()
    return SupportStats(supp, supp[0], f.terms[supp[0]], f.content())


def lift_fusible_decomposition(f: Series, universe: TruncatedUniverse) -> FusibleLift:
    """The lift of one series: `lift_fusible_decompositions` of [f]."""
    return lift_fusible_decompositions([f], universe)[0]


def lift_fusible_decompositions(fs, universe: TruncatedUniverse) -> list[FusibleLift]:
    """The Series-arithmetic lift of each nonzero series, the oracle of
    `transfer.lift_universe`: split f at its minimal exponent s0, f(s0) =
    a + b with a a left zero-divisor and b left regular; g carries a at s0
    and h = f - g. The certificate shows g + h = f, g * embed(d) = 0 for a
    recorded d with a*d = 0, and that no nonzero k in the universe has
    h*k = 0, the least such k being the witness, from one `killers` join."""
    lifts, hs = [], []
    for f in fs:
        twist, ring = f.twist, f.twist.ring
        if f.is_zero:
            raise ZeroElement("cannot decompose the zero series")
        require_fusible(twist)
        s0 = support_stats(f).minimal
        a, b = fusible_decompositions(ring, f.terms[s0])[0]
        d = next(r for r in range(1, ring.size) if ring.mul_table[a][r] == 0)
        g = series_make(twist, [(s0, a)])
        h = series_sub(f, g)
        lifts.append(FusibleLift(g, h, s0, a, b, d, series_add(g, h) == f,
                                 series_mul(g, embed_scalar(twist, d)).is_zero,
                                 b in zero_divisor_sets(ring).left_regular, True))
        hs.append(universe.terms_of(h))
    for lift, killers in zip(lifts, universe.killers(hs)):
        if killers:
            lift.h_regular_ok, lift.h_regular_witness = False, universe.series(killers[0])
    return lifts


def product_series(alg: WindowAlgebra, fg: list[int]) -> Series:
    """A window algebra's product coefficient list as a Series."""
    return Series(alg.twist, {z: c for z, c in zip(alg.products, fg) if c})


def nonzero_series(universe) -> list[Series]:
    """A truncated universe's nonzero members as Series, in universe order."""
    return [s for s in universe.all_series() if not s.is_zero]


def universe_set_sum(universe, A, B) -> set[int]:
    """{a + b | a in A, b in B} for two sets of a truncated universe's
    members, coefficientwise: the product form of |A|*|B| sums of window
    terms, read from the window algebra's list of every series, whose
    positions are the members. The oracle of `is_subgroup_sum` on the
    universe's annihilators."""
    add = universe.twist.ring.add_table
    terms = universe.algebra.universe()
    position = {tuple(t): m for m, t in enumerate(terms)}

    def plus(x, y):
        total = dict(terms[x])
        for j, c in terms[y]:
            total[j] = add[total.get(j, 0)][c]
        return position[tuple((j, c) for j, c in sorted(total.items()) if c)]

    return {plus(x, y) for x in A for y in B}


def extraction_oracle(f: Series, g: Series) -> dict:
    """Every pairwise twisted product f(u)*sigma_u(g(v))*tau(u, v), by
    direct evaluation: the conclusions the extraction trace must reach."""
    return {(u, v): term_product(f.twist, f.terms[u], u, g.terms[v], v)
            for u in f.terms for v in g.terms}


def orbits(alg: WindowAlgebra, series: list[list[tuple]], side: str
           ) -> tuple[list[list[tuple]], list[int]]:
    """The orbits of `series` under multiplying every coefficient by one
    unit: on the left by any unit (side "left"), or on the right by a
    central unit that every sigma generator fixes (side "right"). One
    representative per orbit, each the first of its orbit in `series`,
    in that order, and the orbit sizes.

    Either set of units is a group, so the orbits partition `series`.
    A unit maps nonzero coefficients to nonzero ones, so an orbit keeps
    its support, and a universe, with or without its support bound,
    holds every member of each orbit it meets. For f and g in a window,
    (uf)(gv) then has the coefficients u (fg)_z v: sigma_x(b v) =
    sigma_x(b) v, and v commutes with tau(x, y).
    """
    ring = alg.twist.ring
    mul = ring.mul_table
    if side == "left":
        scale = [mul[u] for u in sorted(units(ring))]
    elif side == "right":
        scale = [[row[v] for row in mul] for v in sorted(units(ring))
                 if all(g.map[v] == v for g in alg.twist.sigma.generators)
                 and all(mul[v][r] == mul[r][v] for r in ring.elements())]
    else:
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    seen: set[tuple] = set()
    reps, sizes = [], []
    for s in series:
        if tuple(s) in seen:
            continue
        orbit = {tuple((i, m[c]) for i, c in s) for m in scale}
        seen |= orbit
        reps.append(s)
        sizes.append(len(orbit))
    return reps, sizes


def full_join_G_armendariz(universe, max_support: int) -> PropertyReport:
    """The G-Armendariz check over the window join of every pair of
    universe series with at most `max_support` terms, each zero product
    counted once, with its witness and True-verdict re-checks. It compiles
    and lists its own window algebra, reading only the universe's twist and
    window."""
    twist, exps = universe.twist, universe.window
    ring, grp = twist.ring, twist.group
    alg = WindowAlgebra(twist, exps)
    fragment = [terms for terms in alg.universe() if len(terms) <= max_support]
    witness = None
    pairs_checked = len(fragment) ** 2
    zero_products = single_terms = 0
    mul = ring.mul_table
    for p, q, _ in alg.join(fragment, {0}):
        zero_products += 1
        f, g = fragment[p], fragment[q]
        single_terms += len(f) == len(g) == 1
        hit = next(((i, j, mul[a][b]) for i, a in f for j, b in g if mul[a][b] != 0),
                   None)
        if hit is not None:
            i, j, product = hit
            fs, gs = alg.series(f), alg.series(g)
            x, y = alg.window[i], alg.window[j]
            fg, ab = series_mul(fs, gs), ring.mul(fs.coeff(x), gs.coeff(y))
            if not fg.is_zero or ab == 0:
                raise TraceMismatch(f"G-Armendariz witness f = {fs}, g = {gs} at x = "
                                    f"{grp.to_json(x)}, y = {grp.to_json(y)} does not re-check: "
                                    f"series_mul gives f*g = {fg} and f(x)g(y) = {ab}")
            witness = {"f": series_to_json(fs), "g": series_to_json(gs),
                       "x": grp.to_json(x), "y": grp.to_json(y), "product": product}
            pairs_checked = p * len(fragment) + q + 1
            break
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


def per_h_series_zip_witness(X, U: IdealSet, universe) -> PropertyReport:
    """The series-zip witness with one extraction trace for every member h
    of the reduced quotient and every factor, each followed by the check
    that h has U-coefficients. `_trace` trusts the tables it reads, so the
    algebra's `check_tables` runs before the first trace."""
    twist = universe.twist
    ring = twist.ring
    grp = twist.group
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
    base_ok = sigma_u_zip_witness(ring, U, c_x, True)
    if base_ok.verdict is not True:
        return PropertyReport("series-zip", False,
                              witness={"base": base_ok.to_json()},
                              bounds=universe.describe())
    c_x0 = base_ok.certificate["minimal_witness"]
    x0 = [s for s in X if any(c in c_x0 for c in s.content())]

    factors = [universe.terms_of(s) for s in x0]
    quotient0 = universe.quotient(factors, U.members, "right")
    reduced_ok = quotient0 == u_series

    extractions = 0
    if reduced_ok:
        universe.algebra.check_tables()
        mul = universe.algebra.multiply
        for m in sorted(quotient0):
            h = universe.terms_at(m)
            for s in factors:
                _trace(universe.algebra, s, h, U, mul(s, h))
                extractions += 1
                for i, c in h:
                    if c not in U.members:
                        raise TraceMismatch(
                            f"extraction finished but h({grp.to_json(universe.window[i])}) "
                            "is outside U")

    verdict = reduced_ok
    return PropertyReport(
        "series-zip", verdict,
        witness=None if verdict else {"quotient0_size": len(quotient0),
                                      "expected_size": len(u_series)},
        certificate={"C_X": c_x, "C_X0": list(c_x0),
                     "X0": [series_to_json(s) for s in x0],
                     "extractions": extractions},
        bounds=universe.describe())
