"""Slow reference versions of the ring-table kernels, for differential tests.

These are the direct scans the library ran before its kernels moved onto
table rows: the worklist ideal closure (and the ideal lattice built from
it), the membership-scan quotient and annihilators, the (a, b, c) triple
scan of the ring axioms and the element-by-element ideal-kind test. They stay here as
oracles, not as second paths in `src/`.
"""

from __future__ import annotations

from mnseries.rings import FiniteRing


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
