"""Finite associative unital rings given by explicit operation tables.

Elements are dense integer ids 0..size-1 with zero always id 0. Everything
here is exhaustively checkable by table scan. A table ring is checked for the
full ring axioms and rejected if one fails; the O(n^3) axioms are decided on
the additive generators of R, which the coset loop of `greedy_generators`
(shared with the ideal code) picks. Zn, products and trivial extensions are
rings by construction, so their constructors check nothing.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import AxiomViolation, MalformedSpec, NotAutomorphism, RingMismatch, SizeCapExceeded

DEFAULT_SIZE_CAP = 256


class Memo:
    """Facts derived once per object, in its `_memo` dict."""

    def once(self, key, compute):
        """compute() the first time `key` is asked for, its stored value after
        that; a compute() that raises stores nothing, so a failing check raises on every call."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


class FiniteRing(Memo):
    """A finite ring: element ids 0..size-1, operation tables, zero = 0."""

    def __init__(self, label: str, add_table: Sequence[Sequence[int]],
                 mul_table: Sequence[Sequence[int]], one: int,
                 names: Sequence[str] | None = None):
        for name, table in (("add", add_table), ("mul", mul_table)):
            if not (isinstance(table, (list, tuple))
                    and all(isinstance(row, (list, tuple)) for row in table)):
                raise MalformedSpec(f"ring {label!r}: {name} table must be a list of rows")
        size = len(add_table)
        if size < 2:
            raise MalformedSpec(f"ring {label!r}: need at least 2 elements, got {size}")
        elements = frozenset(range(size))
        for name, table in (("add", add_table), ("mul", mul_table)):
            if len(table) != size:
                raise MalformedSpec(f"ring {label!r}: {name} table has {len(table)} rows, expected {size}")
            # the whole table at C speed (every entry an int, then an element);
            # the loop below only names the first bad entry
            entries = itertools.chain.from_iterable
            if (all(len(row) == size for row in table)
                    and set(map(type, entries(table))) == {int}
                    and elements.issuperset(entries(table))):
                continue
            for i, row in enumerate(table):
                if len(row) != size:
                    raise MalformedSpec(f"ring {label!r}: {name} row {i} has {len(row)} entries")
                for j, v in enumerate(row):
                    if type(v) is not int or not 0 <= v < size:
                        raise MalformedSpec(f"ring {label!r}: {name}[{i}][{j}] = {v!r} out of range")
        if type(one) is not int or not 0 <= one < size:
            raise MalformedSpec(f"ring {label!r}: one = {one} out of range")
        self._store(label, add_table, mul_table, one, names)

    @classmethod
    def _built(cls, label: str, add_table, mul_table, one: int,
               names: Sequence[str] | None = None) -> FiniteRing:
        """A ring whose tables a builder made from in-range ints by
        construction (`ring_zn`, `_pair_ring`), without the entry check that
        every table passed to the constructor gets."""
        ring = cls.__new__(cls)
        ring._store(label, add_table, mul_table, one, names)
        return ring

    def _store(self, label, add_table, mul_table, one, names):
        self.label = label
        self.size = size = len(add_table)
        self.add_table = tuple(tuple(row) for row in add_table)
        self.mul_table = tuple(tuple(row) for row in mul_table)
        self.zero = 0
        self.one = one
        if names is None:
            names = [str(i) for i in range(size)]
        if not (isinstance(names, (list, tuple)) and len(names) == size
                and all(isinstance(name, str) for name in names)):
            raise MalformedSpec(f"ring {label!r}: names must be a list of {size} strings")
        self.names = tuple(names)
        self._memo: dict = {}

    def __repr__(self):
        return f"FiniteRing({self.label!r}, size={self.size})"

    def elements(self) -> range:
        return range(self.size)

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        n = self.once("neg", lambda: [row.index(0) if 0 in row else None
                                      for row in self.add_table])[a]
        if n is None:
            raise AxiomViolation(f"ring {self.label!r}: element {a} has no additive inverse")
        return n

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg(b)]

    def describe(self, a: int) -> str:
        return self.names[a]

    def byte_rows(self) -> ByteRows:
        """The tables as rows of bytes, built once per ring (see ByteRows)."""
        return self.once("byte rows", lambda: ByteRows(self))

    def describe_set(self, xs: Iterable[int]) -> str:
        return "{" + ", ".join(self.names[x] for x in sorted(xs)) + "}"


def require_byte_ids(ring: FiniteRing) -> None:
    """SizeCapExceeded unless every id of the ring fits in a byte."""
    if ring.size > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(f"ring {ring.label} has {ring.size} elements, cap {DEFAULT_SIZE_CAP}",
                              {"size_cap": DEFAULT_SIZE_CAP})


class ByteRows(Memo):
    """The add, product and transposed product tables as rows of bytes, each
    also padded to a 256-byte translate table (`add_tab`, ...), so one C call
    decides a row: `add[b].translate(mul_tab[a])` is a(b + c) over c. It sits
    beside the tuple tables, which index faster; see require_byte_ids."""

    def __init__(self, ring: FiniteRing):
        require_byte_ids(ring)
        pad = bytes(256 - ring.size)
        self.add = [bytes(row) for row in ring.add_table]
        self.mul = [bytes(row) for row in ring.mul_table]
        self.mul_t = [bytes(col) for col in zip(*ring.mul_table)]
        self.add_tab, self.mul_tab, self.mul_t_tab = (
            [row + pad for row in rows] for rows in (self.add, self.mul, self.mul_t))
        self._memo: dict = {}

    def reversed(self, side: str) -> list[bytes]:
        """Product rows (side "right") or columns, last position first."""
        return self.once(("reversed", side), lambda: [
            row[::-1] for row in (self.mul if side == "right" else self.mul_t)])


def positions(row: bytes, value: int) -> Iterator[int]:
    """The positions of `value` in a byte row, ascending, one find each."""
    i = row.find(value)
    while i >= 0:
        yield i
        i = row.find(value, i + 1)


@dataclass
class AxiomResult:
    axiom: str
    ok: bool
    witness: tuple | None = None


@dataclass
class AxiomReport:
    results: list[AxiomResult]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self) -> list[AxiomResult]:
        return [r for r in self.results if not r.ok]


def grow_subgroup(add, group: list[int], members: set[int], g: int) -> None:
    """Extend the additive subgroup H (listed in `group`, zero first, and held
    in `members`) to H + <g>: add the cosets H + g, H + 2g, ... until kg
    lands in H. A g outside H at least doubles H. Translation by g, x -> g + x,
    must be a permutation, as in any group, or kg need never come back to H
    and the loop need not end."""
    step = add[g].__getitem__
    coset = list(map(step, group))
    new = []
    while coset[0] not in members:  # coset[0] = kg, the image of zero
        new += coset
        coset = list(map(step, coset))
    group += new
    members.update(new)


def greedy_generators(add, members: set[int], candidates: Iterable[int]) -> Iterator[int]:
    """Grow the additive subgroup `members` (holding 0) by each candidate
    outside it, yielding that candidate just before growing by it: at most
    log2 of the final size are yielded. A caller that stops iterating stops
    the growth before the candidate it was last given. Translation by each
    candidate must be a permutation (see `grow_subgroup`)."""
    group = [0, *(members - {0})]
    for g in candidates:
        if g not in members:
            yield g
            grow_subgroup(add, group, members, g)


def check_ring_axioms(ring: FiniteRing) -> AxiomReport:
    """Every ring axiom decided on whole table rows; failures carry a witness.

    The O(n^2) axioms compare rows directly. The four O(n^3) ones are each
    additive in one argument, so they are decided on the additive
    generators g of R, at most log2 n of them, which `greedy_generators`
    picks:

    - add-associative: when + is commutative with identity 0 and every
      row is a permutation, (x + g) + y = x + (g + y) for every x is one row
      comparison per x. The g passing it are closed under +, and every
      element is some g + m with m reached before, so they are all of R.
    - left and right distributive: once (R, +) is an abelian group,
      a(g + c) = ag + ac and (g + b)c = gc + bc over every c (b) is one row
      comparison per a (c): n comparisons per generator, not n^2.
    - mul-associative: once both distributive laws hold, (ab)c - a(bc) is
      additive in each argument, so g^3 lookups decide it.

    Where a precondition fails, the axiom falls back to fixing (a, b) and
    comparing one row over every c (right distributivity fixes (a, c) and
    runs over b on the transposed product table). Every row comparison is
    of the ring's byte rows (`ByteRows`), each side one or two
    bytes.translate calls. Each test is an exact "iff", and only
    an axiom that fails is scanned element by element, so its witness is
    the lexicographically first failing element, pair or triple. Scanned
    once per ring, like its units: a table ring's load and the ring-axioms
    suite share one report. A ring of more than DEFAULT_SIZE_CAP elements
    has no byte rows and raises SizeCapExceeded.
    """
    return ring.once("axioms", lambda: _axiom_report(ring))


def _group_generators(ring: FiniteRing, rows: ByteRows) -> list[int] | None:
    """Additive generators of R if + is associative, else None, for a table
    that is commutative, has 0 as identity and has permutation rows. Each
    candidate g is tested before the group grows by it, one byte row per x:
    (x + g) + y against x + (g + y) over y. So the coset loop only runs
    inside the abelian group of elements that pass."""
    add = ring.add_table
    gens = []
    for g in greedy_generators(add, {0}, range(ring.size)):
        if any(rows.add[add[x][g]] != rows.add[g].translate(tab)
               for x, tab in enumerate(rows.add_tab)):
            return None
        gens.append(g)
    return gens


def _axiom_report(ring: FiniteRing) -> AxiomReport:
    add, mul = ring.add_table, ring.mul_table
    rows = ring.byte_rows()
    A, M, MT = rows.add, rows.mul, rows.mul_t
    At, Mt, MTt = rows.add_tab, rows.mul_tab, rows.mul_t_tab
    ids = tuple(range(ring.size))
    add_t = tuple(zip(*add))

    commutative = add == add_t
    identity = add[0] == ids == add_t[0]
    # a commutative loop: + commutative, 0 its identity, every row a permutation
    loop = commutative and identity and all(len(set(row)) == ring.size for row in add)
    gens = _group_generators(ring, rows) if loop else None  # None unless (R, +) is an abelian group
    add_assoc = (gens is not None if loop
                 else all(A[add[a][b]] == A[b].translate(At[a]) for a in ids for b in ids))
    span = ids if gens is None else gens
    # a(b + c) against ab + ac over c, and (a + b)c against ac + bc over b
    left = all(A[b].translate(Mt[a]) == M[a].translate(At[mul[a][b]]) for a in ids for b in span)
    right = all(A[a].translate(MTt[c]) == MT[c].translate(At[mul[a][c]])
                for a in span for c in ids)
    if gens is not None and left and right:
        mul_assoc = all(mul[mul[a][b]][c] == mul[a][mul[b][c]]
                        for a in gens for b in gens for c in gens)
    else:
        mul_assoc = all(M[mul[a][b]] == M[b].translate(Mt[a]) for a in ids for b in ids)
    results = []

    def first_fail(axiom, holds, scan):
        witness = None if holds else next(scan, None)
        results.append(AxiomResult(axiom, witness is None, witness))

    first_fail("add-commutative", commutative,
               ((a, b) for a in ids for b in ids if add[a][b] != add[b][a]))
    first_fail("add-associative", add_assoc,
               ((a, b, c) for a in ids for b in ids for c in ids
                if add[add[a][b]][c] != add[a][add[b][c]]))
    first_fail("add-identity", identity,
               ((a,) for a in ids if add[0][a] != a or add[a][0] != a))
    first_fail("add-inverse", all(0 in row for row in A),
               ((a,) for a in ids if 0 not in add[a]))
    first_fail("mul-associative", mul_assoc,
               ((a, b, c) for a in ids for b in ids for c in ids
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]))
    first_fail("mul-identity", M[ring.one] == bytes(ids) == MT[ring.one],
               ((a,) for a in ids if mul[ring.one][a] != a or mul[a][ring.one] != a))
    first_fail("left-distributive", left,
               ((a, b, c) for a in ids for b in ids for c in ids
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]))
    first_fail("right-distributive", right,
               ((a, b, c) for a in ids for b in ids for c in ids
                if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]))
    results.append(AxiomResult("one-not-zero", ring.one != ring.zero,
                               None if ring.one != ring.zero else (ring.one,)))
    return AxiomReport(results)


def units(ring: FiniteRing) -> frozenset[int]:
    """Two-sided invertible elements: {u | exists v with uv = vu = 1}, each
    v with uv = 1 found in byte row u and its vu read. SizeCapExceeded
    above DEFAULT_SIZE_CAP elements, as for every byte-row scan."""
    mul, one = ring.mul_table, ring.one
    return ring.once("units", lambda: frozenset(
        u for u, row in enumerate(ring.byte_rows().mul)
        if any(mul[v][u] == one for v in positions(row, one))))


def unit_inverse(ring: FiniteRing, u: int) -> int:
    """The two-sided inverse of u, found in byte row u as in `units`;
    SizeCapExceeded above DEFAULT_SIZE_CAP elements."""
    mul, one = ring.mul_table, ring.one
    for v in positions(ring.byte_rows().mul[u], one):
        if mul[v][u] == one:
            return v
    raise ValueError(f"{ring.describe(u)} is not a unit of {ring.label}")


class RingAutomorphism:
    """A ring automorphism, stored as a permutation of element ids; build one
    from an unchecked map with `check_automorphism`."""

    def __init__(self, ring: FiniteRing, mapping: Sequence[int]):
        self.ring = ring
        self.map = tuple(mapping)

    def __call__(self, a: int) -> int:
        return self.map[a]

    def __eq__(self, other):
        return (isinstance(other, RingAutomorphism)
                and self.ring is other.ring and self.map == other.map)

    def __hash__(self):
        return hash((id(self.ring), self.map))

    def __repr__(self):
        return f"RingAutomorphism({self.ring.label!r}, {list(self.map)})"

    @property
    def is_identity(self) -> bool:
        return all(self.map[i] == i for i in range(self.ring.size))

    def inverse(self) -> "RingAutomorphism":
        inv = [0] * self.ring.size
        for i, v in enumerate(self.map):
            inv[v] = i
        return RingAutomorphism(self.ring, inv)


def identity_automorphism(ring: FiniteRing) -> RingAutomorphism:
    return RingAutomorphism(ring, range(ring.size))


def check_automorphism(ring: FiniteRing, mapping: Sequence[int]) -> RingAutomorphism:
    """Validate bijectivity, preservation of both operations, and 0/1 fixing.

    Raises NotAutomorphism with a witness describing the first failure.
    """
    m = tuple(mapping)
    n = ring.size
    if len(m) != n or sorted(m) != list(range(n)):
        raise NotAutomorphism(f"map is not a permutation of 0..{n - 1}", witness=("bijective", m))
    for a in range(n):
        for b in range(n):
            if m[ring.add_table[a][b]] != ring.add_table[m[a]][m[b]]:
                raise NotAutomorphism(
                    f"additivity fails at ({ring.describe(a)}, {ring.describe(b)})",
                    witness=("add", (a, b)))
            if m[ring.mul_table[a][b]] != ring.mul_table[m[a]][m[b]]:
                raise NotAutomorphism(
                    f"multiplicativity fails at ({ring.describe(a)}, {ring.describe(b)})",
                    witness=("mul", (a, b)))
    # a bijection preserving both operations necessarily fixes 0 and 1
    if m[0] != 0:
        raise NotAutomorphism("map does not fix zero", witness=("zero", m[0]))
    if m[ring.one] != ring.one:
        raise NotAutomorphism("map does not fix one", witness=("one", m[ring.one]))
    return RingAutomorphism(ring, m)


def compose_automorphisms(a: RingAutomorphism, b: RingAutomorphism) -> RingAutomorphism:
    """(a o b)(x) = a(b(x)). Composition of automorphisms needs no re-scan."""
    if a.ring is not b.ring:
        raise RingMismatch(f"automorphisms of {a.ring.label} and {b.ring.label}")
    return RingAutomorphism(a.ring, [a.map[b.map[x]] for x in range(a.ring.size)])


def automorphism_power(a: RingAutomorphism, n: int) -> RingAutomorphism:
    """a^n for any integer n; negative powers use the inverse permutation."""
    base = a if n >= 0 else a.inverse()
    acc = identity_automorphism(a.ring)
    for _ in range(abs(n)):
        acc = compose_automorphisms(base, acc)
    return acc


# --- constructors -----------------------------------------------------------


def _validated(ring: FiniteRing) -> FiniteRing:
    report = check_ring_axioms(ring)
    if not report.passed:
        fail = report.failures()[0]
        raise AxiomViolation(
            f"ring {ring.label!r}: axiom {fail.axiom} fails at witness {fail.witness}",
            report=report)
    return ring


def ring_zn(n: int) -> FiniteRing:
    """Z_n, the integers modulo n (n >= 2): row i of + is a slice of the
    ids repeated n times, and row i of * every i-th id of it."""
    if n < 2:
        raise MalformedSpec(f"Zn requires n >= 2, got {n}")
    cycle = tuple(range(n)) * n  # cycle[k] = k mod n for k < n^2
    return FiniteRing._built(f"Z{n}", [cycle[i:i + n] for i in range(n)],
                             [(0,) * n, *(cycle[:i * n:i] for i in range(1, n))], one=1)


def _check_cap(size, what: str):
    """MalformedSpec unless `size`, the element count a spec asks for, is an
    integer of at most DEFAULT_SIZE_CAP."""
    if type(size) is not int:
        raise MalformedSpec(f"{what} size must be an integer, got {size!r}")
    if size > DEFAULT_SIZE_CAP:
        raise MalformedSpec(f"{what} would have {size} elements, cap is {DEFAULT_SIZE_CAP}")


def ring_from_table(data: dict | str | Path, base_dir: Path | None = None) -> FiniteRing:
    """Build a ring from a table object or a JSON file holding one.

    Expected object: {label, size, add, mul, one[, names]}; zero is index 0
    by convention. Its `size` is checked against DEFAULT_SIZE_CAP before
    the ring is built, whether the object came inline or from a file.
    """
    if isinstance(data, (str, Path)):
        path = Path(data)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise MalformedSpec(f"cannot read ring table {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedSpec(f"ring table must be an object, got {type(data).__name__}")
    missing = {"label", "size", "add", "mul", "one"} - set(data)
    if missing:
        raise MalformedSpec(f"ring table missing keys: {sorted(missing)}")
    _check_cap(data["size"], "table ring")
    ring = FiniteRing(data["label"], data["add"], data["mul"], data["one"],
                      names=data.get("names"))
    if ring.size != data["size"]:
        raise MalformedSpec(f"ring table {data['label']!r}: size {data['size']} "
                            f"does not match add table ({ring.size} rows)")
    return _validated(ring)


def _pair_ring(label: str, r1: FiniteRing, r2: FiniteRing, mul_row, one: tuple,
               shifts: list[bytes]) -> FiniteRing:
    """The ring on the pairs (a, b), a in r1 and b in r2, pair (a, b) with id
    a*|r2| + b: added componentwise, and mul_row(a, b) lists the ids of
    (a, b)(c, d) in id order. Tables are built a row at a time."""
    n2 = r2.size
    pairs = [(a, b) for a in range(r1.size) for b in range(n2)]
    add1, add2 = r1.add_table, r2.add_table
    return FiniteRing._built(label, [_pair_row(add1[a], add2[b], shifts) for a, b in pairs],
                             [mul_row(a, b) for a, b in pairs], one=one[0] * n2 + one[1],
                             names=[f"({r1.names[a]},{r2.names[b]})" for a, b in pairs])


def _shifts(n1: int, n2: int) -> list[bytes]:
    """shifts[h], a translate table from l to h*n2 + l, the id of the pair
    (h, l), for h < n1. SizeCapExceeded when the pair ids do not fit in a
    byte, more than DEFAULT_SIZE_CAP of them."""
    if n1 * n2 > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(f"{n1}x{n2} pair ring would have {n1 * n2} elements, "
                              f"cap {DEFAULT_SIZE_CAP}", {"size_cap": DEFAULT_SIZE_CAP})
    pad = bytes(256 - n2)
    return [bytes(range(h, h + n2)) + pad for h in range(0, n1 * n2, n2)]


def _pair_row(first, second, shifts: list[bytes]) -> tuple[int, ...]:
    """The ids of the pairs (first[c], second[d]), c-major: `second` shifted
    by first[c] for each c."""
    return tuple(b"".join(map(bytes(second).translate, map(shifts.__getitem__, first))))


def ring_product(r1: FiniteRing, r2: FiniteRing) -> FiniteRing:
    """Direct product; pair (a, b) gets id a*|r2| + b. At most
    DEFAULT_SIZE_CAP pairs, or SizeCapExceeded (see _shifts)."""
    mul1, mul2 = r1.mul_table, r2.mul_table
    shifts = _shifts(r1.size, r2.size)
    return _pair_ring(f"{r1.label}x{r2.label}", r1, r2,
                      lambda a, b: _pair_row(mul1[a], mul2[b], shifts),
                      (r1.one, r2.one), shifts)


def ring_trivial_extension(base: FiniteRing) -> FiniteRing:
    """Pairs (a, b) over the base with (a,b)(c,d) = (ac, ad + bc), at most
    DEFAULT_SIZE_CAP of them. The block of row (a, b) at c is ad over d
    translated by sums[ac][bc], which maps e to the id of the pair
    (ac, e + bc)."""
    add, mul, n = base.add_table, base.mul_table, base.size
    shifts = _shifts(n, n)
    pad = bytes(256 - n)
    sums = [[(bytes(col) + pad).translate(shift) for col in zip(*add)] for shift in shifts]
    rows = [bytes(r) for r in mul]

    def row(a, b):
        return tuple(b"".join([rows[a].translate(sums[x][y])
                               for x, y in zip(mul[a], mul[b])]))

    return _pair_ring(f"T({base.label},{base.label})", base, base, row, (base.one, 0), shifts)


def ring_gf4() -> FiniteRing:
    """The shipped 4-element field table (0, 1, x, x+1 with x^2 = x+1)."""
    data = json.loads(resources.files(__package__).joinpath("fixtures/gf4_ring.json").read_text())
    return ring_from_table(data)


def ring_make(spec: dict, base_dir: Path | None = None) -> FiniteRing:
    """Dispatch a RingSpec object to the matching constructor.

    Kinds: {"kind": "Zn", "n": int}, {"kind": "table", ...table or "path"},
    {"kind": "product", "factors": [spec, spec]},
    {"kind": "trivial_extension", "base": spec}.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise MalformedSpec(f"ring spec must be an object with a 'kind': {spec!r}")

    kind = spec["kind"]
    if kind == "Zn":
        _check_cap(spec.get("n", 0), "Zn ring")
        return ring_zn(spec.get("n", 0))
    if kind == "table":
        return ring_from_table(spec["path"] if "path" in spec else spec, base_dir=base_dir)
    if kind == "product":
        factors = spec.get("factors")
        if not isinstance(factors, list) or len(factors) != 2:
            raise MalformedSpec("product spec needs exactly 2 factors")
        r1 = ring_make(factors[0], base_dir)
        r2 = ring_make(factors[1], base_dir)
        _check_cap(r1.size * r2.size, "product ring")
        return ring_product(r1, r2)
    if kind == "trivial_extension":
        base = ring_make(spec.get("base"), base_dir)
        _check_cap(base.size * base.size, "trivial extension")
        return ring_trivial_extension(base)
    raise MalformedSpec(f"unknown ring kind {kind!r}")
