"""Finitely supported twisted series over (ring, ordered group, sigma, tau).

Multiplication follows the twisted convolution
    (sum a_x X^x)(sum b_y X^y) = sum_z ( sum_{xy=z} a_x * sigma_x(b_y) * tau(x,y) ) X^z
and is only associative when sigma and tau satisfy the cocycle conditions,
so this module also carries the condition checkers and the brute-force
associativity oracle that serves as ground truth for them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .errors import DuplicateKey, MalformedSpec, NotNormalized, TraceMismatch, TwistMismatch
from .groups import IntegersGroup, OrderedGroup
from .rings import (FiniteRing, Memo, RingAutomorphism, automorphism_power,
                    check_automorphism, compose_automorphisms, greedy_generators,
                    identity_automorphism, unit_inverse, units)


class SigmaRule:
    """sigma_x as a product of generator automorphism powers, one per Z factor."""

    def __init__(self, ring: FiniteRing, group: OrderedGroup,
                 generators: Sequence[RingAutomorphism]):
        if len(generators) != group.k:
            raise MalformedSpec(f"sigma needs {group.k} generator(s), got {len(generators)}")
        for g in generators:
            if g.ring is not ring:
                raise MalformedSpec("sigma generator belongs to a different ring")
        for i, g in enumerate(generators):
            for h in generators[i + 1:]:
                if compose_automorphisms(g, h) != compose_automorphisms(h, g):
                    raise MalformedSpec("sigma generators must commute")
        self.ring = ring
        self.group = group
        self.generators = list(generators)
        self._memo: dict[Any, RingAutomorphism] = {}

    def at(self, x) -> RingAutomorphism:
        if x in self._memo:
            return self._memo[x]
        acc = identity_automorphism(self.ring)
        for gen, c in zip(self.generators, self.group.coords(x)):
            acc = compose_automorphisms(automorphism_power(gen, c), acc)
        self._memo[x] = acc
        return acc


class TauRule:
    """Evaluable twist factor tau: G x G -> element id."""

    def at(self, x, y) -> int:
        raise NotImplementedError


class TauOne(TauRule):
    def __init__(self, ring: FiniteRing):
        self.ring = ring

    def at(self, x, y):
        return self.ring.one


class TauUnitPower(TauRule):
    """tau(x, y) = u^(x . M . y) for a central unit u and integer matrix M."""

    def __init__(self, ring: FiniteRing, group: OrderedGroup, unit: int,
                 matrix: Sequence[Sequence[int]]):
        if type(unit) is not int or not 0 <= unit < ring.size:
            raise MalformedSpec(f"tau unit must be an element id 0..{ring.size - 1}, got {unit!r}")
        if unit not in units(ring):
            raise MalformedSpec(f"tau unit {unit} is not invertible in {ring.label}")
        for r in ring.elements():
            if ring.mul_table[unit][r] != ring.mul_table[r][unit]:
                raise MalformedSpec(f"tau unit {ring.describe(unit)} is not central")
        k = group.k
        if not (isinstance(matrix, (list, tuple)) and len(matrix) == k and all(
                isinstance(row, (list, tuple)) and len(row) == k
                and all(type(v) is int for v in row) for row in matrix)):
            raise MalformedSpec(f"tau exponent matrix must be {k}x{k} integers, got {matrix!r}")
        matrix = [list(row) for row in matrix]
        self.ring = ring
        self.group = group
        self.unit = unit
        self.matrix = matrix
        # powers of u cycle back to one because u is invertible
        powers = [ring.one]
        p = ring.mul_table[ring.one][unit]
        while p != ring.one:
            powers.append(p)
            p = ring.mul_table[p][unit]
        self._powers = powers

    def exponent(self, x, y) -> int:
        xs, ys = self.group.coords(x), self.group.coords(y)
        return sum(xs[i] * self.matrix[i][j] * ys[j]
                   for i in range(len(xs)) for j in range(len(ys)))

    def at(self, x, y):
        return self._powers[self.exponent(x, y) % len(self._powers)]


class TauPatched(TauRule):
    """A base rule with finitely many overridden values (for corrupted fixtures)."""

    def __init__(self, base: TauRule, overrides: dict):
        self.base = base
        self.overrides = dict(overrides)

    def at(self, x, y):
        return self.overrides[x, y] if (x, y) in self.overrides else self.base.at(x, y)


class TwistSystem(Memo):
    """The (sigma, tau) pair over a ring and ordered group."""

    def __init__(self, ring: FiniteRing, group: OrderedGroup,
                 sigma: SigmaRule, tau: TauRule):
        self.ring = ring
        self.group = group
        self.sigma = sigma
        self.tau = tau
        self._memo: dict = {}

    def sigma_at(self, x) -> RingAutomorphism:
        return self.sigma.at(x)

    def tau_at(self, x, y) -> int:
        return self.tau.at(x, y)

    def sigma_generators(self) -> list[RingAutomorphism]:
        return list(self.sigma.generators)

    def default_window(self) -> list:
        radius = 4 if self.group.kind == "Z" else 2
        return self.group.window(-radius, radius)

    def check_normalized(self, window: Iterable | None = None):
        """sigma_1 = id and tau(1, x) = tau(x, 1) = one on the window."""
        e = self.group.identity
        if not self.sigma_at(e).is_identity:
            return False, {"kind": "sigma-identity"}
        for x in (window if window is not None else self.default_window()):
            if self.tau_at(e, x) != self.ring.one:
                return False, {"kind": "tau-left", "x": self.group.to_json(x)}
            if self.tau_at(x, e) != self.ring.one:
                return False, {"kind": "tau-right", "x": self.group.to_json(x)}
        return True, None

    @property
    def normalized(self) -> bool:
        return self.once("normalized", lambda: self.check_normalized()[0])

    def __repr__(self):
        return f"TwistSystem({self.ring.label!r}, {self.group.kind})"


def trivial_twist(ring: FiniteRing, group: OrderedGroup | None = None) -> TwistSystem:
    """Identity sigma, tau = 1: the plain (untwisted) group series ring."""
    if group is None:
        group = IntegersGroup()
    sigma = SigmaRule(ring, group, [identity_automorphism(ring)] * group.k)
    return TwistSystem(ring, group, sigma, TauOne(ring))


def twist_from_spec(ring: FiniteRing, group: OrderedGroup, spec: dict | None) -> TwistSystem:
    """Build a TwistSystem from the fixture twist schema.

    sigma: "identity" | {"generator": perm | "identity"} | {"generators": [...]}
    tau:   {"kind": "one"}
         | {"kind": "unit_power", "unit": id, "exponent_rule": "product" | matrix}
         | {"kind": "patched", "base": <tau spec>, "overrides": [[x, y, id], ...]}
    """
    spec = spec or {}
    if not isinstance(spec, dict):
        raise MalformedSpec(f"twist spec must be an object: {spec!r}")
    k = group.k
    sigma_spec = spec.get("sigma", "identity")
    if sigma_spec == "identity":
        gen_specs = ["identity"] * k
    elif isinstance(sigma_spec, dict) and "generator" in sigma_spec:
        gen_specs = [sigma_spec["generator"]]
    elif isinstance(sigma_spec, dict) and "generators" in sigma_spec:
        gen_specs = sigma_spec["generators"]
    else:
        raise MalformedSpec(f"bad sigma spec: {sigma_spec!r}")
    if not isinstance(gen_specs, list) or not all(
            gs == "identity" or isinstance(gs, list) and all(type(v) is int for v in gs)
            for gs in gen_specs):
        raise MalformedSpec(f"each sigma generator must be 'identity' or a list of element ids: "
                            f"{sigma_spec!r}")
    generators = [identity_automorphism(ring) if gs == "identity" else check_automorphism(ring, gs)
                  for gs in gen_specs]
    sigma = SigmaRule(ring, group, generators)

    def build_tau(tspec) -> TauRule:
        if not isinstance(tspec, dict):
            raise MalformedSpec(f"tau spec must be an object: {tspec!r}")
        kind = tspec.get("kind", "one")
        if kind == "one":
            return TauOne(ring)
        if kind == "unit_power":
            rule = tspec.get("exponent_rule", "product")
            if rule == "product":
                matrix = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
            else:
                matrix = rule
            if "unit" not in tspec:
                raise MalformedSpec("unit_power tau needs a 'unit'")
            return TauUnitPower(ring, group, tspec["unit"], matrix)
        if kind == "patched":
            triples = tspec.get("overrides", [])
            if "base" not in tspec or not isinstance(triples, list) or not all(
                    isinstance(t, list) and len(t) == 3 and type(t[2]) is int
                    and 0 <= t[2] < ring.size for t in triples):
                raise MalformedSpec("patched tau needs a 'base' and 'overrides' of "
                                    f"[x, y, element id] triples: {tspec!r}")
            return TauPatched(build_tau(tspec["base"]),
                              {(group.canon(x), group.canon(y)): v for x, y, v in triples})
        raise MalformedSpec(f"unknown tau kind {kind!r}")

    tau = build_tau(spec.get("tau", {"kind": "one"}))
    return TwistSystem(ring, group, sigma, tau)


# --- series values ----------------------------------------------------------


class Series:
    """A finitely supported map G -> R \\ {0}; the zero series has no terms."""

    __slots__ = ("twist", "terms")

    def __init__(self, twist: TwistSystem, terms: dict):
        self.twist = twist
        self.terms = terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, x) -> int:
        return self.terms.get(x, 0)

    def support(self) -> list:
        return sorted(self.terms)

    def sorted_terms(self) -> list[tuple]:
        return [(x, self.terms[x]) for x in self.support()]

    def content(self) -> frozenset[int]:
        return frozenset(self.terms.values())

    def __eq__(self, other):
        return (isinstance(other, Series) and self.twist is other.twist
                and self.terms == other.terms)

    def __repr__(self):
        if self.is_zero:
            return "Series(0)"
        body = " + ".join(f"{self.twist.ring.describe(c)}*X^{x}" for x, c in self.sorted_terms())
        return f"Series({body})"


def _same_twist(f: Series, g: Series) -> TwistSystem:
    if f.twist is not g.twist:
        raise TwistMismatch("series belong to different twist systems")
    return f.twist


def series_make(twist: TwistSystem, pairs: Iterable[tuple]) -> Series:
    """Build a series from (exponent, coefficient) pairs; zeros are dropped."""
    terms = {}
    for x, c in pairs:
        x = twist.group.canon(x)
        if x in terms:
            raise DuplicateKey(f"duplicate exponent {x!r}")
        if not 0 <= c < twist.ring.size:
            raise MalformedSpec(f"coefficient {c!r} out of range for {twist.ring.label}")
        if c != 0:
            terms[x] = c
    return Series(twist, terms)


def embed_scalar(twist: TwistSystem, r: int) -> Series:
    """r -> r*X^1; the ring embedding, which needs a normalized twist."""
    if not twist.normalized:
        raise NotNormalized("scalar embedding requires sigma_1 = id and tau(1,.) = tau(.,1) = 1")
    if r == 0:
        return Series(twist, {})
    return Series(twist, {twist.group.identity: r})


def term_product(tw: TwistSystem, a: int, x, b: int, y) -> int:
    """The coefficient contribution a * sigma_x(b) * tau(x, y)."""
    ring = tw.ring
    return ring.mul(ring.mul(a, tw.sigma_at(x).map[b]), tw.tau_at(x, y))


def series_mul(f: Series, g: Series) -> Series:
    tw = _same_twist(f, g)
    ring, grp = tw.ring, tw.group
    acc: dict = {}
    for x, a in f.terms.items():
        sig = tw.sigma_at(x).map
        for y, b in g.terms.items():
            z = grp.op(x, y)
            t = ring.mul(ring.mul(a, sig[b]), tw.tau_at(x, y))
            prev = acc.get(z)
            acc[z] = t if prev is None else ring.add(prev, t)
    return Series(tw, {z: c for z, c in acc.items() if c != 0})


# --- compiled window algebra -------------------------------------------------


def _product_slots(grp: OrderedGroup, win: list) -> tuple[list, list[list[int]]]:
    """The sorted products xy over a window, and slot[i][j], the index of
    x_i x_j among them."""
    exps = [[grp.op(x, y) for y in win] for x in win]
    products = sorted({z for row in exps for z in row})
    index = {z: k for k, z in enumerate(products)}
    return products, [[index[z] for z in row] for row in exps]


class WindowAlgebra:
    """The twisted product on series supported inside one window, as tables.
    The window's exponents are strictly ascending, so position order is
    exponent order; any other window raises MalformedSpec.

    Compiling evaluates every group product, sigma map and tau value of the
    window once. A series is then its list of nonzero (position, coefficient)
    pairs in window order, and a product is its coefficient list over
    `products`, the sorted exponents xy of the window, computed by table
    lookups alone.
    """

    def __init__(self, twist: TwistSystem, window: Sequence):
        grp, ring = twist.group, twist.ring
        win = [grp.canon(x) for x in window]
        if any(x >= y for x, y in zip(win, win[1:])):
            raise MalformedSpec(f"window exponents must be strictly ascending: {window!r}")
        self.twist = twist
        self.window = win
        # slot[i][j]: the index of x_i x_j in `products`
        self.products, self.slot = _product_slots(grp, win)
        # xw[k]: the position pairs (i, j) with x_i x_j = products[k], ascending in x_i
        self.xw = [[] for _ in self.products]
        for i in range(len(win)):
            for j, k in enumerate(self.slot[i]):
                self.xw[k].append((i, j))
        # term[i][a][j][b] = a * sigma_{x_i}(b) * tau(x_i, x_j)
        mul = ring.mul_table
        self.term = []
        for x in win:
            sig = twist.sigma_at(x).map
            taus = [twist.tau_at(x, y) for y in win]
            self.term.append([[[mul[mul[a][sig[b]]][t] for b in ring.elements()]
                               for t in taus] for a in ring.elements()])
        self.add = ring.add_table
        self.neg = [ring.neg(a) for a in ring.elements()]

    def universe(self) -> list[list[tuple]]:
        """Every series inside the window, in the lexicographic order of its
        coefficient tuple over the window positions."""
        return list(_window_terms(self.twist.ring.elements(), len(self.window)))

    def classes(self, members) -> tuple[list[list[tuple]], list[int]]:
        """The class series modulo `members`, an additive subgroup holding 0,
        and their weights, in the order of `universe`.

        At each position a class series holds 0 or the least nonzero member
        of one coset of `members`. Its weight is the number of universe
        series it stands for: the product over its positions of the number
        of nonzero members of that coset (1 for a 0). So the weights sum to
        the universe size, and for members = {0} the class series are the
        universe itself.
        """
        weight = {0: 1}
        for r in self.twist.ring.elements():
            nonzero = {self.add[r][u] for u in members} - {0}
            if nonzero:
                weight[min(nonzero)] = len(nonzero)
        series = list(_window_terms(sorted(weight), len(self.window)))
        return series, [math.prod(weight[c] for _, c in terms) for terms in series]

    def unit_maps(self, side: str) -> list:
        """The unit group H that `representatives` walks, as the byte rows
        of its maps in unit order: every unit multiplying on the left (side
        "left"), or every central unit that every sigma generator fixes,
        multiplying on the right (side "right")."""
        ring, rows = self.twist.ring, self.twist.ring.byte_rows()
        if side == "left":
            return [rows.mul[u] for u in sorted(units(ring))]
        if side == "right":
            return [rows.mul_t[v] for v in sorted(units(ring)) if rows.mul[v] == rows.mul_t[v]
                    and all(g.map[v] == v for g in self.twist.sigma.generators)]
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")

    def representatives(self, side: str, max_support: int
                        ) -> tuple[list[list[tuple]], list[int]]:
        """One series per orbit of the window series with at most
        `max_support` terms, the first of its orbit in universe order, in
        that order, and the orbit sizes, under the maps `unit_maps(side)`;
        a unit keeps supports.

        A tuple is first in its orbit iff each coefficient is least in its
        orbit under the maps that fix the ones before it (McKay 1998). So a
        depth-first walk carries that stabilizer (Seress 2003): it takes 0,
        then, below the support bound, each c that no map lowers, keeping
        the maps that fix c. An orbit has |H| / |stabilizer| members.
        """
        scale = self.unit_maps(side)
        reps, sizes = [], []

        def walk(i, terms, stab):
            if i == len(self.window):
                reps.append(terms)
                sizes.append(len(scale) // len(stab))
                return
            walk(i + 1, terms, stab)
            if len(terms) >= max_support:
                return
            for c, images in enumerate(zip(*stab)):  # c's orbit under stab
                if c and min(images) == c:
                    walk(i + 1, [*terms, (i, c)], [m for m in stab if m[c] == c])

        walk(0, [], scale)
        return reps, sizes

    def check_tables(self):
        """Raise TraceMismatch unless every `term` entry equals term_product,
        evaluated from the twist, and each `xw[k]` holds exactly the position
        pairs (i, j) with slot[i][j] = k. These are the tables a trace reads,
        so this one check vouches for every term of every series the window
        holds; a trace over checked tables compares none of its conclusions
        again. Row term[i][a][j] is compared, as a list, with sigma_x's map
        translated through byte row a, then column tau(x, y); only a row that
        differs is scanned against term_product, to name its first wrong b."""
        twist, win = self.twist, self.window
        grp, elems = twist.group, twist.ring.elements()
        rows = twist.ring.byte_rows()
        for i, x in enumerate(win):
            moved = bytes(twist.sigma_at(x).map)
            scaled = [moved.translate(tab) for tab in rows.mul_tab]  # a sigma_x(b) over b
            for j, y in enumerate(win):
                tau = rows.mul_t_tab[twist.tau_at(x, y)]
                for a in elems:
                    row = self.term[i][a][j]
                    if row == list(scaled[a].translate(tau)):
                        continue
                    for b in elems:
                        if row[b] != term_product(twist, a, x, b, y):
                            raise TraceMismatch(
                                f"term table disagrees with term_product at "
                                f"({grp.to_json(x)}, {grp.to_json(y)}), a={a}, b={b}")
        positions = range(len(win))
        for k, pairs in enumerate(self.xw):
            if sorted(pairs) != [(i, j) for i in positions for j in positions
                                 if self.slot[i][j] == k]:
                raise TraceMismatch(f"X_w pairs disagree with the product slots at "
                                    f"w={grp.to_json(self.products[k])}")

    def multiply(self, f: list[tuple], g: list[tuple]) -> list[int]:
        acc = [0] * len(self.products)
        add = self.add
        for i, a in f:
            rows = self.term[i][a]
            slots = self.slot[i]
            for j, b in g:
                k = slots[j]
                acc[k] = add[acc[k]][rows[j][b]]
        return acc

    def join(self, universe: list[list[tuple]], members,
             partners: list[list[tuple]] | None = None) -> Iterable[tuple]:
        """(p, q, fg) for every pair of f = universe[p] and g = partners[q]
        (partners defaults to universe) whose product fg has all its
        coefficients in `members` (a set holding 0), in f-major, g-minor
        order.

        Over an ordered group the least exponent of fg is x0 y0, for x0 and
        y0 the least exponents of f and g, and only that pair reaches it, so
        its coefficient is the single term f(x0) sigma_x0(g(y0)) tau(x0, y0).
        Likewise the greatest exponent x1 y1, for x1 and y1 the greatest
        exponents, carries the single term f(x1) sigma_x1(g(y1)) tau(x1, y1).
        A pair with either term outside `members` cannot qualify. So the
        partners are bucketed by leading (position, coefficient), each f's
        lead-admissible partners are filtered on their trailing term once per
        (lead, trail) of f, and only the pairs left are multiplied.
        """
        members = frozenset(members)

        def ends(series):
            """The leading and the trailing term of each series, None for 0: the
            first and last listed, as the window is ascending."""
            return ([s[0] if s else None for s in series],
                    [s[-1] if s else None for s in series])

        if partners is None:
            partners = universe
        leads, trails = ends(partners)
        f_leads, f_trails = (leads, trails) if partners is universe else ends(universe)
        trail_keys = set(trails) - {None}
        zeros = [q for q, lead in enumerate(leads) if lead is None]
        buckets: dict[tuple, list[int]] = {}
        for q, lead in enumerate(leads):
            if lead is not None:
                buckets.setdefault(lead, []).append(q)
        everyone = range(len(partners))
        leading: dict[tuple, list[int]] = {}
        admissible: dict[tuple, list[int]] = {}
        for p, f in enumerate(universe):
            lead, trail = f_leads[p], f_trails[p]
            if lead is None:
                candidates = everyone
            elif (lead, trail) in admissible:
                candidates = admissible[lead, trail]
            else:
                if lead not in leading:
                    rows = self.term[lead[0]][lead[1]]
                    leading[lead] = sorted(itertools.chain(
                        zeros, *(qs for (j, b), qs in buckets.items() if rows[j][b] in members)))
                rows = self.term[trail[0]][trail[1]]
                kept = {None, *((j, b) for j, b in trail_keys if rows[j][b] in members)}
                candidates = admissible[lead, trail] = [
                    q for q in leading[lead] if trails[q] in kept]
            for q in candidates:
                fg = self.multiply(f, partners[q])
                if members.issuperset(fg):
                    yield p, q, fg

    def series(self, terms: list[tuple]) -> Series:
        return Series(self.twist, {self.window[i]: c for i, c in terms})


def series_to_json(f: Series) -> list:
    return [[f.twist.group.to_json(x), c] for x, c in f.sorted_terms()]


def series_from_json(twist: TwistSystem, data: list) -> Series:
    if not isinstance(data, list) or not all(
            isinstance(t, list) and len(t) == 2 and type(t[1]) is int for t in data):
        raise MalformedSpec("a series must be a list of [exponent, coefficient] pairs "
                            f"with integer coefficients, got {data!r}")
    return series_make(twist, [(twist.group.from_json(x), c) for x, c in data])


# --- twist-condition checks and the associativity oracle --------------------


@dataclass
class CheckOutcome:
    name: str
    ok: bool
    witness: Any = None

    def to_json(self) -> dict:
        out = {"check": self.name, "ok": self.ok}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class TwistConditionReport:
    window: list
    outcomes: dict[str, CheckOutcome] = field(default_factory=dict)
    # (x, y, z, c) when the single-term triple 1X^x, 1X^y, cX^z does not
    # associate (see check_twist_conditions), None when every triple of
    # series inside the window does. Not part of the JSON report.
    assoc_witness: tuple | None = None

    def __getitem__(self, name: str) -> CheckOutcome:
        return self.outcomes[name]

    @property
    def gate_ok(self) -> bool:
        """The conditions a fixture must pass: unit values, normalization,
        and the cocycle variant that brute-force associativity agrees with."""
        return all(self.outcomes[k].ok for k in ("tau-units", "normalized", "cocycle-standard"))

    def to_json(self) -> dict:
        return {"window": self.window, "gate_ok": self.gate_ok,
                "checks": [o.to_json() for o in self.outcomes.values()]}


def _tau_is_a_fixed_unit_power(twist: TwistSystem) -> bool:
    """True when tau is TauOne, or TauUnitPower whose unit every sigma
    generator fixes: the twists whose conditions hold on every window."""
    tau = twist.tau
    if type(tau) is TauOne:
        return True
    return type(tau) is TauUnitPower and all(
        g.map[tau.unit] == tau.unit for g in twist.sigma.generators)


def check_twist_conditions(twist: TwistSystem, window: Iterable) -> TwistConditionReport:
    """Decide the associativity conditions on sigma and tau over a window.

    Two cocycle readings are evaluated side by side: the composition
    tau(xy,z)*sigma_x(tau(x,y)) = tau(x,yz)*tau(y,z) as literally stated
    alongside the standard tau(x,y)*tau(xy,z) = sigma_x(tau(y,z))*tau(x,yz),
    plus sigma_y sigma_z = sigma_yz . eta(y,z) under both conjugation
    directions for eta. None of them is silently preferred; the
    associativity oracle decides which reading the fixture actually needs.

    The same scan decides associativity on the window exactly
    (`assoc_witness`). The product is additive in each argument, so every
    triple of series inside the window associates iff every single-term
    triple aX^x, bX^y, cX^z does, and both sides of that one carry the left
    factor a*sigma_x(b):
        (fg)h: tau(x,y) * sigma_xy(c) * tau(xy,z)
        f(gh): sigma_x(sigma_y(c)) * sigma_x(tau(y,z)) * tau(x,yz).
    For c = one the difference is that of the standard cocycle, so a
    failing standard cocycle at (x, y, z) is the witness (x, y, z, one).
    Where the standard cocycle holds, the difference is D(x,y,c)*tau(xy,z)
    with D(x,y,c) = tau(x,y)*sigma_xy(c) - sigma_x(sigma_y(c))*tau(x,y).
    D is additive in c, so it suffices that D(x,y,c)*tau(xy,z) = 0 for c
    among the additive generators of R (at most log2 |R| of them, picked by
    greedy_generators); with a = b = one that is also necessary. This needs
    the ring axioms and sigma_x to be a ring automorphism, which every ring
    and twist constructor checks.

    Most twists are decided without the scan. When tau is TauOne (u = 1) or
    TauUnitPower, tau(x, y) = u^B(x, y) with B bilinear and u a central unit
    (TauUnitPower's constructor checks both). If every sigma generator fixes
    u, so does every sigma_x, a product of generator powers, and then
      - each tau value is a power of u, hence a unit;
      - both cocycle readings are u^(B(x,y) + B(x,z) + B(y,z)) on each side;
      - conjugation by tau(y, z) is the identity, and sigma_y sigma_z =
        sigma_yz, since SigmaRule.at composes powers of generators that
        SigmaRule's constructor has checked commute;
    so tau-units, both cocycles and both sigma-eta outcomes hold, and D = 0:
    the window associates. Only `normalized` is evaluated, in O(|window|).
    Every other twist (TauPatched, or a generator that moves u) runs the
    tabulated scan, the only source of failing witnesses: a passing report
    is the one the scan would build, and a failing one is the scan's.
    """
    ring, grp = twist.ring, twist.group
    win = [grp.canon(x) for x in window]
    report = TwistConditionReport(window=[grp.to_json(x) for x in win])
    if _tau_is_a_fixed_unit_power(twist):
        report.outcomes = {name: CheckOutcome(name, True) for name in (
            "tau-units", "normalized", "cocycle-paper", "cocycle-standard",
            "sigma-eta-left", "sigma-eta-right")}
        report.outcomes["normalized"] = CheckOutcome("normalized", *twist.check_normalized(win))
        return report
    unit_set = units(ring)
    mul = ring.mul_table
    gens = list(greedy_generators(ring.add_table, {0}, ring.elements()))
    # every group product and tau value the scans read, evaluated once:
    # tau over window x window, tau(xy, z) over sums x window and tau(x, yz)
    # over window x sums, for sums the sorted products of the window
    sums, slot = _product_slots(grp, win)
    tau = [[twist.tau_at(x, y) for y in win] for x in win]
    tau_sum_z = [[twist.tau_at(s, z) for z in win] for s in sums]
    tau_x_sum = [[twist.tau_at(x, s) for s in sums] for x in win]
    sigma = [twist.sigma_at(x).map for x in win]
    sigma_sum = [twist.sigma_at(s).map for s in sums]
    # D(x, y, .) depends only on tau(x, y), sigma_xy, sigma_x and sigma_y, and
    # an additive map only on its generator images: number those images, and
    # keep the keys where D vanishes on the generators
    classes: dict = {}
    sigma_cls = [classes.setdefault(tuple(m[g] for g in gens), len(classes)) for m in sigma]
    sum_cls = [classes.setdefault(tuple(m[g] for g in gens), len(classes)) for m in sigma_sum]
    images = list(classes)
    d_zero = set()
    n = len(win)

    def pair_witness(i, j, extra=None):
        w = {"x": grp.to_json(win[i]), "y": grp.to_json(win[j])}
        if extra:
            w.update(extra)
        return w

    def triple_witness(a, b, c, lhs, rhs):
        return {"x": grp.to_json(win[a]), "y": grp.to_json(win[b]),
                "z": grp.to_json(win[c]), "lhs": lhs, "rhs": rhs}

    tau_fail = next((pair_witness(a, b, {"tau": tau[a][b]}) for a in range(n) for b in range(n)
                     if tau[a][b] not in unit_set), None)
    report.outcomes["tau-units"] = CheckOutcome("tau-units", tau_fail is None, tau_fail)

    norm_ok, norm_witness = twist.check_normalized(win)
    report.outcomes["normalized"] = CheckOutcome("normalized", norm_ok, norm_witness)

    paper = standard = assoc = None
    for a in range(n):
        sx = sigma[a]
        t_x_sum = tau_x_sum[a]
        for b in range(n):
            txy = tau[a][b]
            sx_txy = sx[txy]
            t_xy_z = tau_sum_z[slot[a][b]]
            mul_txy = mul[txy]
            for c, tyz, yzc, t_xy_zc in zip(range(n), tau[b], slot[b], t_xy_z):
                t_x_yz = t_x_sum[yzc]
                if paper is None:
                    lhs = mul[t_xy_zc][sx_txy]
                    rhs = mul[t_x_yz][tyz]
                    if lhs != rhs:
                        paper = triple_witness(a, b, c, lhs, rhs)
                if standard is None:
                    lhs = mul_txy[t_xy_zc]
                    rhs = mul[sx[tyz]][t_x_yz]
                    if lhs != rhs:
                        standard = triple_witness(a, b, c, lhs, rhs)
                        assoc = (win[a], win[b], win[c], ring.one)
            xy_cls, y_cls = sum_cls[slot[a][b]], sigma_cls[b]
            key = (txy, xy_cls, sigma_cls[a], y_cls)
            if standard is None and assoc is None and key not in d_zero:
                # the standard cocycle holds at every (x, y, z) so far, so
                # compare the two terms of D(x, y, g), times tau(xy, z), on
                # the generators g
                left = [mul_txy[h] for h in images[xy_cls]]
                right = [mul[sx[h]][txy] for h in images[y_cls]]
                if left == right:
                    d_zero.add(key)
                else:
                    assoc = next(((win[a], win[b], win[c], g) for c in range(n)
                                  for g, lg, rg in zip(gens, left, right)
                                  if mul[lg][t_xy_z[c]] != mul[rg][t_xy_z[c]]), None)
            if paper is not None and standard is not None:
                break
        if paper is not None and standard is not None:
            break
    report.outcomes["cocycle-paper"] = CheckOutcome("cocycle-paper", paper is None, paper)
    report.outcomes["cocycle-standard"] = CheckOutcome("cocycle-standard", standard is None, standard)
    report.assoc_witness = assoc

    inverse = {u: unit_inverse(ring, u) for row in tau for u in row if u in unit_set}
    conj_l = conj_r = None
    for b in range(n):
        sy = sigma[b]
        for c in range(n):
            sz = sigma[c]
            syz = sigma_sum[slot[b][c]]
            u = tau[b][c]
            if u not in unit_set:
                continue  # already reported under tau-units
            uinv = inverse[u]
            for r in ring.elements():
                both = sy[sz[r]]
                if conj_l is None and both != syz[mul[mul[u][r]][uinv]]:
                    conj_l = pair_witness(b, c, {"r": r})
                if conj_r is None and both != syz[mul[mul[uinv][r]][u]]:
                    conj_r = pair_witness(b, c, {"r": r})
            if conj_l is not None and conj_r is not None:
                break
        if conj_l is not None and conj_r is not None:
            break
    report.outcomes["sigma-eta-left"] = CheckOutcome("sigma-eta-left", conj_l is None, conj_l)
    report.outcomes["sigma-eta-right"] = CheckOutcome("sigma-eta-right", conj_r is None, conj_r)
    return report


@dataclass
class AssocReport:
    ok: bool
    checked: int
    witness: dict | None = None

    def to_json(self) -> dict:
        out = {"ok": self.ok, "checked": self.checked}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def check_associativity(twist: TwistSystem, triples: Iterable[tuple]) -> AssocReport:
    """(f g) h = f (g h) over the supplied triples; the ground-truth oracle."""
    checked = 0
    for f, g, h in triples:
        checked += 1
        left = series_mul(series_mul(f, g), h)
        right = series_mul(f, series_mul(g, h))
        if left != right:
            return AssocReport(False, checked, {
                "f": series_to_json(f), "g": series_to_json(g), "h": series_to_json(h),
                "left": series_to_json(left), "right": series_to_json(right)})
    return AssocReport(True, checked)


def _window_terms(values: Sequence[int], width: int) -> Iterable[list]:
    """The nonzero (position, coefficient) pairs of every series over `width`
    window positions with each coefficient in `values`, ascending and holding
    0, in coefficient-tuple order."""
    for coeffs in itertools.product(values, repeat=width):
        yield [(i, c) for i, c in enumerate(coeffs) if c]
