"""Fixture loading, verification suites, and report emission.

Fixtures are single JSON documents naming a ring, an optional ordered group
and twist, named ideals and series, the suites the fixture claims to
satisfy, and caps on two search limits. A fixture's twist is validated on
load (cocycle conditions plus associativity, decided exactly from their
tables) before any suite touches it. `--seed` draws only the subset pools
of `ideals` and `examples` on rings of more than 12 elements; every other
check scans what it decides.

Exit codes: 0 all applicable checks pass (not-applicable suites warn),
1 a check failed, 2 the fixture or the command line is invalid.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

from .errors import (HypothesisFails, MNSeriesError, ParseError, PreconditionFail,
                     SizeCapExceeded, SuiteUnknown, TraceMismatch, ValidationError)
from .groups import COORD_BOUND, OrderedGroup, group_make
from .ideals import (IdealSet, annihilator, classify_kind, enumerate_ideals,
                     ideal_closure, is_semiprime_ideal, is_sigma_compatible_ideal,
                     make_ideal, nil_radical, quotient_ideal, singleton_quotient_masks,
                     weak_annihilator)
from .properties import (DEFAULT_WITNESS_CAP, PropertyReport, is_G_armendariz,
                         is_IN, is_SA, is_left_fusible, is_right_nonsingular,
                         is_sigma_compatible_ring, right_zip_witness, sigma_u_zip_scan,
                         sigma_u_zip_witness, weak_zip_witness, zero_divisor_sets, _right_zip,
                         _right_zip_pool, _sigma_u_zip, _sigma_u_zip_pool, _weak_zip,
                         _weak_zip_pool)
from .rings import (FiniteRing, check_automorphism, check_ring_axioms,
                    identity_automorphism, positions, ring_make, units)
# series_mul is not called here: perfbench/selfcheck.py checks that its tracer
# wraps a function imported into this module, and it names this one
from .series import (AssocReport, Series, TwistSystem, check_associativity,
                     check_twist_conditions, series_from_json, series_make,
                     series_mul, series_to_json, twist_from_spec)
from .transfer import (TruncatedUniverse, extraction_scan, lift_universe,
                       lifted_annihilator_check, require_fusible, require_zip,
                       sa_transfer_witness, series_zip_witness, universe_count)

# the limits a fixture's "caps" may set (window and max_support also by flag)
DEFAULT_CAPS = {
    "window": [0, 2],
    "max_support": 3,
}
# fixed limits; the ring, universe and witness caps live where they are enforced
TWIST_WINDOW = (-3, 3)      # cocycle conditions at load
TWIST_TRIPLE_CAP = 343 ** 3  # their exponent triples: Z^3_lex's window, not Z^4_lex's
UNIVERSE_WINDOW = (0, 1)    # lemma4.3's and thm4.5's universe
IDEAL_PAIR_LIMIT = 16       # lemma4.3's ideal pairs, thm4.5's configurations (plus one)
SEEDED_SUBSETS = 50         # drawn with --seed when 2^|R| is too many subsets to scan

SUITE_NAMES = ("ring-axioms", "ideals", "properties", "prop3.2",
               "lemma4.3", "thm4.5", "thm5.4", "examples")


@dataclass
class Fixture:
    label: str
    ring: FiniteRing
    group: OrderedGroup | None = None
    twist: TwistSystem | None = None
    ideals: dict[str, IdealSet] = field(default_factory=dict)
    series: dict[str, Series] = field(default_factory=dict)
    suites: list[str] = field(default_factory=list)
    caps: dict = field(default_factory=dict)
    # (twist conditions, associativity) from load-time validation
    validation: tuple | None = None

    def cap(self, key):
        return self.caps.get(key, DEFAULT_CAPS[key])

    def sigma_family(self):
        if self.twist is not None:
            return self.twist.sigma_generators()
        return [identity_automorphism(self.ring)]


def fixture_dir():
    return resources.files(__package__).joinpath("fixtures")


def shipped_fixtures() -> list[str]:
    return sorted(p.name[:-5] for p in fixture_dir().iterdir()
                  if p.name.endswith(".json") and not p.name.endswith("_ring.json"))


def resolve_fixture(name_or_path: str) -> Path:
    p = Path(name_or_path)
    if p.exists():
        return p
    shipped = fixture_dir().joinpath(f"{name_or_path}.json")
    if shipped.is_file():
        return Path(str(shipped))
    raise ParseError(f"no fixture file or shipped fixture named {name_or_path!r} "
                     f"(shipped: {', '.join(shipped_fixtures())})")


def _window_problem(lo: int, hi: int) -> str | None:
    """What makes lo..hi unusable as an exponent window, or None: it must be
    nonempty, and the sum of two of its exponents (a product's support) must
    stay inside the group's coordinate bound."""
    if lo > hi:
        return f"{lo}..{hi} is empty (lo > hi)"
    if 2 * max(-lo, hi) > COORD_BOUND:
        return f"{lo}..{hi} has exponent sums beyond the coordinate bound {COORD_BOUND}"
    return None


def _validate_twist(label: str, twist: TwistSystem):
    """Cocycle conditions on TWIST_WINDOW plus associativity of series inside it;
    a window with more than TWIST_TRIPLE_CAP exponent triples is refused before it is built.

    `check_twist_conditions` decides tau one, and a unit power whose unit
    every sigma generator fixes, from the tau kind in O(|window|); any other
    twist has its exponent triples scanned, which decides associativity on
    the window exactly. A twist that associates reports as checked the
    exponent triples that decision covers, none of them multiplied out. One
    that does not names a single-term triple 1X^x, 1X^y, cX^z
    (`assoc_witness`), which is multiplied out through `check_associativity`
    for the error's witness; if that oracle finds the triple associative,
    the tables are wrong and TraceMismatch is raised.
    """
    triples = twist.group.window_size(*TWIST_WINDOW) ** 3
    if triples > TWIST_TRIPLE_CAP:
        raise ValidationError(f"fixture {label!r}: twist validation would scan {triples} "
                              f"exponent triples, over the cap of {TWIST_TRIPLE_CAP}")
    cond = check_twist_conditions(twist, twist.group.window(*TWIST_WINDOW))
    assoc_witness = None
    if cond.assoc_witness is not None:
        x, y, z, c = cond.assoc_witness
        one = twist.ring.one
        triple = (series_make(twist, [(x, one)]), series_make(twist, [(y, one)]),
                  series_make(twist, [(z, c)]))
        probe = check_associativity(twist, [triple])
        if probe.ok:
            at = [*map(twist.group.to_json, (x, y, z)), c]
            raise TraceMismatch(
                f"fixture {label!r}: the twist tables find 1X^x, 1X^y, cX^z not associative "
                f"at (x, y, z, c) = {json.dumps(at)}, "
                "but check_associativity multiplies them out equal")
        assoc_witness = probe.witness
    if not cond.gate_ok or assoc_witness is not None:
        failed = [name for name, o in cond.outcomes.items() if not o.ok]
        msg = f"fixture {label!r}: twist validation failed ({', '.join(failed) or 'associativity'})"
        if assoc_witness is not None:
            msg += f"; associativity witness: {json.dumps(assoc_witness, sort_keys=True)}"
        raise ValidationError(msg)
    return cond, AssocReport(True, triples)


def _checked_caps(label: str, caps: dict) -> dict:
    """The caps over DEFAULT_CAPS, or a ValidationError naming the first that
    is unknown or out of range; for a fixture's own caps and for a suite
    run's overrides alike."""
    for key in caps:
        if key not in DEFAULT_CAPS:
            raise ValidationError(f"fixture {label!r}: unknown cap {key!r}")
    caps = {**DEFAULT_CAPS, **caps}
    for key, default in DEFAULT_CAPS.items():
        value = caps[key]
        if type(default) is int and type(value) is not int:
            raise ValidationError(f"fixture {label!r}: cap {key!r} must be an integer")
        if key == "max_support" and value < 0:
            raise ValidationError(f"fixture {label!r}: cap 'max_support' must be >= 0")
        if type(default) is list and not (isinstance(value, list) and len(value) == 2
                                          and all(type(v) is int for v in value)):
            raise ValidationError(f"fixture {label!r}: cap {key!r} must be a pair of integers")
    problem = _window_problem(*caps["window"])
    if problem:
        raise ValidationError(f"fixture {label!r}: cap 'window' {problem}")
    return caps


def load_fixture(path: str | Path, validate: bool = True) -> Fixture:
    """Parse and validate one fixture document."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "ring" not in data:
        raise ParseError(f"{path} must be an object with at least a 'ring' spec")

    label = data.get("label", path.stem)

    def section(key, kind):
        value = data.get(key, kind())
        if not isinstance(value, kind):
            raise ValidationError(f"fixture {label!r}: {key!r} must be "
                                  + ("an object" if kind is dict else "a list"))
        return value

    caps = _checked_caps(label, section("caps", dict))
    try:
        ring = ring_make(data["ring"], base_dir=path.parent)
    except MNSeriesError as exc:
        raise ValidationError(f"fixture {label!r}: bad ring: {exc}") from exc

    group = twist = validation = None
    if "group" in data or "twist" in data:
        try:
            group = group_make(data.get("group", {"group": "Z"}))
        except MNSeriesError as exc:
            raise ValidationError(f"fixture {label!r}: bad group: {exc}") from exc
    if "twist" in data:
        try:
            twist = twist_from_spec(ring, group, data["twist"])
        except MNSeriesError as exc:
            raise ValidationError(f"fixture {label!r}: bad twist: {exc}") from exc
        if validate:
            validation = _validate_twist(label, twist)

    ideals = {}
    for name, spec in section("ideals", dict).items():
        elems = spec.get("gens", spec.get("members")) if isinstance(spec, dict) else None
        if not isinstance(elems, list) or not all(type(a) is int and 0 <= a < ring.size
                                                  for a in elems):
            raise ValidationError(f"fixture {label!r}: bad ideal {name!r}: 'gens' or 'members' "
                                  f"must be a list of elements 0..{ring.size - 1}")
        kind = spec.get("kind", "twosided")
        if kind not in ("left", "right", "twosided"):
            raise ValidationError(f"fixture {label!r}: bad ideal {name!r}: 'kind' must be "
                                  "left, right or twosided")
        try:
            if "gens" in spec:
                ideals[name] = ideal_closure(ring, spec["gens"], kind)
            else:
                ideals[name] = make_ideal(ring, spec["members"], kind)
        except (MNSeriesError, ValueError, KeyError) as exc:
            raise ValidationError(f"fixture {label!r}: bad ideal {name!r}: {exc}") from exc

    series = {}
    for name, terms in section("series", dict).items():
        if twist is None:
            raise ValidationError(f"fixture {label!r}: series need a twist")
        try:
            series[name] = series_from_json(twist, terms)
        except MNSeriesError as exc:
            raise ValidationError(f"fixture {label!r}: bad series {name!r}: {exc}") from exc

    suites = list(section("suites", list))
    for s in suites:
        if s not in SUITE_NAMES:
            raise ValidationError(f"fixture {label!r}: unknown suite {s!r}")
    return Fixture(label, ring, group, twist, ideals, series, suites, caps, validation)


# --- suite runners -----------------------------------------------------------


def _suite_ring_axioms(fx: Fixture, seed: int) -> Iterator[PropertyReport]:
    rep = check_ring_axioms(fx.ring)
    yield PropertyReport(
        "ring-axioms", rep.passed,
        witness=[{"axiom": r.axiom, "witness": list(r.witness)}
                 for r in rep.failures()] or None,
        certificate={"axioms": len(rep.results)} if rep.passed else None)
    us = units(fx.ring)
    mul, rows, one = fx.ring.mul_table, fx.ring.byte_rows().mul, fx.ring.one
    closed = all(us.issuperset(map(mul[a].__getitem__, us)) for a in us)
    inverses = all(any(b in us and mul[b][a] == one for b in positions(rows[a], one))
                   for a in us)
    yield PropertyReport("units-group", one in us and closed and inverses,
                         certificate={"units": sorted(us)})
    if fx.twist is not None:
        bad = None
        for i, gen in enumerate(fx.twist.sigma_generators()):
            try:
                check_automorphism(fx.ring, gen.map)
            except MNSeriesError as exc:
                bad = {"generator": i, "error": str(exc)}
                break
        yield PropertyReport("sigma-automorphisms", bad is None, witness=bad)


def _subset_pool(ring: FiniteRing, seed: int):
    """Deterministic nonempty subsets: exhaustive when 2^|R| is small,
    otherwise all singletons plus SEEDED_SUBSETS seeded draws of size <= 4."""
    n = ring.size
    if (1 << n) <= DEFAULT_WITNESS_CAP:
        return [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(1, 1 << n)]
    rng = random.Random(seed)
    pool = [frozenset({a}) for a in range(n)]
    while len(pool) < n + SEEDED_SUBSETS:
        size = rng.randint(2, 4)
        pool.append(frozenset(rng.sample(range(n), size)))
    return pool


def _suite_ideals(fx: Fixture, seed: int) -> Iterator[PropertyReport]:
    ring = fx.ring
    two = enumerate_ideals(ring, "twosided")
    right = enumerate_ideals(ring, "right")
    yield PropertyReport(
        "ideal-enumeration", True,
        certificate={"twosided": [i.sorted_members() for i in two],
                     "right_count": len(right)})

    idem_witness = None
    for ideal in two + right:
        if ideal_closure(ring, ideal.members, ideal.kind).members != ideal.members:
            idem_witness = ideal.sorted_members()
            break
    yield PropertyReport("closure-idempotent", idem_witness is None, witness=idem_witness)

    pool = _subset_pool(ring, seed)
    zero_ideal = make_ideal(ring, {0})
    agree_witness = None
    for xs in pool:
        if quotient_ideal(zero_ideal, xs) != annihilator(ring, xs):
            agree_witness = sorted(xs)
            break
    yield PropertyReport("quotient-annihilator-agreement",
                         agree_witness is None, witness=agree_witness,
                         bounds={"subsets": len(pool)})

    pair_witness = None
    contain_witness = None
    twosided = set()  # quotients already classified two-sided
    for U in right:
        for V in right:
            q = quotient_ideal(U, V)
            if pair_witness is None and q not in twosided:
                if classify_kind(ring, q) == "twosided":
                    twosided.add(q)
                else:
                    pair_witness = {"U": U.sorted_members(), "V": V.sorted_members()}
            # U <= (U:V) is promised whenever V.U stays inside U; products are
            # additive in each argument, so the additive generators decide it
            if contain_witness is None and not U.members <= q and all(
                    ring.mul_table[v][u] in U.members
                    for v in V.additive_generators for u in U.additive_generators):
                contain_witness = {"U": U.sorted_members(), "V": V.sorted_members(),
                                   "quotient": sorted(q)}
    yield PropertyReport("right-pair-quotient-twosided", pair_witness is None,
                         witness=pair_witness)
    yield PropertyReport("quotient-contains-U", contain_witness is None,
                         witness=contain_witness)

    nil, is_ni = nil_radical(ring)
    semi_witness = None
    for ideal in two:
        if is_semiprime_ideal(ideal).ok and not nil <= ideal.members:
            semi_witness = ideal.sorted_members()
            break
    yield PropertyReport("nil-inside-semiprime", semi_witness is None,
                         witness=semi_witness,
                         certificate={"nil": sorted(nil), "NI": is_ni})

    if is_ni:
        nil_ideal = make_ideal(ring, nil)
        wa_witness = None
        for xs in pool:
            if weak_annihilator(ring, xs, nil) != quotient_ideal(nil_ideal, xs):
                wa_witness = sorted(xs)
                break
        yield PropertyReport("weak-annihilator-is-nil-quotient",
                             wa_witness is None, witness=wa_witness,
                             bounds={"subsets": len(pool)})


def _suite_properties(fx: Fixture, seed: int) -> Iterator[PropertyReport]:
    ring = fx.ring
    fam = fx.sigma_family()
    zd = zero_divisor_sets(ring)
    yield PropertyReport(
        "zero-divisors", True,
        certificate={"left": sorted(zd.left), "left_regular": sorted(zd.left_regular),
                     "right": sorted(zd.right), "right_regular": sorted(zd.right_regular)})
    yield is_left_fusible(ring)
    yield is_sigma_compatible_ring(ring, fam)
    yield is_right_nonsingular(ring)
    yield is_IN(ring)
    yield is_SA(ring)
    nil, is_ni = nil_radical(ring)
    yield PropertyReport("nil-radical", True, certificate={"nil": sorted(nil), "NI": is_ni})
    for name, ideal in sorted(fx.ideals.items()):
        if ideal.kind != "twosided":
            continue
        sp = is_semiprime_ideal(ideal)
        yield PropertyReport(f"semiprime-{name}", sp.ok,
                             witness=list(sp.witness) if sp.witness else None)
        sc = is_sigma_compatible_ideal(ideal, fam)
        yield PropertyReport(f"sigma-compatible-{name}", sc.ok, witness=sc.witness)
    if fx.twist is not None:
        try:
            garm = is_G_armendariz(_window_universe(fx, fx.twist), fx.cap("max_support"))
        except SizeCapExceeded as exc:
            garm = PropertyReport("G-armendariz", None, note=f"skipped: {exc}",
                                  bounds=exc.bounds)
        yield garm


def _property_suite_status(checks: list[PropertyReport]) -> str:
    """The properties suite reports verdicts as data; it only fails if a
    checker broke down (no verdict and not a deliberate skip)."""
    for c in checks:
        if c.verdict is None and not (c.note or "").startswith(("skipped", "not_applicable")):
            return "fail"
    return "pass"


def _twist(fx: Fixture) -> TwistSystem:
    """The fixture's twist, or PreconditionFail when it has none."""
    if fx.twist is None:
        raise PreconditionFail("fixture has no twist")
    return fx.twist


def _window_universe(fx: Fixture, twist: TwistSystem) -> TruncatedUniverse:
    """The truncated universe over the fixture's window, or SizeCapExceeded
    from `universe_count`. The window is counted before it is listed, so a
    wide Z^k_lex window is refused without building its exponents."""
    lo, hi = fx.cap("window")
    universe_count(fx.ring.size, fx.group.window_size(lo, hi))
    return TruncatedUniverse(twist, fx.group.window(lo, hi))


def _suite_prop32(fx: Fixture, seed: int) -> Iterator[PropertyReport]:
    twist = _twist(fx)
    require_fusible(twist)
    universe = _window_universe(fx, twist)
    count, failed = lift_universe(universe, fx.cap("max_support"))
    failures = [{"f": series_to_json(f), "lift": lift.to_json()} for f, lift in failed]
    yield PropertyReport(
        "fusible-lift", not failures, witness=failures or None,
        certificate={"series": count},
        bounds={"window": fx.cap("window"), "max_support": fx.cap("max_support"),
                "universe": universe.describe()})


def _suite_lemma43(fx: Fixture, seed: int) -> Iterator[PropertyReport]:
    universe = TruncatedUniverse(_twist(fx), fx.group.window(*UNIVERSE_WINDOW))
    right = enumerate_ideals(fx.ring, "right")
    pairs = [(I, J) for I in right for J in right][:IDEAL_PAIR_LIMIT]
    for I, J in pairs:
        for side in ("left", "right"):
            yield lifted_annihilator_check(I, J, side, universe)
    if len(right) ** 2 > IDEAL_PAIR_LIMIT:
        yield PropertyReport("pair-coverage", None, note=(
            f"skipped: only first {IDEAL_PAIR_LIMIT} of {len(right) ** 2} pairs run"))


def _suite_thm45(fx: Fixture, seed: int) -> Iterator[PropertyReport]:
    twist = _twist(fx)
    universe = TruncatedUniverse(twist, fx.group.window(*UNIVERSE_WINDOW))
    win = universe.window
    two = enumerate_ideals(fx.ring, "twosided")
    configs = [("empty", [], [])]
    for I in two:
        for J in two:
            gens_i = [series_make(twist, [(win[k % len(win)], c)])
                      for k, c in enumerate(sorted(I.members - {0}))]
            gens_j = [series_make(twist, [(win[(k + 1) % len(win)], c)])
                      for k, c in enumerate(sorted(J.members - {0}))]
            configs.append((f"{I.sorted_members()}x{J.sorted_members()}", gens_i, gens_j))
    limit = IDEAL_PAIR_LIMIT + 1
    for name, gi, gj in configs[:limit]:
        rep = sa_transfer_witness(gi, gj, universe)
        rep.certificate = dict(rep.certificate or {}, config=name)
        yield rep
    if len(configs) > limit:
        yield PropertyReport("config-coverage", None,
                             note=f"skipped: only first {limit} of {len(configs)} configurations run")


def _suite_thm54(fx: Fixture, seed: int) -> Iterator[PropertyReport]:
    twist = _twist(fx)
    U = fx.ideals.get("U")
    if U is None:
        raise PreconditionFail("fixture names no ideal 'U'")
    require_zip(U, twist)

    yield sigma_u_zip_scan(fx.ring, U)

    try:
        universe = _window_universe(fx, twist)
    except SizeCapExceeded as exc:
        bounds = {"window": fx.cap("window"), **exc.bounds}
        for prop in ("extraction-vs-oracle", "series-zip"):
            yield PropertyReport(prop, None, bounds=bounds, note=f"skipped: {exc}")
        return
    exps = universe.window
    pairs, qualifying, mismatch = extraction_scan(universe, U)
    yield PropertyReport(
        "extraction-vs-oracle", mismatch is None, witness=mismatch,
        certificate={"pairs": pairs, "qualifying": qualifying},
        bounds={"window": fx.cap("window")})

    candidates = [a for a in fx.ring.elements() if a not in U.members
                  and quotient_ideal(U, {a}) == U.members]
    if not candidates:
        yield PropertyReport("series-zip", None,
                             note="skipped: no element outside U satisfies (U:{a}) = U")
        return
    outside = candidates[0]
    configs = [[series_make(twist, [(twist.group.identity, outside)])]]
    inside = sorted(a for a in U.members if a != 0)
    if inside and len(exps) > 1:
        configs.append([series_make(twist, [(exps[0], inside[0])]),
                        series_make(twist, [(exps[1], outside)])])
    for X in configs:
        yield series_zip_witness(X, U, universe)


def _suite_examples(fx: Fixture, seed: int) -> Iterator[PropertyReport]:
    ring = fx.ring
    proper_two = {name: ideal for name, ideal in sorted(fx.ideals.items())
                  if ideal.kind == "twosided" and len(ideal.members) < ring.size}
    for name, U in proper_two.items():
        scan = sigma_u_zip_scan(ring, U)
        scan.certificate = dict(scan.certificate or {}, ideal=name)
        yield scan
        single = singleton_quotient_masks(U)
        quotients = {str(v): [x for x in ring.elements() if single[v] >> x & 1]
                     for v in ring.elements() if v not in U.members}
        yield PropertyReport(f"singleton-quotients-{name}", True,
                             certificate={"U": U.sorted_members(), "quotients": quotients})

    fam = fx.sigma_family()
    zero_ideal = make_ideal(ring, {0})
    # (ideal, its sigma-compatibility, the specialized search's core, its
    # decisions over every subset, its report, its disagreement key); each X
    # is decided by the cores, and the two reports are built for the first
    # X on which they disagree
    comparisons = [(zero_ideal, is_sigma_compatible_ideal(zero_ideal, fam).ok,
                    lambda xs: _right_zip(ring, xs), lambda: _right_zip_pool(ring),
                    lambda xs: right_zip_witness(ring, xs), "right_zip")]
    nil, is_ni = nil_radical(ring)
    if is_ni:
        nil_ideal = make_ideal(ring, nil)
        comparisons.append((nil_ideal, is_sigma_compatible_ideal(nil_ideal, fam).ok,
                            lambda xs: _weak_zip(ring, xs, nil), lambda: _weak_zip_pool(ring, nil),
                            lambda xs: weak_zip_witness(ring, xs, nil), "weak_zip"))
    disagreement = None
    # an exhaustive pool is decided whole by one subset DP per core; if the
    # decisions differ, or a core has none for some X, the loop below runs
    # and finds the first X, its reports and any mismatch as it always has
    if (1 << ring.size) <= DEFAULT_WITNESS_CAP and all(
            (decisions := _sigma_u_zip_pool(ideal)) is not None and decisions == pool_core()
            for ideal, _, _, pool_core, _, _ in comparisons):
        subsets = (1 << ring.size) - 1
        compared = subsets * len(comparisons)
    else:
        pool = _subset_pool(ring, seed)
        subsets, compared = len(pool), 0
        for subset in pool:
            xs = sorted(subset)
            for ideal, compatible, core, _, oracle, key in comparisons:
                compared += 1
                if _sigma_u_zip(ideal, xs) != core(xs):
                    disagreement = {"X": xs,
                                    "sigma_u_zip": sigma_u_zip_witness(ring, ideal, xs,
                                                                       compatible).to_json(),
                                    key: oracle(xs).to_json()}
                    break
            if disagreement:
                break
    yield PropertyReport(
        "zip-specialization-agreement", disagreement is None,
        witness=disagreement, certificate={"comparisons": compared},
        bounds={"subsets": subsets, "NI": is_ni})


_SUITES = {
    "ring-axioms": _suite_ring_axioms,
    "ideals": _suite_ideals,
    "properties": _suite_properties,
    "prop3.2": _suite_prop32,
    "lemma4.3": _suite_lemma43,
    "thm4.5": _suite_thm45,
    "thm5.4": _suite_thm54,
    "examples": _suite_examples,
}


@dataclass
class SuiteReport:
    fixture: str
    suite: str
    seed: int
    params: dict
    checks: list[PropertyReport]
    status: str
    elapsed: float = 0.0

    def to_json(self, include_timing: bool = False) -> dict:
        out = {"fixture": self.fixture, "suite": self.suite, "seed": self.seed,
               "params": self.params, "status": self.status,
               "checks": [c.to_json(include_timing) for c in self.checks]}
        if include_timing:
            out["elapsed"] = self.elapsed
        return out


def _timed(checks: Iterable[PropertyReport], start: float) -> list[PropertyReport]:
    """Drain a suite's checks, stamping each with the seconds since the
    previous one (the first: since `start`), so the checks add up to the
    suite and setup is charged to the first check that needs it."""
    out = []
    for check in checks:
        now = time.perf_counter()
        check.elapsed, start = now - start, now
        out.append(check)
    return out


def run_suite(fixture: Fixture, suite: str, seed: int = 0,
              overrides: dict | None = None) -> SuiteReport:
    """Run one named suite; preconditions that fail make the suite
    not-applicable unless the fixture claims it, in which case they fail it.
    `overrides` replace caps and pass the checks of a fixture's own caps: an
    unknown or out-of-range one raises a ValidationError (exit 2).
    A scan over its cap skips the suite with a null verdict. A suite that
    ends in one of these exceptions drops the checks it yielded so far for
    one check of its own, timed from the suite's start."""
    if suite not in _SUITES:
        raise SuiteUnknown(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    if overrides:
        fixture = replace(fixture, caps=_checked_caps(fixture.label,
                                                      {**fixture.caps, **overrides}))
    params = {"window": fixture.cap("window"), "max_support": fixture.cap("max_support"),
              "universe_window": list(UNIVERSE_WINDOW)}
    start = time.perf_counter()
    try:
        checks = _timed(_SUITES[suite](fixture, seed), start)
    except PreconditionFail as exc:
        claimed = suite in fixture.suites
        status = "fail" if claimed else "not_applicable"
        note = ("claimed applicable but precondition failed: "
                if claimed else "not_applicable: ") + str(exc)
        checks = _timed([PropertyReport(suite, False if claimed else None, note=note)], start)
    except SizeCapExceeded as exc:
        status = "pass"
        checks = _timed([PropertyReport(suite, None, note=f"skipped: {exc}",
                                        bounds=exc.bounds)], start)
    except TraceMismatch as exc:
        status = "fail"
        checks = _timed([PropertyReport(suite, False, witness=str(exc),
                                        note="derivation trace mismatch")], start)
    except HypothesisFails as exc:
        status = "fail"
        checks = _timed([PropertyReport(suite, False, witness=exc.witness,
                                        note=f"hypothesis_fails: {exc}")], start)
    else:
        if suite == "properties":
            status = _property_suite_status(checks)
        else:
            status = "pass" if all(c.verdict is not False for c in checks) else "fail"
    return SuiteReport(fixture.label, suite, seed, params, checks, status,
                       time.perf_counter() - start)


# --- rendering ----------------------------------------------------------------


def _compact(value, limit: int = 200) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return text if len(text) <= limit else text[:limit] + "..."


REPORT_KEYS = ("fixture", "suite", "seed", "status", "checks")


def _check_report(data) -> dict:
    """A saved suite report, or ParseError naming what makes it not one."""
    if not isinstance(data, dict):
        raise ParseError("a report must be a JSON object")
    missing = [k for k in REPORT_KEYS if k not in data]
    if missing:
        raise ParseError(f"report has no {', '.join(repr(k) for k in missing)} key")
    if not isinstance(data["status"], str):
        raise ParseError("report 'status' must be a string")
    checks = data["checks"]
    if not isinstance(checks, list) or not all(
            isinstance(c, dict) and "property" in c and c.get("verdict") in (True, False, None)
            for c in checks):
        raise ParseError("report 'checks' must be a list of objects, each with a "
                         "'property' and a true, false or null 'verdict'")
    if "elapsed" in data and not isinstance(data["elapsed"], (int, float)):
        raise ParseError("report 'elapsed' must be a number")
    return data


def _render_text(data: dict) -> str:
    lines = [f"suite {data['suite']} on {data['fixture']} "
             f"(seed {data['seed']}): {data['status'].upper()}"]
    # the properties battery reports verdicts as facts, not pass/fail checks
    tags = {True: "true", False: "false", None: "info"} if data["suite"] == "properties" \
        else {True: "PASS", False: "FAIL", None: "INFO"}
    for check in data["checks"]:
        verdict = check.get("verdict")
        tag = tags[verdict]
        line = f"  [{tag}] {check['property']}"
        if check.get("note"):
            line += f"  ({check['note']})"
        if verdict is not True and check.get("witness") is not None:
            line += f"  witness: {_compact(check['witness'])}"
        elif check.get("certificate") is not None:
            line += f"  {_compact(check['certificate'], 120)}"
        lines.append(line)
    if "elapsed" in data:
        lines.append(f"  elapsed: {data['elapsed']:.3f}s")
    return "\n".join(lines)


_quote = json.encoder.encode_basestring_ascii
_SCALAR_JSON = {None: "null", True: "true", False: "false"}
_JSON_TYPES = frozenset((str, int, float, list, tuple, dict, bool, type(None)))


def _json_type(value) -> type:
    """The JSON kind json.dumps writes a subclass of a JSON type as."""
    for kind in (str, int, float, list, dict):
        if isinstance(value, kind):
            return kind
    if isinstance(value, tuple):
        return list
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _float_json(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key_json(key) -> str:
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, float):
        return _quote(_float_json(key))
    if key is True or key is False or key is None:
        return _quote(_SCALAR_JSON[key])
    if isinstance(key, int):
        return _quote(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def canonical_json(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte.

    With an indent, json.dumps runs the pure-Python encoder, a generator per
    nesting level that yields every separator on its own; dispatching on the
    exact type and joining each container's members once is about twice as
    fast on large reports. `newline` is the line break plus the indent of
    the enclosing level.
    """
    kind = type(value)
    if kind not in _JSON_TYPES:
        kind = _json_type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    inner = newline + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:  # exact ints: no bools or int subclasses
            items = map(int.__repr__, value)
        else:
            items = [canonical_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        return ("{" + inner + ("," + inner).join([
            _key_json(k) + ": " + canonical_json(v, inner) for k, v in sorted(value.items())])
            + newline + "}")
    if kind is float:
        return _float_json(value)
    return _SCALAR_JSON[value]


def emit_report(report: SuiteReport | dict, fmt: str = "text",
                include_timing: bool = False) -> str:
    """Serialize a suite report; json output is canonical and timing-free by
    default so identical runs emit identical bytes."""
    data = report.to_json(include_timing) if isinstance(report, SuiteReport) else report
    if fmt == "json":
        return canonical_json(data)
    if fmt == "text":
        return _render_text(data)
    raise ValueError(f"unknown format {fmt!r}")


# --- command line ---------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0)


def _parse_window(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    try:
        window = [int(lo), int(hi)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"window must look like 'a..b', got {text!r}")
    problem = _window_problem(*window)
    if problem:
        raise argparse.ArgumentTypeError(f"window {problem}")
    return window


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `mn` command line, built once per process: parsing leaves the
    parser as it was, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="mn", description="Validate and verify finite twisted-series fixtures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load a fixture and report its validation")
    p.add_argument("fixture")
    _add_common(p)

    p = sub.add_parser("ideals", help="enumerate the ideals of a fixture's ring")
    p.add_argument("fixture")
    p.add_argument("--kind", choices=("twosided", "right", "left"), default="twosided")
    _add_common(p)

    p = sub.add_parser("props", help="run the base-ring property battery")
    p.add_argument("fixture")
    p.add_argument("--property", dest="prop")
    _add_common(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("fixture")
    p.add_argument("--suite", required=True)
    p.add_argument("--window", type=_parse_window)
    p.add_argument("--max-support", type=int, dest="max_support")
    p.add_argument("--out", type=Path)
    p.add_argument("--timings", action="store_true",
                   help="add suite and check elapsed seconds to the report (and --out)")
    _add_common(p)

    p = sub.add_parser("report", help="re-render a saved suite report")
    p.add_argument("path", type=Path)
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv=None) -> int:
    """Run one `mn` command and return its exit code. A reader that closes
    the pipe early (`mn ... | head`) ends the run with 1 and no traceback:
    stdout is pointed at os.devnull, so the flush at exit writes nothing.
    An interrupt (Ctrl-C) ends it with 130 and one stderr line naming it."""
    try:
        code = _run(build_parser().parse_args(argv))
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except KeyboardInterrupt:
        print(f"interrupted: mn {' '.join(sys.argv[1:] if argv is None else argv)}",
              file=sys.stderr)
        return 130
    return code


def _run(args) -> int:
    try:
        if args.command == "report":
            try:
                data = json.loads(args.path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                print(f"error: cannot load report: {exc}", file=sys.stderr)
                return 2
            print(emit_report(_check_report(data), args.format))
            return 0

        path = resolve_fixture(args.fixture)
        if args.command == "validate":
            fx = load_fixture(path)
            payload = {"fixture": fx.label, "valid": True,
                       "ring": {"label": fx.ring.label, "size": fx.ring.size},
                       "suites_claimed": fx.suites,
                       "ideals": {k: v.to_json() for k, v in sorted(fx.ideals.items())}}
            if fx.validation is not None:
                cond, assoc = fx.validation
                payload["twist"] = cond.to_json()
                payload["associativity"] = assoc.to_json()
            if args.format == "json":
                print(canonical_json(payload))
            else:
                print(f"fixture {fx.label}: valid "
                      f"(ring {fx.ring.label}, {fx.ring.size} elements; "
                      f"suites: {', '.join(fx.suites) or 'none claimed'})")
            return 0

        if args.command == "ideals":
            fx = load_fixture(path)
            found = enumerate_ideals(fx.ring, args.kind)
            if args.format == "json":
                print(canonical_json({"fixture": fx.label, "kind": args.kind,
                                      "ideals": [i.sorted_members() for i in found]}))
            else:
                print(f"{len(found)} {args.kind} ideals of {fx.ring.label}:")
                for i in found:
                    print(f"  {i.describe()}")
            return 0

        if args.command == "props":
            fx = load_fixture(path)
            checks = list(_suite_properties(fx, args.seed))
            if args.prop is not None:
                matched = [c for c in checks if c.prop == args.prop]
                if not matched:
                    raise SuiteUnknown(f"no property named {args.prop!r}; available: "
                                       + ", ".join(c.prop for c in checks))
                checks = matched
            report = SuiteReport(fx.label, "properties", args.seed, {}, checks,
                                 _property_suite_status(checks))
            print(emit_report(report, args.format))
            return 0 if report.status == "pass" else 1

        if args.command == "verify":
            fx = load_fixture(path)
            overrides = {}
            if args.window is not None:
                overrides["window"] = args.window
            if args.max_support is not None:
                if args.max_support < 0:
                    raise ValidationError(f"--max-support must be >= 0, got {args.max_support}")
                overrides["max_support"] = args.max_support
            report = run_suite(fx, args.suite, seed=args.seed, overrides=overrides)
            print(emit_report(report, args.format, args.timings))
            if args.out:
                args.out.write_text(emit_report(report, "json", args.timings) + "\n")
            if report.status == "not_applicable":
                print(f"warning: suite {args.suite} not applicable to {fx.label}",
                      file=sys.stderr)
                return 0
            return 0 if report.status == "pass" else 1
    except (ParseError, ValidationError, SuiteUnknown) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MNSeriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
