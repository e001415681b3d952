"""Seeded fixture ladder: every document the benchmark hands to `mn`.

`write_fixtures(directory, seed)` writes one JSON fixture per ladder rung
and returns {name: path}. The six fixtures shipped in src/mnseries/fixtures
are read from there (the GF4 table inlined); the other rungs are built
here. The seed drives every random choice:

- rings given by explicit tables (GF4, UT2(Z2), UT2(Z4)) get their nonzero
  elements relabelled by a seeded permutation, and every element id the
  document names (one, sigma generators, ideal members, series
  coefficients) is mapped with it;
- ideals of Z_n given by generators are presented through a seeded unit
  multiple of each generator, which generates the same ideal;
- the ladder's own series fixtures carry a seeded series `f` inside the
  suite window.

None of these choices changes a verdict of a correct program, so one
recorded outcome per cell holds for every seed, while the report bytes
(element names, witnesses, the seed itself) do change with the seed.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

SHIPPED = Path(__file__).resolve().parent.parent / "src" / "mnseries" / "fixtures"
Z = {"group": "Z"}
Z2_LEX = {"group": "Z^k_lex", "k": 2}
UNTWISTED = {"sigma": "identity", "tau": {"kind": "one"}}
TAU3 = {"sigma": "identity",  # tau(x, y) = 3^(xy)
        "tau": {"kind": "unit_power", "unit": 3, "exponent_rule": "product"}}


def zn(n: int) -> dict:
    return {"kind": "Zn", "n": n}


def product(*factors: dict) -> dict:
    """Right-nested direct product (the ring spec takes two factors)."""
    if len(factors) == 1:
        return factors[0]
    return {"kind": "product", "factors": [factors[0], product(*factors[1:])]}


def ut2_table(n: int) -> dict:
    """Upper-triangular 2x2 matrices over Z_n: [[a, b], [0, c]] has id
    a*n^2 + b*n + c, so the zero matrix is id 0."""
    elems = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    index = {e: i for i, e in enumerate(elems)}
    add = [[index[((a + x) % n, (b + y) % n, (c + z) % n)] for (x, y, z) in elems]
           for (a, b, c) in elems]
    mul = [[index[(a * x % n, (a * y + b * z) % n, c * z % n)] for (x, y, z) in elems]
           for (a, b, c) in elems]
    return {"label": f"UT2(Z{n})", "size": len(elems), "add": add, "mul": mul,
            "one": index[(1, 0, 1)]}


class _Relabel:
    """A seeded permutation of the element ids 1..size-1 (0 stays zero)."""

    def __init__(self, rng: random.Random, size: int):
        rest = list(range(1, size))
        rng.shuffle(rest)
        self.perm = [0] + rest

    def __call__(self, a: int) -> int:
        return self.perm[a]

    def table(self, data: dict) -> dict:
        p, size = self.perm, data["size"]
        add = [[0] * size for _ in range(size)]
        mul = [[0] * size for _ in range(size)]
        for a in range(size):
            for b in range(size):
                add[p[a]][p[b]] = p[data["add"][a][b]]
                mul[p[a]][p[b]] = p[data["mul"][a][b]]
        out = {"kind": "table", "label": data["label"], "size": size,
               "add": add, "mul": mul, "one": p[data["one"]]}
        if "names" in data:
            names = [None] * size
            for a, name in enumerate(data["names"]):
                names[p[a]] = name
            out["names"] = names
        return out

    def automorphism(self, mapping: list[int]) -> list[int]:
        out = [0] * len(mapping)
        for a, b in enumerate(mapping):
            out[self.perm[a]] = self.perm[b]
        return out


def _unit_gens(rng: random.Random, n: int, gens: list[int]) -> list[int]:
    """The same ideal of Z_n, generated by seeded unit multiples of gens."""
    unit_ids = [u for u in range(1, n) if math.gcd(u, n) == 1]
    return [g * rng.choice(unit_ids) % n for g in gens]


def _series(rng: random.Random, exponents: list, size: int, relabel=None) -> list:
    chosen = sorted(rng.sample(range(len(exponents)), rng.randint(1, min(3, len(exponents)))))
    terms = []
    for i in chosen:
        c = rng.randrange(1, size)
        terms.append([exponents[i], relabel(c) if relabel else c])
    return terms


def _z_fixture(rng, label, n, twist=UNTWISTED, suites=(), caps=None):
    """Z_n over Z with U = (2)."""
    return {"label": label, "ring": zn(n), "group": Z, "twist": twist,
            "ideals": {"U": {"kind": "twosided", "gens": _unit_gens(rng, n, [2])}},
            "series": {"f": _series(rng, [0, 1, 2], n)},
            "suites": list(suites), "caps": caps or {}}


SHIPPED_NAMES = ("z4_example_5_5", "t_z4_example_5_6", "klein_fusible", "gf4_frobenius",
                 "z4_tau_power", "z4_tau_corrupted")


def _shipped(rng: random.Random, name: str) -> dict:
    """A shipped fixture with its table ring inlined and relabelled, and the
    ideal generators of a Z_n ring replaced by seeded unit multiples."""
    doc = json.loads((SHIPPED / f"{name}.json").read_text())
    ring = doc["ring"]
    if ring["kind"] == "table":
        data = ring
        if "path" in ring:
            data = json.loads((SHIPPED / ring["path"]).read_text())
        relabel = _Relabel(rng, data["size"])
        doc["ring"] = relabel.table(data)
        sigma = doc.get("twist", {}).get("sigma")
        if isinstance(sigma, dict):
            for key in ("generator", "generators"):
                if key in sigma:
                    maps = sigma[key] if key == "generators" else [sigma[key]]
                    mapped = [relabel.automorphism(m) for m in maps]
                    sigma[key] = mapped if key == "generators" else mapped[0]
        for ideal in doc.get("ideals", {}).values():
            for key in ("gens", "members"):
                if key in ideal:
                    ideal[key] = [relabel(a) for a in ideal[key]]
        for terms in doc.get("series", {}).values():
            for term in terms:
                term[1] = relabel(term[1])
    elif ring["kind"] == "Zn":
        for ideal in doc.get("ideals", {}).values():
            if "gens" in ideal:
                ideal["gens"] = _unit_gens(rng, ring["n"], ideal["gens"])
    return doc


def ladder(seed: int) -> dict[str, dict]:
    """Every fixture document of the ladder, built from one seed."""
    rng = random.Random(seed)
    docs = {}

    # the six shipped fixtures, with seeded relabelling and unit generators
    for name in SHIPPED_NAMES:
        docs[name] = _shipped(rng, name)
    gf4_ring = json.loads((SHIPPED / "gf4_ring.json").read_text())
    frobenius = [gf4_ring["mul"][a][a] for a in range(gf4_ring["size"])]  # x -> x^2

    # series ladder: Z8, Z8 with tau = 3^(xy), Z2^3, Z16, and the Z^2_lex twists
    docs["z8"] = _z_fixture(rng, "z8", 8)
    docs["z8_tau"] = _z_fixture(rng, "z8_tau", 8, TAU3)
    docs["z16"] = _z_fixture(rng, "z16", 16)
    docs["z2cubed"] = {
        "label": "z2cubed", "ring": product(zn(2), zn(2), zn(2)), "group": Z,
        "twist": UNTWISTED, "ideals": {"U": {"kind": "twosided", "members": [0]}},
        "series": {"f": _series(rng, [0, 1, 2], 8)}, "suites": [], "caps": {}}
    lex = [[0, 0], [0, 1], [1, 0], [1, 1]]
    docs["z4_z2lex_tau"] = {
        "label": "z4_z2lex_tau", "ring": zn(4), "group": Z2_LEX,
        "twist": {"sigma": "identity",
                  "tau": {"kind": "unit_power", "unit": 3, "exponent_rule": [[0, 1], [0, 0]]}},
        "ideals": {"U": {"kind": "twosided", "gens": _unit_gens(rng, 4, [2])}},
        "series": {"f": _series(rng, lex, 4)}, "suites": [], "caps": {"window": [0, 1]}}
    gf4 = _Relabel(rng, gf4_ring["size"])
    frob = gf4.automorphism(frobenius)
    docs["gf4_z2lex"] = {
        "label": "gf4_z2lex", "ring": gf4.table(gf4_ring), "group": Z2_LEX,
        "twist": {"sigma": {"generators": [frob, frob]}, "tau": {"kind": "one"}},
        "ideals": {"U": {"kind": "twosided", "members": [0]}},
        "series": {"f": _series(rng, lex, 4, gf4)}, "suites": [], "caps": {"window": [0, 1]}}

    # noncommutative table rings
    ut = _Relabel(rng, 8)
    docs["ut2_z2"] = {
        "label": "ut2_z2", "ring": ut.table(ut2_table(2)), "group": Z, "twist": UNTWISTED,
        "ideals": {"U": {"kind": "twosided", "members": [0]}}, "suites": [], "caps": {}}
    ut = _Relabel(rng, 64)
    docs["ut2_z4"] = {"label": "ut2_z4", "ring": ut.table(ut2_table(4)), "suites": [],
                      "caps": {}}

    # twist-free 64-element rungs (and the smaller cyclic ones below them)
    for n in (16, 32, 64):
        docs[f"z{n}_plain"] = {"label": f"z{n}_plain", "ring": zn(n), "suites": [], "caps": {}}
    docs["t_z8"] = {"label": "t_z8", "ring": {"kind": "trivial_extension", "base": zn(8)},
                    "suites": [], "caps": {}}
    docs["z4cubed"] = {"label": "z4cubed", "ring": product(zn(4), zn(4), zn(4)),
                       "suites": [], "caps": {}}
    return docs


def write_fixtures(directory: Path, seed: int) -> dict[str, Path]:
    """Write the ladder for `seed` into `directory`; return {name: path}."""
    paths = {}
    for name, doc in ladder(seed).items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1))
        paths[name] = path
    return paths
