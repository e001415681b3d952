"""The thm5.4 extraction scan over class series mod U, against the exact scan.

The oracle is the scan `thm5.4` ran before it moved onto class series:
`WindowAlgebra.join` over every pair of universe series and one `_trace` per
qualifying pair, kept here rather than as a second path in the library. The
class scan must give the same verdict, `pairs`, `qualifying` and witness.
"""

import collections
import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mnseries.cli as cli
import mnseries.transfer as transfer
from mnseries.cli import load_fixture, resolve_fixture, run_suite
from mnseries.errors import TraceMismatch
from mnseries.groups import IntegersGroup, LexProductGroup
from mnseries.ideals import (enumerate_ideals, is_semiprime_ideal,
                             is_sigma_compatible_ideal, make_ideal)
from mnseries.rings import (check_automorphism, ring_from_table, ring_product,
                            ring_trivial_extension, ring_zn, units)
from mnseries.series import WindowAlgebra, trivial_twist, twist_from_spec
from mnseries.transfer import TruncatedUniverse, _trace, extraction_scan
from oracles import ut2_table


def _lift_scan(alg, terms, U, trace=_trace):
    """The exact scan: (pairs decided, qualifying pairs, the failing trace's
    message or None), stopping at the first failing pair."""
    pairs = len(terms) ** 2
    qualifying = 0
    mismatch = None
    try:
        for p, q, fg in alg.join(terms, U.members):
            qualifying += 1
            trace(alg, terms[p], terms[q], U, fg)
    except TraceMismatch as exc:
        pairs = p * len(terms) + q + 1
        mismatch = str(exc)
    return pairs, qualifying, mismatch


def _ut2(n):
    """UT2(Z_n) ([[a, b], [0, c]] has id a*n^2 + b*n + c) and conjugation by
    [[1, 1], [0, 1]] as a permutation."""
    ring = ring_from_table(ut2_table(n))
    u, u_inv = n * n + n + 1, n * n + (n - 1) * n + 1
    return ring, [ring.mul(ring.mul(u, m), u_inv) for m in ring.elements()]


@functools.lru_cache(maxsize=None)
def _ring(kind, *params):
    """A generated ring and one automorphism of it, as a permutation."""
    if kind == "Zn":
        ring = ring_zn(params[0])
        return ring, list(ring.elements())
    if kind == "product":  # the swap when both factors are Z_n
        m, n = params
        ring = ring_product(ring_zn(m), ring_zn(n))
        if m != n:
            return ring, list(ring.elements())
        return ring, [b * n + a for a in range(n) for b in range(n)]
    if kind == "trivial_extension":  # (a, b) -> (a, u b) for a unit u of Z_n
        n, u = params
        return ring_trivial_extension(ring_zn(n)), [a * n + u * b % n
                                                    for a in range(n) for b in range(n)]
    return _ut2(params[0])


@functools.lru_cache(maxsize=None)
def _zip_ideals(kind, *params):
    """The two-sided, semiprime, sigma-compatible ideals: thm5.4's U."""
    ring, perm = _ring(kind, *params)
    sigma = check_automorphism(ring, perm)
    return [U for U in enumerate_ideals(ring, "twosided")
            if is_semiprime_ideal(U).ok and is_sigma_compatible_ideal(U, [sigma]).ok]


@st.composite
def _zip_cases(draw):
    """A ring of at most 64 elements, a U that require_zip accepts (a proper
    one, where there is one, half the time), a twist over Z or Z^2_lex whose
    sigma is the ring's automorphism and whose tau is a power of a central
    unit it fixes, and a window of at most 256 series (64 when U = R)."""
    kind = draw(st.sampled_from(["Zn", "product", "trivial_extension", "ut2"]))
    if kind == "Zn":
        params = (draw(st.integers(2, 16)),)
    elif kind == "product":
        m = draw(st.integers(2, 4))
        params = (m, draw(st.integers(2, 16 // m)))
    elif kind == "trivial_extension":
        n = draw(st.integers(2, 4))
        params = (n, draw(st.sampled_from(sorted(units(ring_zn(n))))))
    else:
        params = (draw(st.sampled_from([2, 4])),)
    ring, perm = _ring(kind, *params)
    ideals = _zip_ideals(kind, *params)
    proper = [U for U in ideals if 1 < len(U.members) < ring.size]
    U = draw(st.sampled_from(proper if proper and draw(st.booleans()) else ideals))
    fixed = [v for v in sorted(units(ring)) if perm[v] == v and all(
        ring.mul(v, r) == ring.mul(r, v) for r in ring.elements())]
    unit = draw(st.sampled_from(fixed))
    # every pair qualifies when U is the ring, so its universe is kept smaller
    limit = 64 if len(U.members) == ring.size else 256
    width = draw(st.integers(1, max(w for w in (1, 2, 3) if ring.size ** w <= limit)))
    if draw(st.booleans()):
        group, k, rule = IntegersGroup(), 1, "product"
        window = draw(st.lists(st.integers(-2, 2), min_size=width, max_size=width,
                               unique=True))
    else:
        group, k = LexProductGroup(2), 2
        rule = [[draw(st.integers(-1, 1)) for _ in range(2)] for _ in range(2)]
        window = draw(st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                               min_size=width, max_size=width, unique=True))
    twist = twist_from_spec(ring, group, {
        "sigma": {"generators": [perm] * k},
        "tau": {"kind": "unit_power", "unit": unit, "exponent_rule": rule}})
    return TruncatedUniverse(twist, window), U


@settings(max_examples=40, deadline=None)
@given(_zip_cases())
def test_class_scan_matches_the_exact_scan_on_generated_rings(case):
    universe, U = case
    assert extraction_scan(universe, U) == _lift_scan(universe.algebra,
                                                      universe.algebra.universe(), U)


def test_class_series_partition_the_universe():
    """Each universe series lies in the class series that keeps its zeros
    and replaces each other coefficient with the least nonzero member of its
    coset; the weights count those series, and U = {0} gives the universe."""
    rings = [ring_zn(4), ring_zn(6), ring_product(ring_zn(2), ring_zn(2)),
             ring_trivial_extension(ring_zn(2)), _ut2(2)[0]]
    for ring in rings:
        alg = WindowAlgebra(trivial_twist(ring), [0, 1])
        universe = alg.universe()
        for U in enumerate_ideals(ring, "twosided"):
            classes, weights = alg.classes(U.members)

            def rep(c):
                return min(x for x in ring.elements() if x and ring.sub(x, c) in U.members)

            lifts = collections.Counter(tuple((i, rep(c)) for i, c in s) for s in universe)
            assert dict(zip(map(tuple, classes), weights)) == lifts, U.sorted_members()
            assert classes == [s for s in universe if tuple(s) in lifts]
            if U.members == {0}:
                assert classes == universe and set(weights) == {1}


def test_check_tables_catches_a_wrong_term_and_a_wrong_x_w(tw_z4_tau):
    alg = WindowAlgebra(tw_z4_tau, [0, 1, 2])
    alg.check_tables()
    alg.term[0][3][0][2] = 0
    with pytest.raises(TraceMismatch, match="term table disagrees"):
        alg.check_tables()
    alg = WindowAlgebra(tw_z4_tau, [0, 1, 2])
    alg.xw[2].pop()
    with pytest.raises(TraceMismatch, match="X_w pairs disagree"):
        alg.check_tables()


# --- mutations the class scan must still catch ---------------------------------


def _thm54_with_a_corrupted_algebra(monkeypatch, edit):
    """thm5.4 on z4_tau_power (Z4, U = {0, 2}) with `edit` applied to every
    window algebra. A failed table check raises out of the extraction scan,
    so the report holds the suite's one `derivation trace mismatch` check."""
    fx = load_fixture(resolve_fixture("z4_tau_power"))
    real = WindowAlgebra.__init__

    def corrupted(alg, twist, window):
        real(alg, twist, window)
        edit(alg)

    monkeypatch.setattr(WindowAlgebra, "__init__", corrupted)
    report = run_suite(fx, "thm5.4")
    assert report.status == "fail"
    [check] = report.checks
    assert (check.prop, check.verdict, check.note) == ("thm5.4", False,
                                                       "derivation trace mismatch")
    return check


def test_a_wrong_term_only_a_non_representative_lift_reads_is_caught(monkeypatch):
    """The coset {1, 3} is represented by 1, so no class trace reads a term
    with a = 3; the table check, run before any trace, catches it."""
    def edit(alg):
        classes, _ = alg.classes({0, 2})
        assert all(c != 3 for s in classes for _, c in s)
        i = alg.window.index(0)
        assert alg.term[i][3][i][2] == 2  # 3 * sigma_0(2) * tau(0, 0)
        alg.term[i][3][i][2] = 0          # still inside U

    check = _thm54_with_a_corrupted_algebra(monkeypatch, edit)
    assert check.witness == "term table disagrees with term_product at (0, 0), a=3, b=2"


def test_a_dropped_x_w_pair_is_caught(monkeypatch):
    dropped = []

    def edit(alg):
        k = max(range(len(alg.xw)), key=lambda k: len(alg.xw[k]))
        alg.xw[k].pop()
        dropped.append(alg.products[k])

    check = _thm54_with_a_corrupted_algebra(monkeypatch, edit)
    assert check.witness == f"X_w pairs disagree with the product slots at w={dropped[0]}"


def test_a_class_trace_failing_on_checked_tables_reruns_the_exact_scan(monkeypatch):
    """A trace that rejects one qualifying pair of class series, on tables
    that pass the check, makes the scan rerun every lift pair: it reports
    that pair's position, the qualifying pairs up to it and the message,
    as the exact scan does."""
    fx = load_fixture(resolve_fixture("z4_tau_power"))
    U = fx.ideals["U"]
    universe = TruncatedUniverse(fx.twist, fx.group.window(*fx.cap("window")))
    alg = universe.algebra
    classes, _ = alg.classes(U.members)
    rejected = [(classes[p], classes[q]) for p, q, _ in alg.join(classes, U.members)
                if classes[p] and classes[q]][-1]
    real = transfer._trace

    def rejecting(alg, f, g, U, fg):
        if (f, g) == rejected:
            raise TraceMismatch("rejected")
        return real(alg, f, g, U, fg)

    expected = _lift_scan(alg, alg.universe(), U, rejecting)
    assert expected[2] == "rejected" and expected[0] < len(universe) ** 2
    monkeypatch.setattr(transfer, "_trace", rejecting)
    assert extraction_scan(universe, U) == expected


# --- the work, not the time ------------------------------------------------------


def test_z16_thm54_traces_each_qualifying_class_pair_once(tmp_path, monkeypatch, capsys):
    """Z16 over the window 0..2 has 16^6 pairs, 3,932,160 of them with fg in
    U((G)) for U = (2); the class scan decides them with at most one trace
    per qualifying pair of its 27 class series."""
    doc = {"label": "z16", "ring": {"kind": "Zn", "n": 16}, "group": {"group": "Z"},
           "twist": {"sigma": "identity", "tau": {"kind": "one"}},
           "ideals": {"U": {"kind": "twosided", "gens": [2]}},
           "caps": {"window": [0, 2]}}
    path = tmp_path / "z16.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path), "--suite", "thm5.4", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    check = next(c for c in report["checks"] if c["property"] == "extraction-vs-oracle")
    assert check["verdict"] is True
    assert check["certificate"] == {"pairs": 16_777_216, "qualifying": 3_932_160}

    # the series-zip checks trace too, so the scan's traces are counted alone
    fx = load_fixture(path)
    universe = TruncatedUniverse(fx.twist, fx.group.window(0, 2))
    real = transfer._trace
    traces = []

    def counting(*args):
        traces.append(args)
        return real(*args)

    monkeypatch.setattr(transfer, "_trace", counting)
    assert extraction_scan(universe, fx.ideals["U"]) == (16_777_216, 3_932_160, None)
    assert 0 < len(traces) <= 368


def test_the_class_scan_traces_no_pair_with_a_zero_factor(monkeypatch):
    """Over Z2 x Z2 (reduced, so U = {0} is semiprime) every universe series
    is a class series, and the zero one qualifies with all 64. Its traces
    have no X_w pair and conclude nothing, so the scan leaves them out and
    still counts them: the result is the exact scan's, one trace per
    qualifying pair of nonzero series."""
    ring, _ = _ring("product", 2, 2)
    twist = trivial_twist(ring, IntegersGroup())
    U = make_ideal(ring, {0})
    universe = TruncatedUniverse(twist, [0, 1, 2])
    terms = universe.algebra.universe()
    exact = _lift_scan(universe.algebra, terms, U)
    assert exact[2] is None
    real, traced = transfer._trace, []

    def recording(alg, f, g, U, fg):
        traced.append((f, g))
        return real(alg, f, g, U, fg)

    monkeypatch.setattr(transfer, "_trace", recording)
    assert extraction_scan(universe, U) == exact
    assert all(f and g for f, g in traced)
    assert len(traced) == exact[1] - (2 * len(terms) - 1)
