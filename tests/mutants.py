"""Mutation checks: does each seeded fault make its named tests fail?

A mutant is one exact source replacement in one file under `src/`. For
each mutant the script copies `src/`, `tests/` and `pyproject.toml` into a
temporary directory, applies the replacement there (the old text must
occur exactly once), runs the mutant's tests with `pytest -x -q` in that
directory, and reports the mutant as killed (the tests fail) or survived
(they pass). A mutant whose tests cannot run at all is reported as an
error. The working tree is never changed.

    python3 tests/mutants.py                # every mutant
    python3 tests/mutants.py NAME [NAME..]  # the named ones
    python3 tests/mutants.py --list         # names and what they break

Run from anywhere; the paths are taken relative to this file. Exits 0 when
every mutant that ran was killed, 1 otherwise. A surviving mutant that
changes behaviour is a missing test. Each run starts a pytest process, so
the full set takes a while and is kept out of the test suite, which runs
one cheap mutant only.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    what: str
    path: str         # relative to src/
    old: str
    new: str
    tests: tuple      # pytest arguments, relative to the repository root


_UNIVERSE = "tests/test_universe.py"
_SA_TABLE = "tests/test_table_kernels.py"

MUTANTS = {
    # a member is its index in universe order
    "digits-least-significant-first": Mutant(
        "a member's index is decoded with its first window position least significant",
        "mnseries/transfer.py",
        "i // size ** (w - 1 - j) % size",
        "i // size ** j % size",
        (_UNIVERSE, "-k", "members_decode_to_their_listed_terms")),
    "with-coeffs-in-without-zero": Mutant(
        "with_coeffs_in leaves 0 out of the coefficients it allows",
        "mnseries/transfer.py",
        "values = sorted({0, *coeffs})",
        "values = sorted(set(coeffs))",
        (_UNIVERSE, "-k", "members_decode_to_their_listed_terms")),
    "kernel-no-coset-reduction": Mutant(
        "the quotient kernel keeps raw coefficients instead of coset representatives, "
        "so only exact zeros pass",
        "mnseries/transfer.py",
        "rep = [min(row[m] for m in members) for row in ring_add]",
        "rep = [row[0] for row in ring_add]",
        (_UNIVERSE, "-k", "quotient_kernel_matches_the_scan_on_every_case")),
    "kernel-phi-on-the-wrong-side": Mutant(
        "phi_j(b) multiplies b X^(x_j) on the other side of each factor",
        "mnseries/transfer.py",
        'if side == "right" else mul([(j, b)], s)',
        'if side == "left" else mul([(j, b)], s)',
        (_UNIVERSE, "-k", "quotient_kernel_matches_the_scan_on_every_case")),
    "kernel-matches-v-not-minus-v": Mutant(
        "a second-half sum is matched with the bucket of itself, not of its negative",
        "mnseries/transfer.py",
        "buckets.get(v.translate(neg), ())",
        "buckets.get(v, ())",
        (_UNIVERSE, "-k", "second_halves_with_their_negatives")),
    "annihilator-first-generator-only": Mutant(
        "an annihilator reads only the first greedy generator of its coefficients",
        "mnseries/transfer.py",
        "sorted(coeffs - {0})))\n",
        "sorted(coeffs - {0})))[:1]\n",
        (_UNIVERSE, "-k", "annihilators_on_generators_match_every_coefficient")),
    "annihilator-left-reads-the-right-table": Mutant(
        "a left annihilator reads c X^(x_i) * b X^(x_j), the right side's entry, "
        "instead of b X^(x_j) * c X^(x_i)",
        "mnseries/transfer.py",
        'if side == "right":  # term[i][c][j][b]',
        'if True:  # term[i][c][j][b]',
        (_UNIVERSE, "-k", "ut2_annihilators_differ_by_side or "
         "annihilators_on_generators_match_every_coefficient")),
    "annihilator-box-reads-one-position": Mutant(
        "an annihilator's box reads the generator terms at the first window "
        "position only",
        "mnseries/transfer.py",
        "singles = [(i, c) for i in positions for c in gens]",
        "singles = [(i, c) for i in positions[:1] for c in gens]",
        (_UNIVERSE, "-k", "annihilators_on_generators_match_every_coefficient")),
    "annihilator-box-reads-the-first-generator": Mutant(
        "an annihilator's box reads the terms of the first greedy generator only",
        "mnseries/transfer.py",
        "singles = [(i, c) for i in positions for c in gens]",
        "singles = [(i, c) for i in positions for c in gens[:1]]",
        (_UNIVERSE, "-k", "annihilators_on_generators_match_every_coefficient")),
    "annihilator-skips-the-table-check": Mutant(
        "the annihilator box, which lemma4.3 and thm4.5 decide the lifts with, "
        "reads term tables it has not checked",
        "mnseries/transfer.py",
        "term, size = self.checked_algebra().term,",
        "term, size = self.algebra.term,",
        (_UNIVERSE, "-k", "wrong_term_fails_the_lifted_annihilator_check")),
    "killers-filed-under-the-wrong-h": Mutant(
        "every killer the batch join finds is filed under the batch's first h",
        "mnseries/transfer.py",
        "found[distinct[p]].append(q)",
        "found[distinct[0]].append(q)",
        (_UNIVERSE, "-k", "batch_killers_match_the_scan")),
    "killers-join-k-times-h": Mutant(
        "the batch join keeps the k with k*h = 0, not h*k = 0",
        "mnseries/transfer.py",
        "for p, q, _ in self.checked_algebra().join(distinct, {0}, self.terms()):",
        "for q, p, _ in self.checked_algebra().join(self.terms(), {0}, distinct):",
        (_UNIVERSE, "-k", "batch_killers_match_the_scan")),
    "killers-keep-the-zero-series": Mutant(
        "the zero series is left among each h's killers",
        "mnseries/transfer.py",
        "            if q:  # member 0 is the zero series\n",
        "            if True:\n",
        (_UNIVERSE, "-k", "lift_decides_regularity_as_the_scan_does")),
    "lift-s0-at-the-last-term": Mutant(
        "prop3.2's universe lift splits a member at its last nonzero position, not its first",
        "mnseries/transfer.py",
        "            s0, c = terms[0]\n",
        "            s0, c = terms[-1]\n",
        (_UNIVERSE, "-k", "universe_lift_matches_the_series_oracle_on_every_case")),
    "lift-h-keeps-c-at-s0": Mutant(
        "prop3.2's universe lift tests the member itself for regularity: its h keeps "
        "the coefficient c at s0, not the regular part b",
        "mnseries/transfer.py",
        "hs.append([(s0, b), *terms[1:]] if b else terms[1:])",
        "hs.append(terms)",
        (_UNIVERSE, "-k", "universe_lift_matches_the_series_oracle_on_every_case")),
    "lift-split-cached-per-position": Mutant(
        "the (a, b, d) split is kept per leading position, not per leading coefficient",
        "mnseries/transfer.py",
        "            parts = splits.get(c)\n"
        "            if parts is None:\n"
        "                a, b = fusible_decompositions(ring, c)[0]\n"
        "                d = next(r for r in range(1, ring.size) if ring.mul_table[a][r] == 0)\n"
        "                parts = splits[c] = ",
        "            parts = splits.get(s0)\n"
        "            if parts is None:\n"
        "                a, b = fusible_decompositions(ring, c)[0]\n"
        "                d = next(r for r in range(1, ring.size) if ring.mul_table[a][r] == 0)\n"
        "                parts = splits[s0] = ",
        (_UNIVERSE, "-k", "universe_lift_matches_the_series_oracle_on_every_case")),
    "lift-max-support-off-by-one": Mutant(
        "the universe lift leaves out the members with exactly max_support terms",
        "mnseries/transfer.py",
        "if terms and len(terms) <= max_support:",
        "if terms and len(terms) < max_support:",
        ("tests/test_cli.py", "-k", "prop32_lifts_every_nonzero_series")),
    "left-fusible-recheck-dropped": Mutant(
        "is_left_fusible reports its witness without splitting it again",
        "mnseries/properties.py",
        "    if splits:\n",
        "    if False:\n",
        ("tests/test_cli.py", "-k", "lying_kernel_fails_properties")),
    "left-fusible-true-recheck-dropped": Mutant(
        "is_left_fusible reports True without splitting every nonzero element",
        "mnseries/properties.py",
        "if not any(ring.sub(a, z) in zd.left_regular for z in zd.left):",
        "if False:",
        ("tests/test_cli.py", "-k", "lying_kernel_fails_properties")),
    "sa-witness-recheck-dropped": Mutant(
        "is_SA reports its witness without forming r(I) + r(J) again with set_sum",
        "mnseries/properties.py",
        "if direct != target:",
        "if False:",
        ("tests/test_cli.py", "-k", "lying_kernel_fails_properties")),
    "sa-recheck-dropped": Mutant(
        "is_SA files K without comparing r(K) with r(I) + r(J)",
        "mnseries/properties.py",
        "if rann[K] != target:",
        "if False:",
        ("tests/test_cli.py", "-k", "lying_kernel_fails_properties")),
    "g-armendariz-recheck-dropped": Mutant(
        "is_G_armendariz reports its witness pair without multiplying it again",
        "mnseries/properties.py",
        "if not fg.is_zero or ab == 0:",
        "if False:",
        ("tests/test_window.py", "-k", "rechecks_its_witness")),
    "g-armendariz-true-recheck-dropped": Mutant(
        "is_G_armendariz reports True without counting its single-term pairs against "
        "the vanishing products the twist gives",
        "mnseries/properties.py",
        "if single_terms != vanishing:",
        "if False:",
        ("tests/test_window.py", "-k", "rechecks_a_true_verdict")),
    "g-armendariz-reads-unchecked-tables": Mutant(
        "is_G_armendariz joins through the universe's tables without their check",
        "mnseries/properties.py",
        "    alg = universe.checked_algebra()\n",
        "    alg = universe.algebra\n",
        ("tests/test_window.py", "-k", "properties_g_armendariz_reads_checked_tables")),
    "g-armendariz-support-bound-strict": Mutant(
        "is_G_armendariz leaves out the members with exactly max_support terms",
        "mnseries/properties.py",
        "if len(terms) <= max_support]",
        "if len(terms) < max_support]",
        ("tests/test_window.py", "-k", "g_armendariz_matches_loop")),
    # the window algebra takes strictly ascending windows only
    "window-ascending-check-passes-equal-neighbours": Mutant(
        "a window with two equal adjacent exponents compiles",
        "mnseries/series.py",
        "if any(x >= y for x, y in zip(win, win[1:])):",
        "if any(x > y for x, y in zip(win, win[1:])):",
        ("tests/test_window.py", "-k", "must_be_distinct")),
    # the window join's prune
    "join-trail-reads-the-lead-row": Mutant(
        "the trailing check reads the table row of f's leading term, not its trailing one",
        "mnseries/series.py",
        "rows = self.term[trail[0]][trail[1]]",
        "rows = self.term[lead[0]][lead[1]]",
        ("tests/test_window.py", "-k", "join_prunes_no_qualifying_pair")),
    "join-trail-at-the-least-exponent": Mutant(
        "the trailing term is taken at the least exponent, so the join prunes by "
        "leading term alone",
        "mnseries/series.py",
        "[s[-1] if s else None",
        "[s[0] if s else None",
        ("tests/test_window.py", "-k", "join_multiplies_only_pairs")),
    # the ideal lattices joined from the product table's principal ideals
    "right-lattice-reads-columns": Mutant(
        "the principal right ideals are read from the columns of the product table",
        "mnseries/ideals.py",
        '{"right": mul, "left": zip(*mul)}',
        '{"right": zip(*mul), "left": mul}',
        ("tests/test_table_kernels.py", "-k", "lattices_match_the_worklist_lattice")),
    "twosided-filter-multiplies-on-the-right": Mutant(
        "the two-sided filter tests I*R inside I, which every right ideal passes, "
        "not R*I",
        "mnseries/ideals.py",
        "if all(mul[r][g] in I.members",
        "if all(mul[g][r] in I.members",
        ("tests/test_table_kernels.py", "-k", "lattices_match_the_worklist_lattice")),
    "lattice-skips-a-principal-below-a-join": Mutant(
        "a principal ideal inside some ideal already seen is skipped, though its sums "
        "with the others may be new",
        "mnseries/ideals.py",
        "if P in seen:",
        "if any(P <= I for I in seen):",
        ("tests/test_table_kernels.py", "-k", "lattices_match_the_worklist_lattice")),
    # the earlier table and window fast paths
    "left-annihilator-reads-rows": Mutant(
        "l(X) reads the rows x of the product table, not its columns",
        "mnseries/rings.py",
        '(self.mul if side == "right" else self.mul_t)',
        '(self.mul if side == "right" else self.mul)',
        ("tests/test_table_kernels.py", "-k", "annihilators_match_the_elementwise_scans")),
    # the builders' path past the entry check
    "loaded-table-skips-the-entry-check": Mutant(
        "a ring table read from a document is built through the builders' path, "
        "which skips the entry check",
        "mnseries/rings.py",
        'ring = FiniteRing(data["label"],',
        'ring = FiniteRing._built(data["label"],',
        ("tests/test_rings.py", "-k", "loaded_table_keeps_the_entry_check")),
    # the row masks of the ideals layer and of the zip searches, in the ring's memo
    "mask-memo-key-without-side": Mutant(
        "the row masks are filed without their side, so l(X) reads the masks of r(X)",
        "mnseries/ideals.py",
        "return ring.once((kernel, keep, side), lambda: (",
        "return ring.once((kernel, keep), lambda: (",
        ("tests/test_table_kernels.py", "-k", "interleaved_kernels_keep_their_own_masks")),
    "mask-memo-key-without-kept-set": Mutant(
        "the row masks are filed without their kept set, so (U:X) reads the masks of "
        "another U",
        "mnseries/ideals.py",
        "return ring.once((kernel, keep, side), lambda: (",
        "return ring.once((kernel, side), lambda: (",
        ("tests/test_table_kernels.py", "-k", "interleaved_kernels_keep_their_own_masks")),
    "meet-set-drops-the-top-bit": Mutant(
        "a meet's element set leaves out its highest element",
        "mnseries/ideals.py",
        "frozenset(a for a in range(meet.bit_length()) if meet >> a & 1)",
        "frozenset(a for a in range(meet.bit_length() - 1) if meet >> a & 1)",
        ("tests/test_table_kernels.py", "-k", "interleaved_kernels_keep_their_own_masks")),
    "zip-row-masks-key-without-keep": Mutant(
        "the zip searches file their row masks without the kept set, so weak-zip reads "
        "the masks of right-zip",
        "mnseries/properties.py",
        'ring.once(("zip row masks", keep), build)',
        'ring.once(("zip row masks",), build)',
        ("tests/test_table_kernels.py", "-k", "interleaved_kernels_keep_their_own_masks")),
    "row-mask-without-reversal": Mutant(
        "a row's bytes are translated first position first, so bit a of its mask "
        "reads the entry at the mirrored position",
        "mnseries/rings.py",
        "row[::-1] for row in (self.mul",
        "row for row in (self.mul",
        ("tests/test_table_kernels.py", "-k", "interleaved_kernels_keep_their_own_masks")),
    "reversed-rows-memo-key-without-side": Mutant(
        "the byte rows' reversed rows are filed without their side, so the masks of "
        "l(X) read the reversed rows of r(X)",
        "mnseries/rings.py",
        'self.once(("reversed", side), lambda: [',
        'self.once("reversed", lambda: [',
        ("tests/test_table_kernels.py", "-k", "interleaved_kernels_keep_their_own_masks")),
    "singleton-masks-read-columns": Mutant(
        "the masks of (U:{v}) read column v of the product table, not row v",
        "mnseries/ideals.py",
        'for row in U.ring.byte_rows().reversed("right"))',
        'for row in U.ring.byte_rows().reversed("left"))',
        ("tests/test_table_kernels.py", "-k", "meet_count_matches_the_subset_count_on_small")),
    # the subset DP that decides a whole pool of zip subsets
    "subset-dp-ranks-by-mask-value": Mutant(
        "the subset DP ranks sets by their mask value, not by size then lexicographic "
        "order, so {1, 2} (6) comes before {0, 3} (9)",
        "mnseries/properties.py",
        "step = (1 << n) - (1 << (n - 1 - i))",
        "step = 1 << i",
        ("tests/test_table_kernels.py", "-k", "minimal_subsets_match")),
    "subset-dp-skips-its-own-accept": Mutant(
        "the subset DP never takes X itself when its meet accepts, only what its "
        "proper subsets give",
        "mnseries/properties.py",
        "best = [r if accepts(m) else none for r, m in zip(rank, meets)]",
        "best = [none] * len(rank)",
        ("tests/test_table_kernels.py", "-k", "minimal_subsets_match")),
    "subset-dp-takes-the-max": Mutant(
        "the subset DP keeps the greatest rank over X's subsets, not the least",
        "mnseries/properties.py",
        "[a if a < b else b for a, b in zip(best[half:], low)]",
        "[a if a > b else b for a, b in zip(best[half:], low)]",
        ("tests/test_table_kernels.py", "-k", "minimal_subsets_match")),
    # the sigma-U-zip count by Moebius inversion over the meet-closure
    "meet-count-walks-bottom-up": Mutant(
        "the closure is walked from its smallest members up, so no larger "
        "member's exact count is subtracted",
        "mnseries/properties.py",
        "sorted(closure, key=int.bit_count, reverse=True)",
        "sorted(closure, key=int.bit_count)",
        ("tests/test_table_kernels.py", "-k", "meet_count")),
    "meet-count-keeps-subsets-of-U": Mutant(
        "the sets inside U are not subtracted from the count",
        "mnseries/properties.py",
        "return _meet_counts(single).get(u_mask, 0) - _meet_counts(inside).get(u_mask, 0)",
        "return _meet_counts(single).get(u_mask, 0)",
        ("tests/test_table_kernels.py", "-k", "meet_count_matches_the_subset_count")),
    "meet-closure-one-round": Mutant(
        "the closure under AND stops after one round of pairwise meets",
        "mnseries/properties.py",
        "    while frontier:\n",
        "    if frontier:\n",
        ("tests/test_table_kernels.py", "-k", "meet_counts_match_the_subsets")),
    "subgroup-sum-drops-B-inside-C": Mutant(
        "is_subgroup_sum(C, A, B) no longer asks that B lie in C",
        "mnseries/ideals.py",
        "return A <= C and B <= C and len(C)",
        "return A <= C and len(C)",
        (_UNIVERSE, "-k", "subgroup_sum_matches_the_product_form_on_every_ideal")),
    "subgroup-sum-drops-the-count": Mutant(
        "is_subgroup_sum(C, A, B) no longer compares |C|*|A n B| with |A|*|B|",
        "mnseries/ideals.py",
        "return A <= C and B <= C and len(C) * len(A & B) == len(A) * len(B)",
        "return A <= C and B <= C",
        (_UNIVERSE, "-k", "subgroup_sum_matches_the_product_form_on_every_ideal")),
    "extraction-scan-skips-the-exact-rerun": Mutant(
        "a class trace that fails on checked tables is reported as it is, without the "
        "exact scan over every series pair that names the failing pair",
        "mnseries/transfer.py",
        "    lifts = universe.terms()\n",
        "    return len(universe) ** 2, 0, first\n",
        ("tests/test_class_scan.py", "-k", "reruns_the_exact_scan")),
    "extraction-scan-skips-the-table-check": Mutant(
        "the extraction scan traces the class series over tables it has not checked",
        "mnseries/transfer.py",
        "    alg = universe.checked_algebra()\n",
        "    alg = universe.algebra\n",
        (_UNIVERSE, "-k", "failed_table_check_raises_before")),
    "trace-drops-an-x-w-pair": Mutant(
        "the extraction trace leaves the first pair of each X_w out",
        "mnseries/transfer.py",
        "for i, j in alg.xw[k] if i in fa and j in gb]",
        "for i, j in alg.xw[k][1:] if i in fa and j in gb]",
        ("tests/test_window.py", "-k", "extraction_over_an_unsorted_window")),
    "class-weight-summed": Mutant(
        "a class series counts the sum of its terms' coset sizes, not their product",
        "mnseries/series.py",
        "math.prod(weight[c] for _, c in terms)",
        "sum(weight[c] for _, c in terms)",
        ("tests/test_class_scan.py", "-k", "partition_the_universe")),
    # G-Armendariz over unit orbits, series-zip over support classes
    "orbit-weight-one": Mutant(
        "every orbit representative counts as one series, not as its orbit",
        "mnseries/series.py",
        "sizes.append(len(scale) // len(stab))",
        "sizes.append(1)",
        ("tests/test_window.py", "-k", "joins_orbit_representatives")),
    "orbit-size-inverted": Mutant(
        "an orbit's size is taken as |Stab| / |H|, not |H| / |Stab|",
        "mnseries/series.py",
        "len(scale) // len(stab)",
        "len(stab) // len(scale)",
        ("tests/test_orbit_scan.py", "-k", "representatives_match_the_orbit_oracle")),
    "stabilizer-not-narrowed": Mutant(
        "the walk carries every map past a position, not those that fix its coefficient",
        "mnseries/series.py",
        "[m for m in stab if m[c] == c]",
        "stab",
        ("tests/test_orbit_scan.py", "-k", "representatives_match_the_orbit_oracle")),
    "support-cut-before-the-zero": Mutant(
        "the support bound ends the walk before a position's zero coefficient is taken, "
        "so a full support drops its trailing zeros",
        "mnseries/series.py",
        "            walk(i + 1, terms, stab)\n"
        "            if len(terms) >= max_support:\n"
        "                return\n",
        "            if len(terms) >= max_support:\n"
        "                return\n"
        "            walk(i + 1, terms, stab)\n",
        ("tests/test_orbit_scan.py", "-k", "representatives_match_the_orbit_oracle")),
    "orbit-sizes-unchecked": Mutant(
        "G-Armendariz trusts the orbit sizes without comparing their sum with the "
        "number of series in the fragment",
        "mnseries/properties.py",
        "        if sum(sizes) != count:\n",
        "        if False:\n",
        ("tests/test_window.py", "-k", "orbit_sizes_that_miscount")),
    "right-orbits-ignore-sigma": Mutant(
        "a central unit acts on g although a sigma generator moves it",
        "mnseries/series.py",
        "and all(g.map[v] == v for g in self.twist.sigma.generators)]",
        "]",
        ("tests/test_orbit_scan.py", "-k", "orbits_partition")),
    "right-side-reuses-a-different-walk": Mutant(
        "G-Armendariz reuses the left walk for the right side although fewer units "
        "act there",
        "mnseries/properties.py",
        'if alg.unit_maps("right") == alg.unit_maps("left")',
        'if len(alg.unit_maps("right")) <= len(alg.unit_maps("left"))',
        ("tests/test_orbit_scan.py", "-k", "walks_once_when_both_sides_act_alike")),
    "g-armendariz-skips-the-exact-rerun": Mutant(
        "the first witness among the orbit representatives is reported as it is, "
        "without the exact join over every pair",
        "mnseries/properties.py",
        "        zero_products, single_terms, hit = scan(fragment, ones, fragment, ones)\n",
        "        pass\n",
        ("tests/test_orbit_scan.py", "-k", "ut2_z2_fails")),
    "series-zip-drops-a-support-class": Mutant(
        "series-zip traces one support class too few",
        "mnseries/transfer.py",
        "for support in range(1, 1 << w):",
        "for support in range(1, (1 << w) - 1):",
        ("tests/test_orbit_scan.py", "-k", "traces_each_support_once")),
    "series-zip-h-at-the-greatest-of-U": Mutant(
        "the h traced for a support holds U's greatest element at each position, "
        "not its least, so it is not the support's first member",
        "mnseries/transfer.py",
        "least = min(U.members - {0}, default=None)",
        "least = max(U.members - {0}, default=None)",
        ("tests/test_orbit_scan.py", "-k", "traces_each_support_once")),
    "extract-skips-the-table-check": Mutant(
        "coefficient_extraction traces over the tables it compiled without checking them",
        "mnseries/transfer.py",
        "    alg.check_tables()\n",
        "",
        ("tests/test_window.py", "-k", "wrong_term_in_its_own_algebra")),
    "cocycle-reads-a-wrong-tau-row": Mutant(
        "the cocycle scan reads tau(x, z) where it needs tau(y, z)",
        "mnseries/series.py",
        "zip(range(n), tau[b], slot[b], t_xy_z)",
        "zip(range(n), tau[a], slot[b], t_xy_z)",
        ("tests/test_twist_conditions.py", "-k", "patched_twists_match_the_loop")),
    "canonical-int-lists-take-bools": Mutant(
        "a list of ints and bools takes the one-join path, which writes True, not true",
        "mnseries/cli.py",
        "if set(map(type, value)) == {int}:",
        "if all(isinstance(v, int) for v in value):",
        ("tests/test_cli.py", "-k", "canonical_json_writes_the_bytes")),
    "sa-sum-memo-keyed-on-one-annihilator": Mutant(
        "is_SA files r(I) + r(J) under r(I) alone, so a pair reads another pair's sum",
        "mnseries/properties.py",
        "pair = frozenset((rI, rJ))",
        "pair = rI",
        ("tests/test_table_kernels.py", "-k", "sa_table_matches_the_per_pair_sums")),
    "sa-k-index-off-by-one": Mutant(
        "is_SA writes each K as the index after the ideal it found",
        "mnseries/properties.py",
        "solved[pair] = k = index[K]",
        "solved[pair] = k = index[K] + 1",
        (_SA_TABLE, "-k", "sa_index_table_decodes_to_every_pair")),
    "sa-ideals-out-of-k-order": Mutant(
        "is_SA lists its ideals sorted by member list, not in the lattice order K indexes",
        "mnseries/properties.py",
        "listed = [K.sorted_members() for K in rann]",
        "listed = sorted(K.sorted_members() for K in rann)",
        (_SA_TABLE, "-k", "sa_index_table_decodes_to_every_pair")),
    "k-table-last-k-wins": Mutant(
        "the r(K) -> K table files the last two-sided ideal with each r(K), not the first",
        "mnseries/ideals.py",
        "r: K for K, r in reversed(right_annihilators(ring).items())})",
        "r: K for K, r in right_annihilators(ring).items()})",
        (_SA_TABLE, "-k", "sa_index_table_decodes_to_every_pair")),
    "sa-row-closed-per-pair": Mutant(
        "is_SA adds the row under construction to its table once per pair, not once per I",
        "mnseries/properties.py",
        """            row.append(k)
        if witness:
            break
        table.append(row)""",
        """            row.append(k)
            table.append(row)
        if witness:
            break""",
        (_SA_TABLE, "-k", "sa_index_table_decodes_to_every_pair")),
    "zip-agreement-compares-statuses-only": Mutant(
        "the zip agreement loop compares the cores' statuses but not their minimal "
        "witnesses",
        "mnseries/cli.py",
        "if _sigma_u_zip(ideal, xs) != core(xs):",
        "if _sigma_u_zip(ideal, xs)[0] != core(xs)[0]:",
        ("tests/test_cli.py", "-k", "lazy_zip_core_fails_zip_specialization_agreement")),
    # the scans on a ring's byte rows
    "trivial-extension-sums-swapped": Mutant(
        "the trivial extension's byte block at c takes its first component from b*c "
        "and adds a*c, the two products swapped",
        "mnseries/rings.py",
        "for x, y in zip(mul[a], mul[b])",
        "for x, y in zip(mul[b], mul[a])",
        ("tests/test_rings.py", "-k", "pair_rings_match_the_per_entry_build")),
    "pair-shift-table-off-by-one": Mutant(
        "each shift table maps l to h*n2 + l + 1, one past the id of the pair (h, l)",
        "mnseries/rings.py",
        "for h in range(0, n1 * n2, n2)]",
        "for h in range(1, n1 * n2 + 1, n2)]",
        ("tests/test_rings.py", "-k", "pair_rings_match_the_per_entry_build")),
    "left-distributive-row-from-the-wrong-side": Mutant(
        "the left-distributivity row test reads a(b + c) from column a, as (b + c)a",
        "mnseries/rings.py",
        "left = all(A[b].translate(Mt[a])",
        "left = all(A[b].translate(MTt[a])",
        ("tests/test_table_kernels.py", "-k", "decided_by_the_row_tests_alone")),
    "zero-divisor-find-from-position-0": Mutant(
        "a left zero-divisor is found by any 0 in its byte row, a*0 = 0 included, so "
        "every element divides zero",
        "mnseries/properties.py",
        "for a, row in enumerate(rows.mul) if row.find(0, 1) >= 0)",
        "for a, row in enumerate(rows.mul) if row.find(0) >= 0)",
        ("tests/test_table_kernels.py", "-k", "units_and_zero_divisors_match")),
    "sigma-compat-skips-the-witness-rescan": Mutant(
        "sigma-compatibility reports the first row that differs with b = 0, without "
        "scanning that row for the first failing b",
        "mnseries/ideals.py",
        "                b = next(b for b in ring.elements()\n"
        "                         if (mul[a][b] in U.members) != (mul[a][s.map[b]] in U.members))\n",
        "                b = 0\n",
        ("tests/test_table_kernels.py", "-k", "sigma_compatibility_matches")),
    "units-group-closure-reads-one-row": Mutant(
        "the units-group check tests the products of the first unit only",
        "mnseries/cli.py",
        "closed = all(us.issuperset(map(mul[a].__getitem__, us)) for a in us)",
        "closed = all(us.issuperset(map(mul[a].__getitem__, us)) for a in sorted(us)[:1])",
        ("tests/test_table_kernels.py", "-k", "units_group_check_matches_on_every_set")),
    "table-check-passes-every-row": Mutant(
        "the table check takes every term row as equal to its translated row, so no "
        "entry is compared",
        "mnseries/series.py",
        "if row == list(scaled[a].translate(tau)):",
        "if True:",
        (_UNIVERSE, "-k", "table_check_matches_the_per_entry_check")),
    "universe-quotient-skips-the-table-check": Mutant(
        "the universe's quotient kernel, which series-zip takes its quotients "
        "with, multiplies through tables it has not checked",
        "mnseries/transfer.py",
        "mul, size = self.checked_algebra().multiply,",
        "mul, size = self.algebra.multiply,",
        ("tests/test_orbit_scan.py", "-k", "quotient_reads_fails_series_zip")),
    "killers-skip-the-table-check": Mutant(
        "the killers join reads tables it has not checked",
        "mnseries/transfer.py",
        "self.checked_algebra().join(distinct, {0}, self.terms())",
        "self.algebra.join(distinct, {0}, self.terms())",
        (_UNIVERSE, "-k", "wrong_term_fails_the_killers_join")),
    # the window is counted before it is listed. Run only with the named
    # test, whose stub fails the listing: unstubbed, this mutant lists the
    # 10^10 exponents of a Z^2_lex window
    "window-listed-before-counted": Mutant(
        "a suite's universe lists its window's exponents before counting them",
        "mnseries/cli.py",
        """    universe_count(fx.ring.size, fx.group.window_size(lo, hi))
    return TruncatedUniverse(twist, fx.group.window(lo, hi))
""",
        """    universe = TruncatedUniverse(twist, fx.group.window(lo, hi))
    universe_count(fx.ring.size, fx.group.window_size(lo, hi))
    return universe
""",
        ("tests/test_cli.py", "-k", "counted_before_it_is_listed")),
}

CHEAP = "kernel-matches-v-not-minus-v"


def apply(mutant: Mutant, src: Path) -> None:
    """Replace the mutant's old text, which must occur exactly once, in its
    file under the directory `src`."""
    path = src / mutant.path
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.path}: the old text occurs {count} times, not once: "
                         f"{mutant.old!r}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(name: str, timeout: float = 600) -> str:
    """"killed", "survived" or "error" for the named mutant."""
    mutant = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="mnseries-mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        apply(mutant, copy / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=copy, capture_output=True, text=True, timeout=timeout)
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for name, mutant in MUTANTS.items():
            print(f"{name}: {mutant.what}")
        return 0
    unknown = [name for name in argv if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}; see --list", file=sys.stderr)
        return 2
    outcomes = {}
    for name in argv or MUTANTS:
        outcomes[name] = run(name)
        print(f"{outcomes[name]:8}  {name}", flush=True)
    killed = sum(outcome == "killed" for outcome in outcomes.values())
    print(f"{killed} of {len(outcomes)} mutants killed")
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
