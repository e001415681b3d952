"""The benchmark's workloads: fixed, ordered lists of `mn` cells.

A cell is one `mn` command line with a ladder fixture name in place of the
fixture path; the runner appends `--format json --seed <seed>`. A cell's
outcome is its exit code, the suite status and the (property, verdict)
list read from the canonical JSON it prints.
"""

from __future__ import annotations

import json
import re


def _verify(fixture: str, *suites: str) -> list[tuple]:
    return [("verify", fixture, "--suite", s) for s in suites]


WORKLOADS: dict[str, list[tuple]] = {
    # window pair scans through series_mul: untwisted, tau-twisted,
    # sigma-twisted and Z^2 cells side by side
    "series-scan": [
        *_verify("z8", "thm5.4"),
        *_verify("z8_tau", "properties"),
        *_verify("gf4_z2lex", "thm5.4"),
        *_verify("z4_tau_power", "thm5.4"),
        *_verify("gf4_frobenius", "thm5.4"),
    ],
    # transfer harnesses: repeated precondition checks and truncated-universe scans
    "transfer-harness": [
        *_verify("z16", "thm4.5", "lemma4.3"),
        *_verify("t_z4_example_5_6", "lemma4.3"),
        *_verify("ut2_z2", "lemma4.3"),
        *_verify("z2cubed", "prop3.2"),
        *_verify("gf4_z2lex", "prop3.2"),
        *_verify("z8_tau", "thm4.5"),
        *_verify("klein_fusible", "prop3.2", "thm4.5"),
        *_verify("gf4_frobenius", "lemma4.3"),
    ],
    # no window scans: twist validation, ring-axiom scans, ideal lattices,
    # base-ring properties and zip specialisations
    "fixture-battery": [
        *[("validate", name) for name in (
            "z4_example_5_5", "t_z4_example_5_6", "klein_fusible", "gf4_frobenius",
            "z4_tau_power", "z4_tau_corrupted", "z8_tau", "z4_z2lex_tau", "gf4_z2lex")],
        *[cell for name in ("z16_plain", "z32_plain", "z64_plain", "t_z8", "z4cubed", "ut2_z4")
          for cell in (*_verify(name, "ring-axioms", "ideals"), ("props", name))],
        *[cell for name in ("z4_example_5_5", "t_z4_example_5_6", "klein_fusible",
                            "z8", "z2cubed", "ut2_z2")
          for cell in _verify(name, "examples")],
    ],
    # a few cheap cells for the benchmark's own self-checks (not in BENCHMARK.json)
    "smoke": [
        ("validate", "z4_example_5_5"),
        ("validate", "z4_tau_corrupted"),
        *_verify("klein_fusible", "thm4.5"),
        *_verify("gf4_frobenius", "thm5.4", "lemma4.3"),
    ],
}


def cell_id(cell: tuple) -> str:
    return " ".join(cell)


def cell_argv(cell: tuple, paths: dict, seed: int) -> list[str]:
    command, fixture, *rest = cell
    return [command, str(paths[fixture]), *rest, "--format", "json", "--seed", str(seed)]


def outcome(exit_code, stdout: str) -> dict:
    """Exit code, status and (property, verdict) list of one cell's output."""
    try:
        report = json.loads(stdout) if stdout.strip() else None
    except json.JSONDecodeError:
        report = None
    if not isinstance(report, dict):
        return {"exit": exit_code, "status": "no-report", "checks": []}
    if "valid" in report:  # `mn validate`
        checks = [[c["check"], c["ok"]] for c in report.get("twist", {}).get("checks", [])]
        if "associativity" in report:
            checks.append(["associativity", report["associativity"]["ok"]])
        return {"exit": exit_code, "status": "valid" if report["valid"] else "invalid",
                "checks": checks}
    return {"exit": exit_code, "status": report.get("status"),
            "checks": [[c["property"], c["verdict"]] for c in report.get("checks", [])]}


class ReportTally:
    """Useful-work ratios read from the canonical reports of one pass."""

    _OF = re.compile(r"only first \d+ of (\d+)")

    def __init__(self):
        self.garm_pairs = self.garm_zero = 0
        self.extraction_pairs = self.extraction_qualifying = 0
        self.pairs_run = self.pairs_available = 0

    def add(self, cell: tuple, stdout: str):
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return
        if not isinstance(report, dict) or "checks" not in report:
            return
        suite = cell[3] if cell[0] == "verify" else None
        run = 0
        available = None
        for check in report["checks"]:
            prop = check["property"]
            if prop == "G-armendariz" and check.get("bounds"):
                self.garm_pairs += check["bounds"]["pairs_checked"]
                self.garm_zero += check["bounds"]["zero_products_seen"]
            elif prop == "extraction-vs-oracle" and check.get("certificate"):
                self.extraction_pairs += check["certificate"]["pairs"]
                self.extraction_qualifying += check["certificate"]["qualifying"]
            elif prop in ("lifted-annihilator", "sa-transfer"):
                run += 1
            elif prop in ("pair-coverage", "config-coverage"):
                match = self._OF.search(check.get("note") or "")
                if match:
                    available = int(match.group(1))
        if suite == "lemma4.3":
            run //= 2  # one check per side for each (I, J) pair
        if suite in ("lemma4.3", "thm4.5") and run:
            self.pairs_run += run
            self.pairs_available += available if available is not None else run

    def metrics(self) -> dict[str, tuple[float, str]]:
        def ratio(num, den):
            return num / den if den else 0.0
        return {
            "properties.G_armendariz.pairs_checked": (self.garm_pairs, "count"),
            "properties.G_armendariz.zero_product_ratio":
                (ratio(self.garm_zero, self.garm_pairs), "ratio"),
            "transfer.extraction.pairs": (self.extraction_pairs, "count"),
            "transfer.extraction.qualifying_ratio":
                (ratio(self.extraction_qualifying, self.extraction_pairs), "ratio"),
            "cli.pairs_available": (self.pairs_available, "count"),
            "cli.pair_coverage_ratio": (ratio(self.pairs_run, self.pairs_available), "ratio"),
        }
