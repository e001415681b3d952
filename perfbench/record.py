"""Record the expected outcome of every cell into perfbench/expected.json.

    python3 perfbench/record.py --seeds 12

Runs every cell of every workload once per seed 0..N-1 (fixtures and
`--seed` both follow the seed), refuses to write if a cell's outcome
(exit code, status, (property, verdict) list) differs between seeds, and
writes that outcome plus each (seed, cell) report digest. Run it only on a
commit whose verdicts are known to be right: what it records is what the
benchmark then counts as correct.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS, cell_id, outcome

# Cells left out of every workload because one pass would cost more than a
# run allows: single runs at default caps on a 2-core x86 host, Python 3.11.
# The first two are the repository's baseline figures, not re-measured.
OVER_BUDGET = [
    {"cell": "verify --suite thm5.4", "fixture": "Z16 over Z, untwisted, U = (2)", "seconds": 706},
    {"cell": "verify --suite thm4.5", "fixture": "Z32 over Z, untwisted, U = (2)", "seconds": 73},
    {"cell": "verify --suite thm4.5", "fixture": "z4_z2lex_tau", "seconds": 30.8},
    {"cell": "verify --suite lemma4.3", "fixture": "Z32 over Z, untwisted, U = (2)", "seconds": 8.4},
]

# Defects the benchmark saw but does not encode as expected outcomes.
KNOWN_DEFECTS = [
    "verify --suite examples on Z32: SizeCapExceeded (2^32 subsets exceed the cap) "
    "escapes run_suite; main catches it as MNSeriesError and exits 1 instead of "
    "reporting the suite",
    "validate: load_fixture validates the twist and `mn validate` validates it again "
    "(about 2.6 s of the z4_z2lex_tau cell is the second pass)",
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=12)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.ROOT / "src"))

    cells = list(dict.fromkeys(c for cs in WORKLOADS.values() for c in cs))
    outcomes: dict[str, dict] = {}
    digests: dict[str, dict] = {}
    unstable = []
    run.OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT_DIR))
    try:
        for seed in range(args.seeds):
            cli, paths = run.setup(seed, tmp / str(seed))
            digests[str(seed)] = {}
            for cell in cells:
                r = run.run_cell(cli, cell, paths, seed)
                if r.error:
                    print(f"seed {seed} {cell_id(cell)}: uncaught {r.error}", file=sys.stderr)
                    return 1
                got = outcome(r.exit, r.stdout)
                name = cell_id(cell)
                if outcomes.setdefault(name, got) != got:
                    unstable.append(f"seed {seed} {name}: {got} != {outcomes[name]}")
                digests[str(seed)][name] = r.digest
            print(f"seed {seed}: {len(cells)} cells recorded", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if unstable:
        print("outcomes depend on the seed:\n" + "\n".join(unstable), file=sys.stderr)
        return 1
    run.EXPECTED.write_text(json.dumps({
        "cells": outcomes, "digests": digests,
        "over_budget": OVER_BUDGET, "known_defects": KNOWN_DEFECTS,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
