"""Every shipped-fixture report keeps its bytes.

Each shipped fixture runs `mn validate <fx> --format json` and, for every
suite, `mn verify <fx> --suite <s> --format json` at seed 0, through
`main`. The sha256 of exit code, stdout and stderr of each run must match
`report_digests.json`. A change that alters report bytes on purpose
re-records the file and says why:

    PYTHONPATH=src python tests/test_report_bytes.py --record

which prints the name of each run whose digest changed, or "no change".
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from mnseries.cli import SUITE_NAMES, main, shipped_fixtures

DIGESTS = Path(__file__).with_name("report_digests.json")


def shipped_runs() -> dict[str, list[str]]:
    """Run name -> argv, for every shipped fixture and suite."""
    runs = {}
    for fx in shipped_fixtures():
        runs[f"validate {fx}"] = ["validate", fx, "--format", "json"]
        for suite in SUITE_NAMES:
            runs[f"verify {fx} {suite}"] = ["verify", fx, "--suite", suite,
                                            "--format", "json", "--seed", "0"]
    return runs


def run_digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(blob.encode()).hexdigest()


def current_digests() -> dict[str, str]:
    return {name: run_digest(argv) for name, argv in shipped_runs().items()}


def differing(recorded: dict[str, str], current: dict[str, str]) -> list[str]:
    """The sorted names of the runs whose digest is not the recorded one,
    a run present on one side only included."""
    return sorted(name for name in recorded.keys() | current.keys()
                  if recorded.get(name) != current.get(name))


def test_shipped_reports_match_recorded_digests():
    changed = differing(json.loads(DIGESTS.read_text()), current_digests())
    assert not changed, f"report bytes changed for: {', '.join(changed)}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    recorded, current = json.loads(DIGESTS.read_text()), current_digests()
    DIGESTS.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
    print("\n".join(differing(recorded, current)) or "no change")
