"""Self-checks of the benchmark itself; exits 1 if any fails.

    python3 perfbench/selfcheck.py

1. `Tracer.restore` puts back every function and method `Tracer.install`
   replaced, in every mnseries module namespace.
   Every per-layer metric names a function `install` wrapped (as a span for
   a `.self_s` metric), and a metric naming an unknown function is caught.
2. A recorded outcome with one verdict flipped makes that cell count as
   failed, so `fail_ratio` rises; the true record counts no failure.
3. `run.py` prints, in both modes, exactly the metrics BENCHMARK.json
   names, each on a line of its own with its unit, then the JSON result.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from spans import METHODS, Tracer, package_modules
from workloads import WORKLOADS, cell_id


def _snapshot() -> dict:
    state = {}
    for module in package_modules():
        for name, value in vars(module).items():
            state[(module.__name__, name)] = value
    for layer, cls_name, method, _, _ in METHODS:
        cls = getattr(sys.modules[f"mnseries.{layer}"], cls_name)
        state[(cls.__qualname__, method)] = vars(cls)[method]
    return state


def check_restore() -> list[str]:
    import mnseries.cli  # noqa: F401  (imports every layer)
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        during = _snapshot()
        missing = run.unwrapped(tracer)
        saved = run.LAYER_METRICS
        run.LAYER_METRICS = saved + (("series.no_such_function", "calls"),
                                     ("groups.op", "self_s"))
        try:
            caught = run.unwrapped(tracer)
        finally:
            run.LAYER_METRICS = saved
    finally:
        tracer.restore()
    after = _snapshot()
    problems = [f"per-layer metric not wrapped: {name}" for name in missing]
    if caught != ["series.no_such_function.calls", "groups.op.self_s"]:
        problems.append(f"unknown or unspanned names not caught: {caught}")
    if sum(during[k] is not v for k, v in before.items()) == 0:
        problems.append("install wrapped nothing")
    if during[("mnseries.cli", "series_mul")] is before[("mnseries.cli", "series_mul")]:
        problems.append("series_mul imported into cli was not wrapped")
    changed = [k for k, v in before.items() if after.get(k) is not v]
    problems += [f"not restored: {k}" for k in changed]
    return problems


def check_flipped_verdict() -> list[str]:
    expected = json.loads(run.EXPECTED.read_text())["cells"]
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        cli, paths = run.setup(0, Path(tmp) / "fixtures")
        runs = [run.run_cell(cli, cell, paths, 0) for cell in WORKLOADS["smoke"]]
    problems = []
    attempted, failed = run.count_failures([runs], expected)
    if failed:
        problems.append(f"true record: {failed} of {attempted} cells counted as failed")
    target = next(cell_id(r.cell) for r in runs if expected[cell_id(r.cell)]["checks"])
    flipped = copy.deepcopy(expected)
    check = flipped[target]["checks"][0]
    check[1] = not check[1]
    with contextlib.redirect_stdout(io.StringIO()):  # the expected FAILED line
        attempted, failed = run.count_failures([runs], flipped)
    if failed != 1:
        problems.append(f"flipped verdict of {target!r}: {failed} of {attempted} failed, want 1")
    return problems


def check_metric_lines() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "smoke", "--seed", "0",
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, cwd=run.ROOT, timeout=170)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            problems.append(f"--trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads(lines[-1])
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            problems.append(f"--trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                            f"differ from BENCHMARK.json {key}")
        for name, unit in want.items():
            if not any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                       for line in lines[:-1]):
                problems.append(f"--trace {trace}: no line names {name} with unit {unit}")
        if not result["correct"]:
            problems.append(f"--trace {trace}: smoke cells not correct")
    return problems


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    run.OUT_DIR.mkdir(exist_ok=True)
    failures = 0
    for check in (check_restore, check_flipped_verdict, check_metric_lines):
        problems = check()
        failures += bool(problems)
        print(f"{check.__name__}: {'FAIL' if problems else 'ok'}")
        for p in problems:
            print(f"  {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
