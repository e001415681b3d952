"""mnseries benchmark: time the `mn` command line over fixed cell workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload series-scan --seed 1 --seconds 36 --trace 0

One process, one client, cells in a fixed order, no threads: each cell calls
`mnseries.cli.main` in process with its output captured. Set-up imports the
package from `src/`, writes the seeded fixture ladder and loads the recorded
outcomes. To time it cold, a fresh interpreter runs this script with
--setup-only: set-up is the time from starting that process to its set-up
being done, converted to reference seconds by probes that process runs
right after. It runs SETUP_REPEATS times before the first pass and once more
before every further pass, so its samples spread over the run.

--trace 0 runs whole passes over the workload's cells while another pass
still fits in --seconds (at least one) and reports the end-to-end metrics.
Times are in reference seconds (see hostspeed.py): `wall_s` and `cpu_s` are
one pass, the sum over cells of each cell's median across the passes;
`setup_s` is the median cold set-up; `peak_rss_mb` is the process's peak RSS
after the first pass, so it does not grow with the number of passes.
--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of the traced one (`.self_s` also in reference seconds), and the
ratio of the two passes' times. It exits 1 if a per-layer metric names a
function the tracer did not wrap.

Every cell's outcome is checked against perfbench/expected.json. The last
line of standard output is the JSON result; the lines above it name every
metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from fixtures import write_fixtures
from hostspeed import HostSpeed, spot_factor
from spans import Tracer
from workloads import WORKLOADS, ReportTally, cell_argv, cell_id, outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5

# per-layer metrics of the traced pass: (span or counter name, field)
LAYER_METRICS = (
    ("series.series_mul", "calls"), ("series.series_mul", "self_s"),
    ("series.tau_at", "calls"), ("groups.op", "calls"),
    ("transfer.coefficient_extraction", "calls"), ("transfer.coefficient_extraction", "self_s"),
    ("properties.is_G_armendariz", "calls"), ("properties.is_G_armendariz", "self_s"),
    ("properties.is_SA", "calls"), ("properties.is_left_fusible", "calls"),
    ("properties.zero_divisor_sets", "calls"), ("ideals.is_sigma_compatible_ideal", "calls"),
    ("transfer.sa_transfer_witness", "self_s"), ("transfer.lifted_annihilator_check", "self_s"),
    ("transfer.TruncatedUniverse.all_series", "self_s"),
    ("series.check_twist_conditions", "calls"), ("series.check_twist_conditions", "self_s"),
    ("series.check_associativity", "self_s"),
    ("cli.load_fixture", "calls"), ("cli.load_fixture", "self_s"),
    ("rings.check_ring_axioms", "calls"), ("rings.check_ring_axioms", "self_s"),
    ("ideals.enumerate_ideals", "calls"), ("ideals.enumerate_ideals", "self_s"),
    ("ideals.ideal_closure", "calls"), ("ideals.quotient_ideal", "calls"),
    ("properties.sigma_u_zip_scan", "self_s"),
)


def _cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


@dataclass(slots=True)
class CellRun:
    cell: tuple
    t0: float      # perf_counter at start and end
    t1: float
    cpu: float     # CPU seconds
    exit: object   # main's return value or SystemExit code
    stdout: str
    digest: str    # sha256 of stdout and stderr
    error: str | None  # an exception that escaped main


def run_cell(cli, cell: tuple, paths: dict, seed: int) -> CellRun:
    """One `mn` invocation with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    argv = cell_argv(cell, paths, seed)
    error = None
    t0, c0 = time.perf_counter(), _cpu_seconds()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            exit_code = cli.main(argv)
    except SystemExit as exc:
        exit_code = exc.code
    except Exception as exc:  # an escaped exception is a failed cell, not a crash
        exit_code, error = None, f"{type(exc).__name__}: {exc}"
    t1, cpu = time.perf_counter(), _cpu_seconds() - c0
    stdout = out.getvalue()
    digest = hashlib.sha256((stdout + "\0" + err.getvalue()).encode()).hexdigest()
    return CellRun(cell, t0, t1, cpu, exit_code, stdout, digest, error)


def mismatch(run: CellRun, expected_cells: dict) -> str | None:
    """Why a cell run differs from its recorded outcome, or None."""
    if run.error:
        return f"uncaught {run.error}"
    want = expected_cells.get(cell_id(run.cell))
    if want is None:
        return "no recorded outcome"
    got = outcome(run.exit, run.stdout)
    if got != want:
        return f"expected {json.dumps(want)}, got {json.dumps(got)}"
    return None


def count_failures(passes: list[list[CellRun]], expected_cells: dict) -> tuple[int, int]:
    """(attempted, failed) over every cell run; prints each failure."""
    attempted = failed = 0
    for runs in passes:
        for run in runs:
            attempted += 1
            why = mismatch(run, expected_cells)
            if why:
                failed += 1
                print(f"FAILED {cell_id(run.cell)}: {why}")
    return attempted, failed


def run_pass(cli, cells, paths, seed) -> list[CellRun]:
    return [run_cell(cli, cell, paths, seed) for cell in cells]


def setup(seed: int, workdir: Path):
    """Fresh import of the package and the fixture ladder for `seed`."""
    for name in [m for m in sys.modules if m == "mnseries" or m.startswith("mnseries.")]:
        del sys.modules[name]
    cli = importlib.import_module("mnseries.cli")
    workdir.mkdir()
    return cli, write_fixtures(workdir, seed)


def cold_setup(args, workdir: Path) -> tuple[float, float]:
    """(wall seconds, reference seconds) of one set-up in a fresh process.

    perf_counter is the system-wide monotonic clock, so the child's reading
    compares with this process's. The child may run on the other CPU, so it
    measures that CPU's speed itself."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(workdir)],
        capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr[-500:]}")
    done, factor = (float(x) for x in proc.stdout.split()[-2:])
    return done - t0, (done - t0) * factor


def unwrapped(tracer: Tracer) -> list[str]:
    """Per-layer metrics whose function the tracer did not wrap (as a span,
    for a `.self_s` metric)."""
    return [f"{name}.{field}" for name, field in LAYER_METRICS
            if name not in (tracer.spanned if field == "self_s" else tracer.wrapped)]


def end_to_end(passes: list[list[CellRun]], setups: list[tuple[float, float]],
               speed: HostSpeed, peak_rss_kb: int) -> dict[str, tuple[float, str]]:
    """wall_s, cpu_s and setup_s in reference seconds, and peak_rss_mb."""
    wall, cpu = [], []
    for i in range(len(passes[0])):
        ref = [speed.reference_seconds(p[i].t0, p[i].t1) for p in passes]
        wall.append(statistics.median(ref))
        cpu.append(statistics.median(p[i].cpu * r / (p[i].t1 - p[i].t0)
                                     for p, r in zip(passes, ref)))
    return {
        "wall_s": (sum(wall), "s"),
        "cpu_s": (sum(cpu), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mnseries" / "cli.py").is_file():
        print(f"error: no mnseries sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        setup(args.seed, args.setup_only)
        json.loads(EXPECTED.read_text())
        done = time.perf_counter()
        print(repr(done), repr(spot_factor()))
        return 0
    cells = WORKLOADS[args.workload]

    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="fixtures-", dir=OUT_DIR))
    cli, paths = setup(args.seed, tmp / "run")
    expected = json.loads(EXPECTED.read_text())
    setups: list[tuple[float, float]] = []

    def timed_setup():
        setups.append(cold_setup(args, tmp / f"setup-{len(setups)}"))

    passes = []
    speed = HostSpeed()
    speed.start()
    try:
        if args.trace:
            passes.append(run_pass(cli, cells, paths, args.seed))
            tracer = Tracer()
            tracer.install()
            try:
                missing = unwrapped(tracer)
                if not missing:
                    passes.append(run_pass(cli, cells, paths, args.seed))
            finally:
                tracer.restore()
            if missing:
                print(f"error: not wrapped by the tracer: {', '.join(missing)}", file=sys.stderr)
                return 1
        else:
            for _ in range(SETUP_REPEATS):
                timed_setup()
            t_start = time.perf_counter()
            while True:
                passes.append(run_pass(cli, cells, paths, args.seed))
                if len(passes) == 1:
                    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                elapsed = time.perf_counter() - t_start
                if elapsed + elapsed / len(passes) > args.seconds:
                    break
                timed_setup()
    finally:
        speed.stop()
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed = count_failures(passes, expected["cells"])
    digests = expected["digests"].get(str(args.seed))
    if digests is None:
        print(f"report digests: none recorded for seed {args.seed}")
    else:
        changed = [cell_id(r.cell) for r in passes[0] if digests.get(cell_id(r.cell)) != r.digest]
        for name in changed:
            print(f"report digest changed: {name}")
        print(f"report digests: {len(passes[0]) - len(changed)} of {len(passes[0])} "
              f"cells match seed {args.seed}")

    if args.trace:
        stats = tracer.layer_stats(speed.reference_clock)
        metrics = {f"{name}.{field}": (stats.get(name, {}).get(field, 0),
                                       "count" if field == "calls" else "s")
                   for name, field in LAYER_METRICS}
        tally = ReportTally()
        for run in passes[1]:
            tally.add(run.cell, run.stdout)
        metrics.update(tally.metrics())
        metrics["fail_ratio"] = (failed / attempted, "ratio")
        untraced, traced = (speed.reference_seconds(p[0].t0, p[-1].t1) for p in passes)
        metrics["trace_overhead_ratio"] = (traced / untraced, "ratio")
        tracer.dump(OUT_DIR, f"spans-{args.workload}")
        print(f"spans: {len(tracer.start)} written to {OUT_DIR / f'spans-{args.workload}.bin'}")
    else:
        metrics = end_to_end(passes, setups, speed, peak_rss)
        raw_wall = sum(statistics.median(p[i].t1 - p[i].t0 for p in passes)
                       for i in range(len(cells)))
        raw_setup = statistics.median(raw for raw, _ in setups)
        print(f"passes: {len(passes)} of {len(cells)} cells; set-ups: {len(setups)}; "
              f"host-speed probes: {len(speed.times)}")
        print(f"raw wall seconds, uncorrected: pass {raw_wall:.6g} s, set-up {raw_setup:.6g} s; "
              f"reference/raw {metrics['wall_s'][0] / raw_wall:.4g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
