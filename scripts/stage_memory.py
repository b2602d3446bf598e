#!/usr/bin/env python3
"""Seconds and memory of each stage of one solve, and of whole processes.

Three records.  The memory record (the default, ``BENCH_memory.json``)
has two fixed cases: the circle with the inclusion on the plus side at
contrast 1e9 (``rho`` 1 / 1e9), and the flower of example 2 at ``rho``
1 / 1e5.  For each case, at levels 5..7, its stages are mesh, classify,
spaces, assemble_parts (the five matrix parts alone), build_system, load
(a second ``assemble_load``) and the error report of the lifted zero
field, without a solve; the circle's last stage is extension,
``build_extension`` on its layout.  Each level runs them once under
tracemalloc for memory, then ``TIMED_RUNS`` times with tracemalloc off
for time, since tracing charges every allocation and one run's time is
noise.

The stage record (``--record stages``, ``BENCH_stages.json``) has the
five cases of the project's aim: the circle with the inclusion on the
minus and on the plus side, each at ``rho`` 1 / 1e4 and 1 / 1e9, and the
flower at 1 / 1e5.  For each, at levels 3..7, its stages are mesh,
classify, spaces, build_system, solve (CG, a stagnated iterate accepted
by its backward error as the harness accepts it) and the error report
of the solution.  It has no traced run: each case's process first runs
its lowest level once untimed, since the first sparse solve in a process
is the slowest, then each level ``TIMED_RUNS`` times, once from level
7 on.  The solve stage also records the method, the iterations and the
backward error of the solve.

The machine's speed is sampled all through each level's untraced runs
by ``perfbench/calibrate.py``'s ``Sampler``, which runs that file's
reference kernel every quarter second or so; the samples' mean is the
level's ``speed``, 1 at the kernel's nominal speed.  Per stage it
records

* ``seconds``: the median wall time of the untraced runs, each less the
  time the sampler's kernel took within it;
* ``nominal_s``: ``seconds`` times the level's speed, the time at nominal
  machine speed, which a drift of the host's speed moves far less;
* ``output_mb``: traced memory the stage leaves allocated (memory record);
* ``extra_mb``: traced peak above the traced memory at the stage's start,
  the output included (memory record);
* ``rss_mb`` and ``maxrss_mb``: resident set size after the stage in the
  first run, and its high-water mark so far in the process, which is a
  fresh one for each case.

The end-to-end record (``--record e2e``, ``BENCH_e2e.json``) times
whole processes, each started fresh in the checkout the package was
imported from, with that checkout's ``src`` on PYTHONPATH:

* ``solve-L6`` and ``solve-L7``: ``cutnitsche solve`` for the circle with
  the inclusion on the plus side at ``rho`` 1 / 1e9;
* ``reproduce_tables``: ``scripts/reproduce_tables.py``, every table;
* ``tier1``: the test suite, with its passed and failed counts.

Each row holds its runs (``E2E_ROWS``) and their medians; set-up time
is perfbench's ``setup_s`` alone.  Per run, ``seconds`` is the wall
time, ``speeds`` the machine's speed read by ``calibrate.speed`` right
before and right after the process, ``nominal_s`` the seconds times
their mean, and ``maxrss_mb`` the child's peak RSS from its rusage.
The BLAS thread caps below hold in every child.

It prints one line per stage and writes the measurement of each case,
with the number of untraced runs per level as ``timed_runs``, into one
column of that case in the record's file at the repository root,
``change`` unless ``--column`` names another.  Any other column already
in that file is kept, so a column measured at an earlier commit stays
beside it; to measure one, run this script with that commit's ``src``
on PYTHONPATH.
Each column records the ``git describe --always`` of the checkout the
package was imported from, with ``-dirty`` when ``git status`` lists a
file under the package (not when only the record or another file outside
it changed); outside a git checkout the script exits 1 before it measures
anything.

    python scripts/stage_memory.py
    PYTHONPATH=/path/to/parent/src python scripts/stage_memory.py --column parent
    python scripts/stage_memory.py --levels 8 --column change-L8   # under ulimit -v
    python scripts/stage_memory.py --record stages
    python scripts/stage_memory.py --record e2e
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy is imported

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import pathlib  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from functools import partial  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import cutnitsche  # noqa: E402
from cutnitsche.assembly import (assemble_load, assemble_parts, build_system,  # noqa: E402
                                 expand_solution)
from cutnitsche.cli import parse_levels  # noqa: E402
from cutnitsche.cutcell import classify  # noqa: E402
from cutnitsche.diagnostics import build_extension  # noqa: E402
from cutnitsche.harness import RunConfig, make_problem, solve_accepting_floor  # noqa: E402
from cutnitsche.mesh import build_mesh  # noqa: E402
from cutnitsche.norms import error_report  # noqa: E402
from cutnitsche.space import build_spaces  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("calibrate", ROOT / "perfbench" / "calibrate.py")
calibrate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(calibrate)
MB = 1024.0 ** 2
# untraced runs per level; each stage's seconds are their median.  The
# stage record runs levels from SINGLE_RUN_LEVEL on once
TIMED_RUNS = 3
SINGLE_RUN_LEVEL = 7
MEMORY_CASES = {
    "circle-plus": ("circle r=1/3, inclusion plus, rho 1 / 1e9; no solve",
                    RunConfig(example="1", inclusion_side="plus", rho_minus=1.0, rho_plus=1e9)),
    "flower": ("flower (example 2), inclusion minus, rho 1 / 1e5; no solve",
               RunConfig(example="2", rho_minus=1.0, rho_plus=1e5)),
}
STAGE_CASES = {
    "circle-minus-1e4": ("circle r=1/3, inclusion minus, rho 1 / 1e4",
                         RunConfig(example="1", rho_minus=1.0, rho_plus=1e4)),
    "circle-minus-1e9": ("circle r=1/3, inclusion minus, rho 1 / 1e9",
                         RunConfig(example="1", rho_minus=1.0, rho_plus=1e9)),
    "circle-plus-1e4": ("circle r=1/3, inclusion plus, rho 1 / 1e4",
                        RunConfig(example="1", inclusion_side="plus", rho_minus=1.0, rho_plus=1e4)),
    "circle-plus-1e9": ("circle r=1/3, inclusion plus, rho 1 / 1e9",
                        RunConfig(example="1", inclusion_side="plus", rho_minus=1.0, rho_plus=1e9)),
    "flower-1e5": ("flower (example 2), inclusion minus, rho 1 / 1e5",
                   RunConfig(example="2", rho_minus=1.0, rho_plus=1e5)),
}
_SOLVE = ("-m", "cutnitsche", "solve", "--example", "1", "--inclusion-side", "plus",
          "--rho-minus", "1", "--rho-plus", "1e9", "--level")
# per row of the end-to-end record: its description, the arguments of the
# Python process it times ({outdir}: a fresh empty directory) and its runs
E2E_ROWS = {
    "solve-L6": ("cutnitsche solve, circle r=1/3, inclusion plus, rho 1 / 1e9, level 6",
                 _SOLVE + ("6",), 3),
    "solve-L7": ("cutnitsche solve, circle r=1/3, inclusion plus, rho 1 / 1e9, level 7",
                 _SOLVE + ("7",), 1),
    "reproduce_tables": ("scripts/reproduce_tables.py, every table",
                         ("scripts/reproduce_tables.py", "--outdir", "{outdir}"), 3),
    "tier1": ("the tier-1 suite", ("-m", "pytest", "-q", "--continue-on-collection-errors"), 1),
}
# per record: its file, its cases and its default levels
RECORDS = {
    "memory": (ROOT / "BENCH_memory.json", MEMORY_CASES, "5..7"),
    "stages": (ROOT / "BENCH_stages.json", STAGE_CASES, "3..7"),
    "e2e": (ROOT / "BENCH_e2e.json", E2E_ROWS, None),
}
# the cases whose stages end with the extension of the plus-side fields
EXTENSION_CASES = ("circle-plus",)


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / MB


def source_commit() -> str:
    """``git describe`` of the checkout the package was imported from,
    ``-dirty`` when a file under the package differs from HEAD; SystemExit
    with a message when there is none.  Files outside the package, this
    script's record among them, leave the stamp clean."""
    package = pathlib.Path(cutnitsche.__file__).resolve().parent

    def git(*args):
        try:
            return subprocess.run(["git", "-C", str(package), *args], capture_output=True, text=True)
        except OSError as exc:
            raise SystemExit(f"stage_memory: cannot run git: {exc}") from exc

    run = git("describe", "--always")
    if run.returncode or not run.stdout.strip():
        raise SystemExit(f"stage_memory: {package} is not in a git checkout, so the "
                         f"column cannot record its commit: {run.stderr.strip()}")
    status = git("status", "--porcelain", "--", ".")
    if status.returncode:
        raise SystemExit(f"stage_memory: git status failed in {package}: {status.stderr.strip()}")
    return run.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def rss_record() -> dict:
    return {"rss_mb": round(rss_mb(), 1),
            "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)}


def traced(fn):
    """Run fn under tracemalloc; its result and its memory record."""
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = fn()
    current, peak = tracemalloc.get_traced_memory()
    return out, {
        "output_mb": round((current - base) / MB, 1),
        "extra_mb": round((peak - base) / MB, 1),
        **rss_record(),
    }


def timed(sampler, fn):
    """Run fn; its result and its record: its wall time less the time
    ``sampler`` spent sampling within it, and the RSS after it."""
    t0, spent = time.perf_counter(), sampler.spent
    out = fn()
    spent = sampler.spent - spent
    return out, {"seconds": round(time.perf_counter() - t0 - spent, 3), **rss_record()}


def stages(config: RunConfig, level: int, measure, extension: bool, solving: bool):
    """One record per stage, each from ``measure(stage)``, and the solve's
    stats, None without a solve.  ``extension`` adds the
    ``build_extension`` stage last; ``solving`` takes the solve stage in
    place of assemble_parts and load, and reports the solution's errors
    in place of the lifted zero field's."""
    ls, spec = make_problem(config)
    record, stats = {}, None
    mesh, record["mesh"] = measure(lambda: build_mesh(level))
    topo, record["classify"] = measure(lambda: classify(mesh, ls))
    layout, record["spaces"] = measure(lambda: build_spaces(topo))
    if not solving:
        parts, record["assemble_parts"] = measure(lambda: assemble_parts(layout, spec))
        del parts
    system, record["build_system"] = measure(lambda: build_system(layout, spec))
    if solving:
        (x, stats), record["solve"] = measure(lambda: solve_accepting_floor(system))
    else:
        _, record["load"] = measure(lambda: assemble_load(layout, spec))
        x = np.zeros(system.n)
    u_h = expand_solution(system, x)
    _, record["error_report"] = measure(lambda: error_report(spec, u_h))
    if extension:
        _, record["extension"] = measure(lambda: build_extension(layout))
    return record, stats


def measure_case(record: str, key: str, levels) -> dict:
    """Per level, the machine's speed and the record of each stage of one
    case: memory from a traced run (the memory record) or RSS from the
    first untraced run (the stage record), seconds the median of the
    untraced runs, sampled for speed as they run."""
    config = RECORDS[record][1][key][1]
    extension, solving = key in EXTENSION_CASES, record == "stages"
    if solving:   # warm up
        stages(config, min(levels), lambda fn: (fn(), None), extension, solving)
    out = {}
    for level in levels:
        if not solving:
            tracemalloc.start()
            memory = stages(config, level, traced, extension, solving)[0]
            tracemalloc.stop()
        n_runs = 1 if solving and level >= SINGLE_RUN_LEVEL else TIMED_RUNS
        with calibrate.Sampler() as sampler:
            runs = [stages(config, level, partial(timed, sampler), extension, solving)
                    for _ in range(n_runs)]
        speed = sampler.speed()
        first, stats = runs[0]
        if solving:
            memory = {name: {k: v for k, v in rec.items() if k != "seconds"}
                      for name, rec in first.items()}
        out[f"L{level}"] = level_out = {"speed": round(speed, 3)}
        if solving:
            level_out["timed_runs"] = n_runs
        for name, rec in memory.items():
            seconds = statistics.median(run[name]["seconds"] for run, _ in runs)
            level_out[name] = rec = {"seconds": seconds, "nominal_s": round(seconds * speed, 3),
                                     **rec}
            print(f"{key} L{level} {name:<14} " + " ".join(f"{k} {v}" for k, v in rec.items()),
                  flush=True)
        if stats is not None:
            level_out["solve"].update(method=stats.method, iterations=stats.iterations,
                                      backward_error=stats.backward_error)
        print(f"{key} L{level} speed {level_out['speed']}", flush=True)
    return out


def checkout_root() -> pathlib.Path:
    """The checkout the package was imported from, whose scripts and tests
    the end-to-end record runs; SystemExit when the package is not its
    ``src/cutnitsche``."""
    root = pathlib.Path(cutnitsche.__file__).resolve().parent.parent.parent
    needed = ("src/cutnitsche", "scripts/reproduce_tables.py", "tests")
    missing = [name for name in needed if not (root / name).exists()]
    if missing:
        raise SystemExit(f"stage_memory: {root} is not a source checkout of the package: "
                         f"no {', '.join(missing)}")
    return root


def run_child(root: pathlib.Path, args) -> tuple[dict, int, str]:
    """One run of ``python args`` in ``root`` with its ``src`` on
    PYTHONPATH, between two readings of the machine's speed: its record,
    its exit code and its output."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    speeds = [calibrate.speed()]
    with tempfile.TemporaryDirectory() as outdir, tempfile.TemporaryFile("w+") as out:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, *(a.format(outdir=outdir) for a in args)],
                                cwd=root, env=env, stdout=out, stderr=subprocess.STDOUT)
        # wait4, not wait: its rusage is this child's alone
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read()
    speeds.append(calibrate.speed())
    return {"seconds": round(seconds, 3), "speeds": [round(v, 3) for v in speeds],
            "nominal_s": round(seconds * statistics.fmean(speeds), 3),
            "maxrss_mb": round(usage.ru_maxrss / 1024.0, 1)}, proc.returncode, text


def measure_row(key: str, root: pathlib.Path) -> dict:
    """The runs of one row of the end-to-end record and their medians; the
    tier-1 row also holds its exit code and its passed and failed counts.
    SystemExit when any other row's process fails."""
    _, args, n_runs = E2E_ROWS[key]
    runs = []
    for _ in range(n_runs):
        run, code, text = run_child(root, args)
        if code and key != "tier1":
            raise SystemExit(f"stage_memory: {key} exited with {code}:\n{text[-2000:]}")
        runs.append(run)
        print(f"{key} " + " ".join(f"{k} {v}" for k, v in run.items()), flush=True)
    row = {name: statistics.median(run[name] for run in runs)
           for name in ("seconds", "nominal_s", "maxrss_mb")}
    if key == "tier1":
        # pytest's summary, the last line: "1 failed, 531 passed, 2 errors in 240.1s"
        summary = (text.strip().splitlines() or [""])[-1]
        counts = {word: int(n)
                  for n, word in re.findall(r"(\d+) (passed|failed|error)s?\b", summary)}
        row.update(exit_code=code, passed=counts.get("passed", 0),
                   failed=counts.get("failed", 0) + counts.get("error", 0))
    return {**row, "timed_runs": n_runs, "runs": runs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--record", choices=sorted(RECORDS), default="memory")
    ap.add_argument("--levels", type=parse_levels)
    ap.add_argument("--column", default="change")
    args = ap.parse_args(argv)
    output, cases, default_levels = RECORDS[args.record]
    e2e = args.record == "e2e"
    if e2e and args.levels:
        ap.error("the e2e record has no levels")
    levels = None if e2e else args.levels or parse_levels(default_levels)
    commit = source_commit()
    root = checkout_root() if e2e else None

    doc = json.loads(output.read_text()) if output.exists() else {}
    for key, (description, *_) in cases.items():
        if e2e:
            measured = measure_row(key, root)
        else:
            # a fresh process per case, so its RSS high-water marks are its own
            with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
                measured = {"timed_runs": TIMED_RUNS,
                            "levels": pool.submit(measure_case, args.record, key, levels).result()}
        case = doc.setdefault("cases", {}).setdefault(key, {})
        case["case"] = description
        case.setdefault("columns", {})[args.column] = {
            "commit": commit,
            "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                         "scipy": scipy.__version__},
            "cpus": os.cpu_count(),
            **measured,
        }
    output.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
