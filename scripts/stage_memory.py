#!/usr/bin/env python3
"""Seconds and memory of each stage of one solve.

Two records.  The memory record (the default, ``BENCH_memory.json``)
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
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
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
# per record: its file, its cases and its default levels
RECORDS = {
    "memory": (ROOT / "BENCH_memory.json", MEMORY_CASES, "5..7"),
    "stages": (ROOT / "BENCH_stages.json", STAGE_CASES, "3..7"),
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--record", choices=sorted(RECORDS), default="memory")
    ap.add_argument("--levels", type=parse_levels)
    ap.add_argument("--column", default="change")
    args = ap.parse_args(argv)
    output, cases, default_levels = RECORDS[args.record]
    levels = args.levels or parse_levels(default_levels)
    commit = source_commit()

    doc = json.loads(output.read_text()) if output.exists() else {}
    for key, (description, _) in cases.items():
        # a fresh process per case, so its RSS high-water marks are its own
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
            measured = pool.submit(measure_case, args.record, key, levels).result()
        case = doc.setdefault("cases", {}).setdefault(key, {})
        case["case"] = description
        case.setdefault("columns", {})[args.column] = {
            "commit": commit,
            "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                         "scipy": scipy.__version__},
            "cpus": os.cpu_count(),
            "timed_runs": TIMED_RUNS,
            "levels": measured,
        }
    output.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
