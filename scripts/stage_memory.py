#!/usr/bin/env python3
"""Seconds and memory of each stage of one solve, without the solve.

Two fixed cases: the circle with the inclusion on the plus side at
contrast 1e9 (``rho`` 1 / 1e9), and the flower of example 2 at ``rho``
1 / 1e5, whose classify samples every edge for multiple roots.  For each
case, at levels 5..7, the stages are mesh, classify, spaces,
assemble_parts (the five matrix parts alone), build_system, load (a
second ``assemble_load``) and the error report of the lifted zero field;
the circle's last stage is extension, ``build_extension`` on its layout.
Each level runs them once under tracemalloc for memory, then
``TIMED_RUNS`` times with tracemalloc off for time, since tracing charges
every allocation and one run's time is noise.  The machine's speed is
sampled all through each level's untraced runs by ``perfbench/calibrate.py``'s
``Sampler``, which runs that file's reference kernel every quarter second
or so; the samples' mean is the level's ``speed``, 1 at the kernel's
nominal speed.  Per stage it records

* ``seconds``: the median wall time of the untraced runs, each less the
  time the sampler's kernel took within it;
* ``nominal_s``: ``seconds`` times the level's speed, the time at nominal
  machine speed, which a drift of the host's speed moves far less;
* ``output_mb``: traced memory the stage leaves allocated;
* ``extra_mb``: traced peak above the traced memory at the stage's start,
  the output included;
* ``rss_mb`` and ``maxrss_mb``: resident set size after the stage in the
  first run, and its high-water mark so far in the process, which is a
  fresh one for each case.

It prints one line per stage and writes the measurement of each case,
with the number of untraced runs as ``timed_runs``, into one column of
that case in ``BENCH_memory.json`` at the repository root, ``change``
unless ``--column`` names another.  Any other column already in that
file is kept, so a column measured at an earlier commit stays beside
it; to measure one, run this script with that commit's ``src`` on
PYTHONPATH.
Each column records the ``git describe --always`` of the checkout the
package was imported from, with ``-dirty`` when ``git status`` lists a
file under the package (not when only the record or another file outside
it changed); outside a git checkout the script exits 1 before it measures
anything.

    python scripts/stage_memory.py
    PYTHONPATH=/path/to/parent/src python scripts/stage_memory.py --column parent
    python scripts/stage_memory.py --levels 8 --column change-L8   # under ulimit -v
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
from cutnitsche.harness import RunConfig, make_problem  # noqa: E402
from cutnitsche.mesh import build_mesh  # noqa: E402
from cutnitsche.norms import error_report  # noqa: E402
from cutnitsche.space import build_spaces  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_memory.json"
_spec = importlib.util.spec_from_file_location("calibrate", ROOT / "perfbench" / "calibrate.py")
calibrate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(calibrate)
MB = 1024.0 ** 2
# untraced runs per level; each stage's seconds are their median
TIMED_RUNS = 3
CASES = {
    "circle-plus": ("circle r=1/3, inclusion plus, rho 1 / 1e9; no solve",
                    RunConfig(example="1", inclusion_side="plus", rho_minus=1.0, rho_plus=1e9)),
    "flower": ("flower (example 2), inclusion minus, rho 1 / 1e5; no solve",
               RunConfig(example="2", rho_minus=1.0, rho_plus=1e5)),
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


def traced(fn):
    """Run fn under tracemalloc; its result and its memory record."""
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = fn()
    current, peak = tracemalloc.get_traced_memory()
    return out, {
        "output_mb": round((current - base) / MB, 1),
        "extra_mb": round((peak - base) / MB, 1),
        "rss_mb": round(rss_mb(), 1),
        "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def timed(sampler, fn):
    """Run fn; its result and its wall time less the time ``sampler``
    spent sampling within it."""
    t0, spent = time.perf_counter(), sampler.spent
    out = fn()
    spent = sampler.spent - spent
    return out, round(time.perf_counter() - t0 - spent, 3)


def stages(config: RunConfig, level: int, measure, extension: bool) -> dict:
    """One record per stage, each from ``measure(stage)``; ``extension``
    adds the ``build_extension`` stage last."""
    ls, spec = make_problem(config)
    record = {}
    mesh, record["mesh"] = measure(lambda: build_mesh(level))
    topo, record["classify"] = measure(lambda: classify(mesh, ls))
    layout, record["spaces"] = measure(lambda: build_spaces(topo))
    parts, record["assemble_parts"] = measure(lambda: assemble_parts(layout, spec))
    del parts
    system, record["build_system"] = measure(lambda: build_system(layout, spec))
    _, record["load"] = measure(lambda: assemble_load(layout, spec))
    u_h = expand_solution(system, np.zeros(system.n))
    _, record["error_report"] = measure(lambda: error_report(spec, u_h))
    if extension:
        _, record["extension"] = measure(lambda: build_extension(layout))
    return record


def measure_case(key: str, levels) -> dict:
    """Per level, the machine's speed and the record of each stage of one
    case: memory from a traced run, seconds the median of ``TIMED_RUNS``
    untraced ones, sampled for speed as they run."""
    config, extension = CASES[key][1], key in EXTENSION_CASES
    out = {}
    for level in levels:
        tracemalloc.start()
        memory = stages(config, level, traced, extension)
        tracemalloc.stop()
        with calibrate.Sampler() as sampler:
            runs = [stages(config, level, partial(timed, sampler), extension)
                    for _ in range(TIMED_RUNS)]
        speed = sampler.speed()
        out[f"L{level}"] = level_out = {"speed": round(speed, 3)}
        for name, rec in memory.items():
            seconds = statistics.median(run[name] for run in runs)
            level_out[name] = rec = {"seconds": seconds, "nominal_s": round(seconds * speed, 3),
                                     **rec}
            print(f"{key} L{level} {name:<14} " + " ".join(f"{k} {v}" for k, v in rec.items()),
                  flush=True)
        print(f"{key} L{level} speed {level_out['speed']}", flush=True)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--levels", type=parse_levels, default=parse_levels("5..7"))
    ap.add_argument("--column", default="change")
    args = ap.parse_args(argv)
    commit = source_commit()

    doc = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {}
    for key, (description, _) in CASES.items():
        # a fresh process per case, so its RSS high-water marks are its own
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
            levels = pool.submit(measure_case, key, args.levels).result()
        case = doc.setdefault("cases", {}).setdefault(key, {})
        case["case"] = description
        case.setdefault("columns", {})[args.column] = {
            "commit": commit,
            "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                         "scipy": scipy.__version__},
            "cpus": os.cpu_count(),
            "timed_runs": TIMED_RUNS,
            "levels": levels,
        }
    OUTPUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
