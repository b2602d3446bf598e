#!/usr/bin/env python3
"""Benchmark of the cutnitsche solver, one workload per invocation.

    python3 perfbench/run.py --workload tables --seed 0 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` (nothing is installed).  Every process (``worker.py``) runs with
one BLAS thread; the load is one closed loop, one operation at a time.

Each pass over the workload runs in its own fresh process, so a cache in
the package starts cold every time, as it does for a user; passes repeat
until the next one would end after ``--seconds``.  With ``--trace 0`` the
result holds the end-to-end metrics of ``BENCHMARK.json``: the median pass
time ``wall_s``, the set-up time ``setup_s`` (median over several fresh
processes of process start to the end of the warm-up solve), the median
``peak_rss_mb`` of the pass processes and ``flux_contrast_spread``.  With
``--trace 1`` one more pass runs traced: it wraps the package's public
functions and reports the per-layer metrics, and ``trace.overhead_s`` is
its time minus the untraced ``wall_s``.

Both times are rescaled to a nominal machine speed (``calibrate.py``): the
shared host's CPU speed drifts by a factor of up to 1.6 within minutes, so
a pass's time is multiplied by the mean speed that a fixed reference
kernel, run from a timer every quarter second of the pass, measured, and
a set-up time by the speed measured right after it.  The raw times and
the speeds are in the ``detail:`` line.

Human-readable lines come first; the last line of stdout is the JSON
result.  Exit code 2 when the package or the benchmark spec is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPEC = ROOT / "BENCHMARK.json"
PACKAGE = ROOT / "src" / "cutnitsche" / "__init__.py"

# setup_s is the median over this many fresh processes: the workload's
# passes, topped up with processes that only set up
SETUP_SAMPLES = 7
# every worker must have ended this long after start (the contract allows 180 s)
DEADLINE_S = 170.0
# One BLAS thread (at most nproc).  With two on a 2-CPU box, OpenBLAS's
# second thread spins through CG's vector operations: a level-5 contrast-1e9
# CG solve took 2.8-3.4 s of wall time and twice that in CPU time, against
# 2.2-2.5 s with one thread.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int:
    return min(BLAS_THREADS, nproc())


def worker_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(blas_threads())
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(argv: list[str], deadline: float) -> dict:
    """Start worker.py, wait for it, and return its result.

    ``setup_s`` is measured from just before the process is started to the
    end of its warm-up; both ends read CLOCK_MONOTONIC, which is shared by
    all processes of the machine.
    """
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *argv], cwd=ROOT,
                              env=worker_env(), stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {argv} did not end within the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {argv} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_raw_s"] = result["warmup_end"] - start
    result["setup_s"] = result["setup_raw_s"] * result["setup_speed"]
    return result


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Passes in fresh processes until the next one would end after
    ``seconds`` (at least one), then the traced pass or the extra set-ups."""
    deadline = time.monotonic() + DEADLINE_S
    args = ["--workload", workload, "--seed", str(seed)]
    begin = time.monotonic()
    passes = []
    while True:
        passes.append(run_worker(args + ["--trace", "0"], deadline))
        elapsed = time.monotonic() - begin
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    wall = statistics.median(p["pass_s"] * p["pass_speed"] for p in passes)
    runs = list(passes)
    if trace:
        traced = run_worker(args + ["--trace", "1"], deadline)
        runs.append(traced)
        values = dict(traced["layers"])
        # the traced pass is not sampled: raw against raw
        values["trace.overhead_s"] = (traced["pass_s"]
                                      - statistics.median(p["pass_s"] for p in passes))
        wanted = spec["per_layer"]
    else:
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_worker(["--setup-only"], deadline)["setup_s"])
        values = {"wall_s": wall,
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
                  "flux_contrast_spread": max(p["flux_contrast_spread"] for p in passes)}
        wanted = spec["end_to_end"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    first = passes[0]
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "radius": first["radius"],
        "pass_s": [p["pass_s"] for p in passes],
        "pass_speed": [p["pass_speed"] for p in passes],
        "speed_samples": [p["speed_samples"] for p in passes],
        "setup_raw_s": [r["setup_raw_s"] for r in runs],
        "setup_speed": [r["setup_speed"] for r in runs],
        "error_rate": failed / attempted, "failures": [f for r in runs for f in r["failures"]],
        "sizes": first["sizes"], "solver_iterations": first["solver_iterations"],
        "geometry_keys": first["geometry_keys"],
        "geometry_keys_as_declared": first["geometry_keys_as_declared"],
        "nproc": nproc(), "blas_threads": blas_threads(), "versions": first["versions"],
        "commit": git_commit(),
    }
    # correct: no output failed its check; operations that raised produced
    # no output and count in failed only
    correct = not any(r["wrong"] for r in runs)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not SPEC.is_file() or not PACKAGE.is_file():
        print(f"error: run from a checkout holding {SPEC.name} and {PACKAGE.parent}",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r} (choose from {names})",
              file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    try:
        result = measure(args.workload, args.seed, seconds, bool(args.trace), spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    detail = result.pop("detail")
    for name, m in result["metrics"].items():
        print(f"[{args.workload}] {name} = {m['value']:.6g} {m['unit']}")
    print(f"[{args.workload}] error_rate = {detail['error_rate']:.6g} "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for failure in detail["failures"]:
        print(f"[{args.workload}] FAILED {failure}", file=sys.stderr)
    print("detail: " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
