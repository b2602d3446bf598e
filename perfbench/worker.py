#!/usr/bin/env python3
"""Run one pass of a workload in this fresh process; print the result as JSON.

``run.py`` starts this script once per pass, with the package's ``src``
directory on PYTHONPATH and the BLAS thread caps in the environment.
The process imports the package, runs the warm-up solve, then runs the
workload's operations once, as a user running the script would.  The
reference kernel of ``calibrate.py`` runs after the warm-up and, from a
timer, every quarter second of an untraced pass, to measure the machine's
speed; its time is not counted in the pass.  A
process-wide cache therefore starts cold in every pass.  ``--setup-only``
stops after the warm-up.  The last line of stdout is the result.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "cutnitsche"
SPANS_DIR = ROOT / ".bench_out"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", default="")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import cutnitsche
    if pathlib.Path(cutnitsche.__file__).resolve().parent != PACKAGE.resolve():
        print(f"error: imported cutnitsche from {cutnitsche.__file__}, "
              f"not from {PACKAGE}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    workloads.warm_up()
    warmup_end = time.monotonic()
    import calibrate
    # the machine's speed right after set-up, to rescale the set-up time
    setup_speed = calibrate.speed()
    if args.setup_only:
        print(json.dumps({"warmup_end": warmup_end, "setup_speed": setup_speed}))
        return 0

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer(spans=bool(args.trace))
    # the traced pass is not sampled: the samples would land in its spans
    sampler = contextlib.nullcontext(None) if args.trace else calibrate.Sampler()
    runs = []
    with sampler as speed, tracer:
        t0 = time.perf_counter()
        for op in wl.operations:
            with tracer.operation(op.name):
                try:
                    runs.append((op, op.run(), None))
                except Exception as exc:  # a failed operation is counted, not fatal
                    runs.append((op, None, f"{type(exc).__name__}: {exc}"))
        elapsed = time.perf_counter() - t0
    pass_s = elapsed - (speed.spent if speed else 0.0)
    pass_speed = speed.speed() if speed else 1.0

    failures, wrong = [], 0
    flux_spread = 1.0   # 1 on workloads without a contrast sweep
    for op, output, error in runs:
        if error is None:
            solves = [s for s in tracer.solves if s.op == op.name]
            problems = wl.check(op, output, solves)
            if op.kind == "contrast":
                flux_spread = max(flux_spread, workloads.flux_spread(output))
            if problems:
                wrong += 1
                error = "wrong output: " + "; ".join(problems)
        if error is not None:
            failures.append(f"{op.name}: {error}")

    import numpy
    import scipy
    result = {
        "warmup_end": warmup_end,
        "setup_speed": setup_speed,
        "pass_s": pass_s,
        "pass_speed": pass_speed,
        "speed_samples": len(speed.samples) if speed else 0,
        "attempted": len(runs),
        "failed": len(failures),
        "wrong": wrong,
        "failures": failures,
        "flux_contrast_spread": flux_spread,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "radius": workloads.circle_radius(args.seed),
        "sizes": dict(tracer.sizes),
        "solver_iterations": sum(s.iterations for s in tracer.solves),
        # (level, interface) keys classified, and whether they are the ones
        # the workload declares (the warm-up's disjointness rests on them)
        "geometry_keys": len(set(tracer.keys)),
        "geometry_keys_as_declared": set(tracer.keys) == wl.geometry_keys,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if args.trace:
        result["layers"] = tracer.layer_metrics()
        _write_spans(tracer, args.workload, args.seed)
    print(json.dumps(result))
    return 0


def _write_spans(tracer, workload: str, seed: int) -> None:
    SPANS_DIR.mkdir(exist_ok=True)
    selfs = tracer.self_times()
    path = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps({**dataclasses.asdict(span), "self_s": selfs[span.id]}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
