#!/usr/bin/env python3
"""Measure every workload over several seeds and summarise the spread.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json

Runs ``run.py`` once per (workload, seed) with tracing off, for seeds
0..N-1, then once per workload with tracing on at seed 0.  For each
end-to-end metric it prints and stores the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to the metric's bound from ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(l[len("detail: "):]) for l in lines if l.startswith("detail: "))
    return json.loads(lines[-1]), detail


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", default="", help="comma list (default: all)")
    ap.add_argument("--out", default="", help="write the summary here as JSON")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    summary = {"run_seconds": spec["run_seconds"], "seeds": list(range(args.seeds)),
               "workloads": {}}
    for name in names:
        runs = []
        for seed in range(args.seeds):
            result, detail = run(name, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, **result, "detail": detail})
            values = ", ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
            print(f"{name} seed {seed}: {values} failed={result['failed']}", flush=True)
        traced, traced_detail = run(name, 0, spec["run_seconds"], 1)
        stats = {}
        for m in spec["end_to_end"]:
            s = spread([r["metrics"][m["name"]]["value"] for r in runs])
            stats[m["name"]] = {**s, "unit": m["unit"], "bound": m["bound"]}
            print(f"{name} {m['name']}: median {s['median']:.6g} {m['unit']}, "
                  f"quartile spread {s['spread']:.4f} of the median (bound {m['bound']})")
        summary["workloads"][name] = {
            "metrics": stats,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "runs": runs,
            "traced": {"metrics": {k: m["value"] for k, m in traced["metrics"].items()},
                       "detail": traced_detail},
        }
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
