#!/usr/bin/env python3
"""Record the seed-0 outputs that the benchmark compares against.

    python3 perfbench/record_references.py

Runs every workload's operations once at seed 0 (the paper's
configuration), with the BLAS settings of the benchmark's processes, and
writes each output to ``perfbench/references/<workload>/<operation>.csv``.
Rerun it only when the package's outputs are meant to change.
"""
import os
import sys

import run

os.environ.update(run.worker_env())   # before numpy is imported
sys.path.insert(0, str(run.ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    for make in workloads.WORKLOADS.values():
        wl = make(0)
        out = workloads.REFERENCES / wl.name
        out.mkdir(parents=True, exist_ok=True)
        for op in wl.operations:
            (out / f"{op.name}.csv").write_text(op.run())
            print(f"-> {out / op.name}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
