#!/usr/bin/env python3
"""Reproduce the benchmark tables of the solver.

Runs both convergence studies (circular inclusion on either side of the
interface, five-lobed flower), the four coefficient-contrast sweeps, and
the linear patch test.  Each table is printed as markdown and written as
CSV next to the chosen output directory.
"""
import argparse
import pathlib
import sys
import time

from cutnitsche.cli import parse_levels
from cutnitsche.harness import (CONTRAST_PAIRS, RunConfig, run_contrast_sweep,
                                run_convergence, run_solve, solve_table)

TABLES = (
    ("table1_circle_minus_convergence",
     "Convergence, circular inclusion in the low-coefficient side",
     "convergence",
     RunConfig(example="1", rho_minus=1.0, rho_plus=1e4)),
    ("table2_circle_plus_convergence",
     "Convergence, circular inclusion in the high-coefficient side",
     "convergence",
     RunConfig(example="1", rho_minus=1.0, rho_plus=1e4, inclusion_side="plus")),
    ("table3_circle_minus_contrast",
     "Contrast sweep at the finest level, inclusion in the low side",
     "contrast",
     RunConfig(example="1", level=5)),
    ("table4_circle_plus_contrast",
     "Contrast sweep at the finest level, inclusion in the high side",
     "contrast",
     RunConfig(example="1", level=5, inclusion_side="plus")),
    ("table5_flower_convergence",
     "Convergence, flower interface",
     "convergence",
     RunConfig(example="2", rho_minus=1.0, rho_plus=1e5)),
    ("table6_flower_contrast",
     "Contrast sweep at the finest level, flower interface",
     "contrast",
     RunConfig(example="2", level=5)),
    ("patch_test",
     "Linear patch test (all errors should be at round-off)",
     "solve",
     RunConfig(example="patch", level=3)),
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="tables", help="directory for CSV output")
    ap.add_argument("--levels", type=parse_levels,
                    help="levels for the convergence studies (e.g. 1..5 or 1,2,3; "
                         "default: run_convergence's)")
    ap.add_argument("--only", default="",
                    help="comma list of table name prefixes to run (default: all)")
    args = ap.parse_args(argv)

    wanted = tuple(t for t in args.only.split(",") if t)
    chosen = [t for t in TABLES if not wanted or any(t[0].startswith(w) for w in wanted)]
    if not chosen:
        print(f"--only {args.only}: no table name starts with it", file=sys.stderr)
        return 2

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for name, title, kind, config in chosen:
        t0 = time.perf_counter()
        if kind == "convergence":
            table = run_convergence(config, levels=args.levels)
        elif kind == "contrast":
            table = run_contrast_sweep(config, pairs=CONTRAST_PAIRS)
        else:
            table = solve_table(run_solve(config))
        dt = time.perf_counter() - t0
        print(f"\n## {title}  ({dt:.1f}s)\n")
        print(table.to_markdown())
        path = outdir / f"{name}.csv"
        path.write_text(table.to_csv())
        print(f"-> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
