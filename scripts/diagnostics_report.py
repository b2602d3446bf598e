#!/usr/bin/env python3
"""Print the structural diagnostics report.

Covers the cut-geometry patch-area profile, a coercivity probe of the
stabilized bilinear form, the interpolation-error profile of the doubled
space, and the stability of the discrete extension operator across
refinement levels.
"""
import argparse
import sys

from cutnitsche.cli import parse_levels
from cutnitsche.diagnostics import run_diagnostics
from cutnitsche.harness import RunConfig

CONFIG_KEYS = ("rho_minus", "rho_plus", "inclusion_side")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--output", default="", help="write report here instead of stdout")
    ap.add_argument("--rho-minus", type=float)
    ap.add_argument("--rho-plus", type=float)
    ap.add_argument("--inclusion-side", choices=("minus", "plus"))
    ap.add_argument("--patch-levels", type=parse_levels)
    ap.add_argument("--coercivity-levels", type=parse_levels)
    ap.add_argument("--interpolation-levels", type=parse_levels)
    ap.add_argument("--extension-levels", type=parse_levels)
    args = ap.parse_args(argv)

    # forward only the flags given: RunConfig and run_diagnostics hold the defaults
    given = {k: v for k, v in vars(args).items() if v is not None and k != "output"}
    config = RunConfig(example="1", **{k: given.pop(k) for k in CONFIG_KEYS if k in given})
    report = run_diagnostics(config, **given)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report)
        print(f"-> {args.output}")
    else:
        print(report, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
