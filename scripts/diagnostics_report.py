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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--output", default="", help="write report here instead of stdout")
    ap.add_argument("--rho-minus", type=float, default=1.0)
    ap.add_argument("--rho-plus", type=float, default=1e4)
    ap.add_argument("--inclusion-side", default="minus", choices=("minus", "plus"))
    ap.add_argument("--patch-levels", default="1..5")
    ap.add_argument("--coercivity-levels", default="1,2")
    ap.add_argument("--interpolation-levels", default="1..5")
    ap.add_argument("--extension-levels", default="2..5")
    args = ap.parse_args(argv)

    config = RunConfig(example="1", rho_minus=args.rho_minus,
                       rho_plus=args.rho_plus,
                       inclusion_side=args.inclusion_side)
    report = run_diagnostics(
        config,
        patch_levels=parse_levels(args.patch_levels),
        coercivity_levels=parse_levels(args.coercivity_levels),
        interpolation_levels=parse_levels(args.interpolation_levels),
        extension_levels=parse_levels(args.extension_levels),
    )
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report)
        print(f"-> {args.output}")
    else:
        print(report, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
