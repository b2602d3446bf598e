"""Command-line front end.

Subcommands drive the harness: `solve` one case, `convergence` a level
study, `contrast` a coefficient sweep, `diagnostics` the structural
checks.  Configuration is a flat key = value file; any flag overrides
the corresponding key.  Exit codes: 0 success, 1 configuration error,
2 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .assembly import dump_matrix
from .cutcell import dump_cut_cells
from .harness import (ConfigError, RunConfig, dump_solution, run_contrast_sweep,
                      run_convergence, run_solve, solve_table)
from .levelset import GeometryError
from .mesh import dump_mesh
from .solver import SolverError

__all__ = ["main", "parse_config_file", "load_config", "parse_levels"]

_STR_KEYS = ("example", "interface", "inclusion_side", "weighting",
             "output_path", "format")
_FLOAT_KEYS = ("circle_radius", "rho_minus", "rho_plus", "gamma",
               "gamma_g_minus", "gamma_g_plus")
_KNOWN_KEYS = _STR_KEYS + _FLOAT_KEYS + ("level", "levels")


def parse_levels(text: str) -> tuple[int, ...]:
    """'1..5' (inclusive range) or '1,2,3'."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(part) for part in text.split(",") if part.strip())


def parse_config_file(path: str) -> dict:
    """Flat key = value lines; # starts a comment; errors carry line numbers."""
    values = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if key in _FLOAT_KEYS:
                values[key] = float(value)
            elif key == "level":
                values[key] = int(value)
            elif key == "levels":
                values[key] = parse_levels(value)
            else:
                values[key] = value
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def load_config(args: argparse.Namespace) -> RunConfig:
    """Config file first, then flag overrides."""
    values = parse_config_file(args.config) if args.config else {}
    for key in _KNOWN_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = parse_levels(flag) if key == "levels" else flag
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through ConfigError
    # so the documented exit code 1 applies.
    def error(self, message):
        raise ConfigError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--example", choices=("1", "2", "patch"))
    parser.add_argument("--interface", choices=("circle", "flower"))
    parser.add_argument("--circle-radius", dest="circle_radius", type=float)
    parser.add_argument("--inclusion-side", dest="inclusion_side",
                        choices=("minus", "plus"))
    parser.add_argument("--rho-minus", dest="rho_minus", type=float)
    parser.add_argument("--rho-plus", dest="rho_plus", type=float)
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--gamma-g-minus", dest="gamma_g_minus", type=float)
    parser.add_argument("--gamma-g-plus", dest="gamma_g_plus", type=float)
    parser.add_argument("--weighting", choices=("minus_sided", "harmonic"))
    parser.add_argument("--level", type=int)
    parser.add_argument("--levels", help="e.g. 1..5 or 1,2,3")
    parser.add_argument("--output", dest="output_path")
    parser.add_argument("--format", choices=("csv", "markdown"))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cutnitsche",
                     description="Unfitted interface solver batch runs")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="assemble and solve one case")
    _add_common(p_solve)
    p_solve.add_argument("--dump-solution", help="per-node values per side (CSV)")
    p_solve.add_argument("--dump-mesh", help="mesh nodes and elements (text)")
    p_solve.add_argument("--dump-cutcells", help="cut-cell geometry (CSV)")
    p_solve.add_argument("--dump-matrix", help="assembled matrix triplets (text)")

    p_conv = sub.add_parser("convergence", help="errors and orders over levels")
    _add_common(p_conv)

    p_con = sub.add_parser("contrast", help="fixed-level coefficient sweep")
    _add_common(p_con)

    p_diag = sub.add_parser("diagnostics", help="structural diagnostics report")
    _add_common(p_diag)
    return parser


def _emit(text: str, config: RunConfig) -> None:
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args: argparse.Namespace) -> int:
    config = load_config(args)
    result = run_solve(config)
    _emit(solve_table(result).render(config.format), config)
    if args.dump_solution:
        dump_solution(result, args.dump_solution)
    if args.dump_mesh:
        dump_mesh(result.mesh, args.dump_mesh)
    if args.dump_cutcells:
        dump_cut_cells(result.mesh, result.topo, args.dump_cutcells)
    if args.dump_matrix:
        dump_matrix(result.system.matrix, args.dump_matrix)
    return 0


def _cmd_convergence(args: argparse.Namespace) -> int:
    config = load_config(args)
    table = run_convergence(config)
    _emit(table.render(config.format), config)
    return 0


def _cmd_contrast(args: argparse.Namespace) -> int:
    file_values = parse_config_file(args.config) if args.config else {}
    config = load_config(args)
    # sweeps default to the finest tabulated level unless one was given
    explicit = args.level is not None or "level" in file_values
    table = run_contrast_sweep(config, level=config.level if explicit else 5)
    _emit(table.render(config.format), config)
    return 0


def _cmd_diagnostics(args: argparse.Namespace) -> int:
    from .diagnostics import run_diagnostics
    config = load_config(args)
    _emit(run_diagnostics(config), config)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "convergence": _cmd_convergence,
    "contrast": _cmd_contrast,
    "diagnostics": _cmd_diagnostics,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        # ConfigError and the problem/config validation errors
        print(f"cutnitsche: config error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, GeometryError) as exc:
        print(f"cutnitsche: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
