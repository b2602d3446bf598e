"""Command-line front end, and the one module that reads or writes files.

Subcommands drive the harness: `solve` one case, `convergence` a level
study, `contrast` a coefficient sweep, `diagnostics` the structural
checks.  Configuration is a flat key = value file; any flag overrides
the corresponding key.  Exit codes: 0 success, 1 configuration error
(an output path that cannot be written included), 2 numerical failure.
"""
from __future__ import annotations

import argparse
import contextlib
import sys

from .harness import (EXAMPLES, FORMATS, ConfigError, RunConfig, _check_levels,
                      run_contrast_sweep, run_convergence, run_solve, solve_table)
from .levelset import SIDES, GeometryError
from .mesh import blocks
from .solver import SolverError

__all__ = ["main", "parse_config_file", "load_config", "parse_levels"]


def parse_levels(text: str) -> tuple[int, ...]:
    """'1..5' (inclusive range) or '1,2,3'; raises ConfigError unless the
    levels are non-empty and strictly ascending (``_check_levels``)."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        levels = tuple(range(int(lo), int(hi) + 1))
    else:
        levels = tuple(int(part) for part in text.split(",") if part.strip())
    return _check_levels(levels, text)


def _levels_arg(text: str) -> tuple[int, ...]:
    """parse_levels, its message kept in argparse's error for --levels."""
    try:
        return parse_levels(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# every config key: its flag, and the argparse options of the flag, whose
# ``type`` also reads the key's value from a config file
_KEYS = {
    "example": ("--example", {"choices": EXAMPLES}),
    "circle_radius": ("--circle-radius", {"type": float}),
    "inclusion_side": ("--inclusion-side", {"choices": SIDES}),
    "rho_minus": ("--rho-minus", {"type": float}),
    "rho_plus": ("--rho-plus", {"type": float}),
    "gamma": ("--gamma", {"type": float}),
    "gamma_g": ("--gamma-g", {"type": float}),
    "output_path": ("--output", {}),
    "level": ("--level", {"type": int}),
    "levels": ("--levels", {"type": _levels_arg, "help": "e.g. 1..5 or 1,2,3"}),
    "format": ("--format", {"choices": FORMATS}),
}
_COMMON = tuple(key for key in _KEYS if key not in ("level", "levels", "format"))
# each subcommand's help and the keys it reads, as flags or from the file
_SUBCOMMANDS = {
    "solve": ("assemble and solve one case", _COMMON + ("level", "format")),
    "convergence": ("errors and orders over levels", _COMMON + ("levels", "format")),
    "contrast": ("fixed-level coefficient sweep", _COMMON + ("level", "format")),
    "diagnostics": ("structural diagnostics report", _COMMON),
}


def parse_config_file(path: str, keys=tuple(_KEYS)) -> dict:
    """Flat key = value lines; # starts a comment; a key not in ``keys``
    is an error; errors carry line numbers."""
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
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _KEYS[key][1].get("type", str)(value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def load_config(args: argparse.Namespace, level: int | None = None) -> RunConfig:
    """The subcommand's default ``level``, then the config file, then flags."""
    values = {} if level is None else {"level": level}
    keys = _SUBCOMMANDS[args.command][1]
    if args.config:
        values.update(parse_config_file(args.config, keys))
    for key in keys:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through ConfigError
    # so the documented exit code 1 applies.  No abbreviations: they would
    # read convergence's --level as --levels.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cutnitsche",
                     description="Unfitted interface solver batch runs")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for command, (what, keys) in _SUBCOMMANDS.items():
        p_cmd = sub.add_parser(command, help=what)
        p_cmd.add_argument("--config", help="flat key = value config file")
        for key in keys:
            flag, options = _KEYS[key]
            p_cmd.add_argument(flag, dest=key, **options)
    for flag, what in (("--dump-solution", "per-node values per side (CSV)"),
                       ("--dump-mesh", "mesh nodes and elements (text)"),
                       ("--dump-cutcells", "cut-cell geometry (CSV)"),
                       ("--dump-matrix", "assembled matrix triplets (text)")):
        sub.choices["solve"].add_argument(flag, help=what)
    return parser


def _write(path, lines) -> None:
    """Write ``lines`` one at a time to ``path``, or to stdout without one."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        for line in lines:
            fh.write(line)


def _solution_lines(result):
    """Per-node solution values per side: side,node,x,y,value rows."""
    yield "side,node,x,y,value\n"
    for side in SIDES:
        for node, value in zip(result.layout.dof_node(side), result.field.side(side)):
            x, y = result.mesh.nodes[node]
            yield f"{side},{node},{x:.17g},{y:.17g},{value:.17g}\n"


def _mesh_lines(mesh):
    """One 'v x y' line per node, one 't i j k' per element."""
    for x, y in mesh.nodes:
        yield f"v {x:.17g} {y:.17g}\n"
    for block in blocks(mesh.n_elems):
        for i, j, k in mesh.elements(block):
            yield f"t {i} {j} {k}\n"


def _cut_cell_lines(topo):
    """CSV of cut elements: chord endpoints and sub-areas."""
    yield "elem,px,py,qx,qy,area_minus,area_plus\n"
    for t, (px, py), (qx, qy), a_minus, a_plus in zip(
            topo.cut_ids, topo.chord_p, topo.chord_q, topo.cut_minus.area, topo.cut_plus.area):
        yield f"{int(t)},{px:.17g},{py:.17g},{qx:.17g},{qy:.17g},{a_minus:.17g},{a_plus:.17g}\n"


def _matrix_lines(matrix):
    """Coordinate text: a '% rows cols nnz' header, one 'row col value' line per entry."""
    coo = matrix.tocoo()
    yield f"% {coo.shape[0]} {coo.shape[1]} {coo.nnz}\n"
    for r, c, v in zip(coo.row, coo.col, coo.data):
        yield f"{r} {c} {v:.17g}\n"


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # sweeps default to the finest tabulated level unless one was given
        config = load_config(args, level=5 if args.command == "contrast" else None)
        if args.command == "solve":
            result = run_solve(config)
            text = solve_table(result).render(config.format)
        elif args.command == "convergence":
            text = run_convergence(config).render(config.format)
        elif args.command == "contrast":
            text = run_contrast_sweep(config).render(config.format)
        else:
            from .diagnostics import run_diagnostics
            text = run_diagnostics(config)
        _write(config.output_path, [text])
        if args.command == "solve":
            for path, lines in ((args.dump_solution, _solution_lines(result)),
                                (args.dump_mesh, _mesh_lines(result.mesh)),
                                (args.dump_cutcells, _cut_cell_lines(result.topo)),
                                (args.dump_matrix, _matrix_lines(result.system.matrix))):
                if path:
                    _write(path, lines)
        return 0
    except ValueError as exc:
        # ConfigError and the problem/config validation errors
        print(f"cutnitsche: config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # an unreadable config file is a ConfigError, so this is an output write
        target = exc.filename if exc.filename is not None else "output"
        print(f"cutnitsche: cannot write {target}: {exc.strerror}", file=sys.stderr)
        return 1
    except (SolverError, GeometryError) as exc:
        print(f"cutnitsche: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
