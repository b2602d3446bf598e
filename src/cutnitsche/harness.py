"""Batch runs: single solves, convergence studies, contrast sweeps.

Each entry point takes a RunConfig, drives the mesh -> cut topology ->
assembly -> solve -> error report pipeline, and returns plain tables
with a fixed column schema so downstream plotting never has to sniff.
Reruns with an identical config are bit-identical: assembly and the
solver are deterministic and the tables are rendered with fixed
formats.
"""
from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass

import numpy as np

from .assembly import SparseSystem, build_system, expand_solution
from .cutcell import CutTopology, classify
from .levelset import LevelSet, make_circle, make_flower
from .mesh import Mesh, build_mesh
from .norms import ErrorReport, eoc, error_report
from .problems import ProblemSpec, example_circle, example_flower, patch_problem
from .solver import BACKWARD_ERROR_TOL, SolveStats, StagnationError, solve
from .space import FieldPair, SpaceLayout, build_spaces

__all__ = [
    "RunConfig", "RunResult", "Table", "ConfigError",
    "CONTRAST_PAIRS", "CONVERGENCE_COLUMNS", "CONTRAST_COLUMNS",
    "make_problem", "run_solve", "run_convergence", "run_contrast_sweep",
]

log = logging.getLogger(__name__)

# (rho_minus, rho_plus) rows of the contrast studies
CONTRAST_PAIRS = ((1.0, 1e1), (1e-1, 1e2), (1e-2, 1e3), (1e-3, 1e4), (1e-4, 1e5))

CONVERGENCE_COLUMNS = ("level", "h", "e0", "eoc0", "einf", "eocinf",
                       "eflux", "eocflux", "efluxinf", "eocfluxinf")
CONTRAST_COLUMNS = ("rho_minus", "rho_plus", "e0", "eflux", "esqrt")

# levels of a convergence study that names none
_STUDY_LEVELS = (1, 2, 3, 4, 5)


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """One batch run.  Maps 1:1 onto the flat config-file keys."""

    example: str = "1"                # "1" circle, "2" flower, "patch"
    level: int = 3
    levels: tuple[int, ...] = ()      # convergence studies; empty = run_convergence's default
    interface: str = ""               # "circle" | "flower"; "" = example default
    circle_radius: float = 1.0 / 3.0
    inclusion_side: str = "minus"
    rho_minus: float = 1.0
    rho_plus: float | None = None     # None: 1e4 for the examples, rho_minus for patch
    gamma: float = 10.0
    gamma_g_minus: float = 10.0
    gamma_g_plus: float = 10.0
    output_path: str = ""
    format: str = "csv"

    def __post_init__(self):
        if self.example not in ("1", "2", "patch"):
            raise ConfigError(f"example must be 1, 2 or patch, got {self.example!r}")
        if self.interface not in ("", "circle", "flower"):
            raise ConfigError(f"interface must be circle or flower, got {self.interface!r}")
        if self.inclusion_side not in ("minus", "plus"):
            raise ConfigError(f"inclusion_side must be minus or plus, got {self.inclusion_side!r}")
        if self.format not in ("csv", "markdown"):
            raise ConfigError(f"format must be csv or markdown, got {self.format!r}")
        if self.rho_plus is None:
            # frozen: the example-dependent default is filled in once, here
            object.__setattr__(self, "rho_plus",
                               self.rho_minus if self.example == "patch" else 1e4)
        if self.rho_minus <= 0.0 or self.rho_plus <= 0.0:
            raise ConfigError("coefficients must be positive")
        if self.example == "patch" and self.rho_plus != self.rho_minus:
            raise ConfigError(
                "the patch test uses equal coefficients; set rho_plus = rho_minus")


@dataclass(frozen=True)
class RunResult:
    """One solve: the system, its solution field and their error report.

    The geometry is the system's layout; ``layout``, ``mesh`` and
    ``topo`` read it from there.
    """

    config: RunConfig
    report: ErrorReport
    stats: SolveStats
    system: SparseSystem
    field: FieldPair

    @property
    def layout(self) -> SpaceLayout:
        return self.system.layout

    @property
    def mesh(self) -> Mesh:
        return self.system.layout.mesh

    @property
    def topo(self) -> CutTopology:
        return self.system.layout.topo


@dataclass(frozen=True)
class Table:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def render(self, format: str = "csv") -> str:
        if format == "markdown":
            return self.to_markdown()
        return self.to_csv()

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_format_cell(c, v) for c, v in zip(self.columns, row)))
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        cells = [[_format_cell(c, v) or "-" for c, v in zip(self.columns, row)]
                 for row in self.rows]
        widths = [max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
                  for i, c in enumerate(self.columns)]
        head = "| " + " | ".join(c.ljust(w) for c, w in zip(self.columns, widths)) + " |"
        rule = "| " + " | ".join("-" * w for w in widths) + " |"
        body = ["| " + " | ".join(v.ljust(w) for v, w in zip(r, widths)) + " |"
                for r in cells]
        return "\n".join([head, rule, *body]) + "\n"


def _format_cell(column: str, value) -> str:
    if value is None or (isinstance(value, float) and not np.isfinite(value)):
        return ""
    if column == "level":
        return str(int(value))
    if column.startswith("eoc"):
        return f"{value:.3f}"
    if isinstance(value, float):
        return f"{value:.6e}"
    return str(value)


def make_problem(config: RunConfig) -> tuple[LevelSet, ProblemSpec]:
    """Instantiate the level set and problem data a config describes."""
    common = dict(gamma=config.gamma,
                  gamma_g_minus=config.gamma_g_minus,
                  gamma_g_plus=config.gamma_g_plus)
    if config.example == "1":
        if config.interface == "flower":
            raise ConfigError("example 1 is posed on the circle interface")
        return example_circle(config.rho_minus, config.rho_plus,
                              inclusion_side=config.inclusion_side,
                              radius=config.circle_radius, **common)
    if config.example == "2":
        if config.interface == "circle":
            raise ConfigError("example 2 is posed on the flower interface")
        if config.inclusion_side != "minus":
            raise ConfigError("example 2 fixes the inclusion on the minus side")
        return example_flower(config.rho_minus, config.rho_plus, **common)
    if config.interface == "flower":
        ls = make_flower(inclusion_side=config.inclusion_side)
    else:
        ls = make_circle(radius=config.circle_radius,
                         inclusion_side=config.inclusion_side)
    return patch_problem(interface=ls, rho_minus=config.rho_minus,
                         rho_plus=config.rho_plus, **common)


def run_solve(config: RunConfig, level: int | None = None) -> RunResult:
    """Assemble and solve one case; errors are reported when the config
    carries an exact solution (all built-in examples do).  A ``level``
    replaces ``config.level``, in the result's config too."""
    if level is not None:
        config = dataclasses.replace(config, level=level)
    ls, spec = make_problem(config)
    return _solve_on(config, spec, _geometry(config.level, ls))


def _geometry(level: int, ls: LevelSet) -> SpaceLayout:
    """Space layout, holding the mesh and cut topology, of one (level, interface)."""
    return build_spaces(classify(build_mesh(level), ls))


def solve_accepting_floor(system: SparseSystem) -> tuple[np.ndarray, SolveStats]:
    """``solve(system)``, a stagnated iterate accepted when its backward
    error is within BACKWARD_ERROR_TOL, its method tagged ``+floor``."""
    try:
        return solve(system)
    except StagnationError as err:
        # At high contrast the residual relative to ||b|| floors far above
        # tol; the backward error of the iterate does not depend on the
        # coefficient scale.  The method tag keeps the acceptance visible.
        if not err.stats.backward_error <= BACKWARD_ERROR_TOL:
            raise
        log.warning("accepting stagnated solve: relative residual %.3e, "
                    "backward error %.1e", err.stats.relative_residual,
                    err.stats.backward_error)
        return err.x, dataclasses.replace(err.stats, method=err.stats.method + "+floor")


def _solve_on(config: RunConfig, spec: ProblemSpec, layout: SpaceLayout) -> RunResult:
    """Assemble, solve and report one config on built geometry."""
    system = build_system(layout, spec)
    x, stats = solve_accepting_floor(system)
    u_h = expand_solution(system, x)
    return RunResult(config=config, report=error_report(spec, u_h), stats=stats,
                     system=system, field=u_h)


def solve_table(result: RunResult) -> Table:
    """One-row table with every error measure of a single run."""
    rep = result.report.as_dict()
    columns = tuple(rep.keys()) + ("iterations", "residual", "method")
    row = tuple(rep.values()) + (result.stats.iterations,
                                 result.stats.relative_residual,
                                 result.stats.method)
    return Table(columns=columns, rows=(row,))


def _check_levels(levels: tuple[int, ...], given=None) -> tuple[int, ...]:
    """``levels``, or ConfigError, quoting ``given`` (else the levels), unless
    they are non-empty and strictly ascending: a level given twice would be
    solved twice, with empty order cells between the two rows."""
    if not levels or any(a >= b for a, b in zip(levels, levels[1:])):
        shown = levels if given is None else given
        raise ConfigError(f"levels must be non-empty and ascending, each level once, "
                          f"got {shown!r}")
    return levels


def run_convergence(config: RunConfig, levels=None) -> Table:
    """Solve over ascending levels; rows carry errors and observed orders.
    The levels are ``levels``, else ``config.levels``, else 1..5."""
    if levels is None:
        levels = config.levels or _STUDY_LEVELS
    levels = _check_levels(tuple(levels))
    reports = [run_solve(config, level=lv).report for lv in levels]
    hs = np.array([r.h for r in reports])
    rates = {}
    for name in ("e0", "einf", "eflux", "efluxinf"):
        errs = np.array([getattr(r, name) for r in reports])
        rates[name] = [None] + list(eoc(errs, hs)) if len(levels) > 1 else [None]
    rows = []
    for i, (lv, rep) in enumerate(zip(levels, reports)):
        rows.append((lv, rep.h,
                     rep.e0, rates["e0"][i],
                     rep.einf, rates["einf"][i],
                     rep.eflux, rates["eflux"][i],
                     rep.efluxinf, rates["efluxinf"][i]))
    return Table(columns=CONVERGENCE_COLUMNS, rows=tuple(rows))


def run_contrast_sweep(config: RunConfig, pairs=CONTRAST_PAIRS) -> Table:
    """Sweep over coefficient pairs at ``config.level``; schema rho_minus,
    rho_plus, e0, eflux, esqrt.  The geometry does not depend on the
    coefficients, so mesh, cut topology and spaces are built once."""
    layout = _geometry(config.level, make_problem(config)[0])
    rows = []
    for rho_minus, rho_plus in pairs:
        cfg = dataclasses.replace(config, rho_minus=rho_minus, rho_plus=rho_plus)
        _, spec = make_problem(cfg)
        rep = _solve_on(cfg, spec, layout).report
        rows.append((rho_minus, rho_plus, rep.e0, rep.eflux, rep.esqrt))
    return Table(columns=CONTRAST_COLUMNS, rows=tuple(rows))
