"""The benchmark's workloads, their inputs and their output checks.

A workload is a list of operations; each operation calls the package's
public entry points and returns text (CSV tables, a diagnostics report),
which is then checked.  Inputs come from the seed alone: seed 0 is the
paper's configuration (circle radius 1/3) and its outputs are compared
with the references recorded under ``references/``; any other seed draws
the circle radius from a narrow band around 1/3 and is checked with the
seed-independent checks (backward error of every solve, flatness of the
flux error across contrasts, finite and positive diagnostics).
"""
from __future__ import annotations

import dataclasses
import math
import pathlib
from typing import Callable

import numpy as np

# entry points are called through their modules, so the tracer's wrappers
# are seen
from cutnitsche import diagnostics as diag
from cutnitsche import harness
from cutnitsche.harness import CONTRAST_PAIRS, RunConfig, make_problem, solve_table

from tracer import SolveRecord, geometry_key

# Seed-0 outputs, recorded with one BLAS thread.  Rows whose CG solve was
# accepted at the round-off floor (contrast >= 1e3) change with the BLAS
# thread count: fine_L6's e0 is 4.47e-5 with two threads, 5.14e-5 with one.
REFERENCES = pathlib.Path(__file__).resolve().parent / "references"

PAPER_RADIUS = 1.0 / 3.0
# Relative half-width of the radius band drawn for seeds other than 0.  The
# band holds radii where classify raises CoarseMeshError (level 5:
# 0.334127-0.334218, e.g. seed 7; level 6: 0.3333333-0.3333447); such seeds
# count as failed operations and are not redrawn.
RADIUS_BAND = 0.01

# The warm-up solve: its (level, interface) key is used by no workload, so
# it cannot pre-fill a geometry cache that a workload would then hit.
WARMUP = RunConfig(example="1", level=3, circle_radius=0.27)

CONVERGENCE_LEVELS = (1, 2, 3, 4, 5)
# printed table digits, give or take one unit in the last printed place
REL_TOL = 1e-6
# values at round-off (patch-test errors) need only stay at round-off
ROUNDOFF = 1e-10
# normwise backward error a solve must reach; CG and LU reach 1e-18..1e-14
BACKWARD_ERROR_LIMIT = 1e-12
# the paper's claim: the flux error is flat across contrasts 10..1e9
FLUX_SPREAD_LIMIT = 1.1
# columns of a solve table that describe the solve path, not its result;
# every solve is checked by its backward error instead
SOLVER_COLUMNS = ("iterations", "residual", "method")


def circle_radius(seed: int) -> float:
    if seed == 0:
        return PAPER_RADIUS
    rng = np.random.default_rng(seed)
    return PAPER_RADIUS * (1.0 + RADIUS_BAND * rng.uniform(-1.0, 1.0))


@dataclasses.dataclass(frozen=True)
class Operation:
    name: str
    run: Callable[[], str]
    kind: str                       # "convergence", "contrast", "solve", "diagnostics"
    skip_columns: tuple = ()

    def reference(self, workload: str) -> str:
        return (REFERENCES / workload / f"{self.name}.csv").read_text()


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    operations: tuple[Operation, ...]
    geometry_keys: frozenset      # (level, interface, side) of every classify call

    def check(self, op: Operation, output: str, solves: list[SolveRecord]) -> list[str]:
        """Problems with one operation's output; empty when it is correct."""
        problems = []
        if self.seed == 0:
            problems += compare_csv(op.reference(self.name), output, op.skip_columns)
        problems += check_complete(output)
        for k, s in enumerate(solves):
            # a call that raised without an iterate (MaxIterationsError) has no
            # solution to check; the retry that produced one is checked
            if s.backward_error is not None and not s.backward_error <= BACKWARD_ERROR_LIMIT:
                problems.append(f"solve {k}: backward error {s.backward_error:.3e} "
                                f"> {BACKWARD_ERROR_LIMIT:g}")
        if op.kind == "contrast":
            spread = flux_spread(output)
            if not spread <= FLUX_SPREAD_LIMIT:
                problems.append(f"flux error spread {spread:.4f} across contrasts "
                                f"> {FLUX_SPREAD_LIMIT}")
        if op.kind == "diagnostics":
            problems += check_diagnostics(output)
        return problems


def _geometry(config: RunConfig, levels) -> set:
    ls, _ = make_problem(config)
    return {geometry_key(level, ls) for level in levels}


def tables(seed: int) -> Workload:
    """The six tables and the patch test of ``scripts/reproduce_tables.py``."""
    r = circle_radius(seed)
    configs = (
        ("table1_circle_minus_convergence", "convergence",
         RunConfig(example="1", rho_minus=1.0, rho_plus=1e4, circle_radius=r)),
        ("table2_circle_plus_convergence", "convergence",
         RunConfig(example="1", rho_minus=1.0, rho_plus=1e4, inclusion_side="plus",
                   circle_radius=r)),
        ("table3_circle_minus_contrast", "contrast",
         RunConfig(example="1", level=5, circle_radius=r)),
        ("table4_circle_plus_contrast", "contrast",
         RunConfig(example="1", level=5, inclusion_side="plus", circle_radius=r)),
        ("table5_flower_convergence", "convergence",
         RunConfig(example="2", rho_minus=1.0, rho_plus=1e5)),
        ("table6_flower_contrast", "contrast",
         RunConfig(example="2", level=5)),
    )
    ops, keys = [], set()
    for name, kind, config in configs:
        if kind == "convergence":
            run = (lambda c=config: harness.run_convergence(c, levels=CONVERGENCE_LEVELS).to_csv())
            keys |= _geometry(config, CONVERGENCE_LEVELS)
        else:
            run = (lambda c=config: harness.run_contrast_sweep(c, pairs=CONTRAST_PAIRS).to_csv())
            keys |= _geometry(config, (config.level,))
        ops.append(Operation(name, run, kind))
    patch = RunConfig(example="patch", level=3, circle_radius=r)
    ops.append(Operation("patch_test", lambda: solve_table(harness.run_solve(patch)).to_csv(),
                         "solve", SOLVER_COLUMNS))
    keys |= _geometry(patch, (patch.level,))
    return Workload("tables", seed, tuple(ops), frozenset(keys))


def fine_l6(seed: int) -> Workload:
    """One level-6 solve at the paper's extreme contrast, inclusion on the plus side."""
    config = RunConfig(example="1", level=6, inclusion_side="plus",
                       rho_minus=1.0, rho_plus=1e9, circle_radius=circle_radius(seed))
    op = Operation("solve_L6", lambda: solve_table(harness.run_solve(config)).to_csv(),
                   "solve", SOLVER_COLUMNS)
    return Workload("fine_L6", seed, (op,), frozenset(_geometry(config, (6,))))


# run_diagnostics' default level sets
DIAG_LEVELS = (1, 2, 3, 4, 5)
EXTENSION_LEVELS = (2, 3, 4, 5)


def diagnostics(seed: int) -> Workload:
    """``run_diagnostics`` on the circle with its default levels."""
    config = RunConfig(example="1", circle_radius=circle_radius(seed))
    op = Operation("diagnostics_report", lambda: diag.run_diagnostics(config), "diagnostics")
    # the extension blocks use the plus-side circle of default radius
    extension = RunConfig(example="patch", inclusion_side="plus")
    keys = _geometry(config, DIAG_LEVELS) | _geometry(extension, EXTENSION_LEVELS)
    return Workload("diagnostics", seed, (op,), frozenset(keys))


WORKLOADS = {"tables": tables, "fine_L6": fine_l6, "diagnostics": diagnostics}


def warm_up() -> None:
    harness.run_solve(WARMUP)


# -- output checks ------------------------------------------------------------

def _cells(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


def _blocks(text: str):
    """(header, row) pairs of a CSV text holding one or more blocks, each
    block optionally introduced by a '# name' line."""
    header = None
    for row in _cells(text):
        if not row[0] or row[0].startswith("#"):
            header = None
        elif header is None:
            header = row
        else:
            yield header, row


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(reference: str, output: str, skip_columns=()) -> list[str]:
    ref_rows, out_rows = _cells(reference), _cells(output)
    if len(ref_rows) != len(out_rows):
        return [f"{len(out_rows)} lines, reference has {len(ref_rows)}"]
    problems = []
    header = None
    for i, (ref, out) in enumerate(zip(ref_rows, out_rows), start=1):
        if len(ref) != len(out):
            problems.append(f"line {i}: {len(out)} cells, reference has {len(ref)}")
            continue
        is_title = not ref[0] or ref[0].startswith("#")
        if is_title or header is None:
            header = None if is_title else ref
            if ref != out:
                problems.append(f"line {i}: {out} != reference {ref}")
            continue
        for column, a, b in zip(header, out, ref):
            if column in skip_columns or a == b:
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None:
                problems.append(f"line {i} {column}: {a!r} != reference {b!r}")
            elif abs(y) <= ROUNDOFF:
                if not abs(x) <= ROUNDOFF:
                    problems.append(f"line {i} {column}: {a} above round-off")
            elif not abs(x - y) <= REL_TOL * abs(y):
                problems.append(f"line {i} {column}: {a} != reference {b}")
    return problems


def check_complete(output: str) -> list[str]:
    """Tables print non-finite values as empty cells; only the first row's
    observed orders are legitimately empty."""
    empty = [column for header, row in _blocks(output)
             for column, cell in zip(header, row)
             if not cell and not column.startswith("eoc")]
    return [f"empty (non-finite) cells: {', '.join(empty)}"] if empty else []


def flux_spread(output: str) -> float:
    """max eflux / min eflux over the rows of a contrast table."""
    eflux = [float(row[header.index("eflux")]) for header, row in _blocks(output)]
    return max(eflux) / min(eflux) if eflux and min(eflux) > 0.0 else math.inf


def check_diagnostics(output: str) -> list[str]:
    """Measured stability constants must be positive."""
    problems = []
    for header, row in _blocks(output):
        for column in ("min_ratio", "min_quotient", "max_ratio"):
            if column in header:
                value = _number(row[header.index(column)])
                if value is None or not value > 0.0:
                    problems.append(f"{column} = {row[header.index(column)]} is not positive")
    return problems
