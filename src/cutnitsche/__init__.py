"""Unfitted Nitsche finite element solver for 2D elliptic interface problems.

The package discretises a diffusion problem with a piecewise-constant,
possibly strongly contrasted coefficient on a background triangulation
that is not fitted to the interface.  The two subdomain fields live on
overlapping cut meshes, are coupled with a one-sided Nitsche method, and
stabilised with a gradient-jump ghost penalty on the cut bands.
"""
from .mesh import Mesh, build_mesh
from .levelset import LevelSet, make_circle, make_flower
from .cutcell import CutTopology, classify
from .space import SpaceLayout, FieldPair, build_spaces, interpolate_pair
from .problems import ProblemSpec, example_circle, example_flower, patch_problem
from .assembly import (SparseSystem, assemble_load,
                       build_system, assemble_vnorm_gram, expand_solution)
from .solver import SolveStats, solve
from .norms import ErrorReport, error_report, eoc
from .harness import (RunConfig, RunResult, Table, run_solve, run_convergence,
                      run_contrast_sweep, CONTRAST_PAIRS)

__all__ = [
    "Mesh", "build_mesh",
    "LevelSet", "make_circle", "make_flower",
    "CutTopology", "classify",
    "SpaceLayout", "FieldPair", "build_spaces", "interpolate_pair",
    "ProblemSpec", "example_circle", "example_flower", "patch_problem",
    "SparseSystem", "assemble_load", "build_system",
    "assemble_vnorm_gram", "expand_solution",
    "SolveStats", "solve",
    "ErrorReport", "error_report", "eoc",
    "RunConfig", "RunResult", "Table", "run_solve", "run_convergence",
    "run_contrast_sweep", "CONTRAST_PAIRS",
]
