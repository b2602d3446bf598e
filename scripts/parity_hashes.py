#!/usr/bin/env python3
"""Print sha256 hashes of every array and report the tables rest on.

One line per item: the cut topology of the circle (both inclusion sides)
and the flower at levels 1..6 (side areas, side rules and the interface
rule from their accessors, under the names of the arrays they
replaced) and every array of the DOF layout built on it, the matrix,
right-hand side, solution, solve statistics and full-precision error
report of every configuration of
``reproduce_tables.py``, the discrete extension operator of the
diagnostics at levels 2..5 with its H1 Gram matrices (``h1_reach``
over the elements the extension reaches and ``h1_plus`` in plus-dof
indexing) and the whole-mesh H1 Gram (``h1_full``), the error report
of the interpolant of the diagnostics' interpolation profile and the
profile's rows at full precision (``float.hex``) at levels 1..5, the
energy-norm Gram matrix over the free DOFs of the circle (both inclusion
sides) and the flower at levels 1..4, with the five parts of
``assemble_parts`` and the ``assemble_load`` vector of each at level 4,
the seven CSVs that script
writes and the ``run_diagnostics()`` report, then every ``Mesh``
quantity at levels 1..6 (each accessor over its full id range,
under the name of the array it replaced), and the matrix, right-hand
side, the five parts of ``assemble_parts``, and the iterate and
``SolveStats`` of ``solve`` of the level-6 plus-side system at contrast
1e9, the one solve here large enough for ``solve`` to run on two
threads (its stagnated iterate, as the harness accepts it), and last
the stdout and the four ``--dump-*`` files of ``cutnitsche solve``, run
through ``cli.main``, for the plus-side circle at contrast 1e9 and the
flower at level 3.  Two commits are bit-identical on all of these when
the outputs of this script agree.
With ``<old>`` and ``<new>`` checkouts of the two commits:

    PYTHONPATH=<old>/src python scripts/parity_hashes.py > old.txt && wc -l old.txt
    PYTHONPATH=<new>/src python scripts/parity_hashes.py > new.txt && wc -l new.txt
    diff old.txt new.txt

Without ``src`` on the path the script exits 1 and leaves an empty file,
and two empty files diff as identical: ``&&`` stops at that exit, and
each file must have 986 lines.

BLAS is pinned to one thread, because stagnated CG iterates of the
high-contrast solves depend on the thread count.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy is imported

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

import reproduce_tables  # noqa: E402
from cutnitsche.assembly import (assemble_load, assemble_parts,  # noqa: E402
                                 assemble_vnorm_gram, build_system)
from cutnitsche.cli import main as cli_main, parse_levels  # noqa: E402
from cutnitsche.cutcell import classify  # noqa: E402
from cutnitsche.diagnostics import (_h1_matrices, build_extension,  # noqa: E402
                                    interpolation_error_profile, run_diagnostics)
from cutnitsche.harness import (_STUDY_LEVELS, CONTRAST_PAIRS, RunConfig,  # noqa: E402
                                make_problem, run_solve)
from cutnitsche.levelset import make_circle, make_flower  # noqa: E402
from cutnitsche.mesh import build_mesh  # noqa: E402
from cutnitsche.norms import error_report  # noqa: E402
from cutnitsche.solver import StagnationError, solve  # noqa: E402
from cutnitsche.space import build_spaces, interpolate_pair  # noqa: E402

GEOMETRY_LEVELS = parse_levels("1..6")
EXTENSION_LEVELS = parse_levels("2..5")
INTERPOLATION_LEVELS = parse_levels("1..5")
GRAM_LEVELS = parse_levels("1..4")
# solve's command line per case, and its dump flags and the names they hash under
CLI_CASES = {
    "circle-plus": ["--example", "1", "--inclusion-side", "plus", "--rho-plus", "1e9"],
    "flower": ["--example", "2"],
}
CLI_DUMPS = {"solution": "--dump-solution", "mesh": "--dump-mesh",
             "cutcells": "--dump-cutcells", "matrix": "--dump-matrix"}
GRAM_CASES = {
    "circle-minus": RunConfig(example="1", rho_minus=1.0, rho_plus=1e4),
    "circle-plus": RunConfig(example="1", inclusion_side="plus", rho_minus=1.0, rho_plus=1e9),
    "flower": RunConfig(example="2"),
}


def digest(value) -> str:
    """Hash of an array's dtype, shape and bytes, or of a text."""
    h = hashlib.sha256()
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(str(value).encode())
    return h.hexdigest()


def mesh_arrays(mesh):
    """Every quantity the mesh had as a stored array, each from its
    accessor over the full id range, under the array's name; the edge
    lengths, which have no accessor, as the hypot of the edge vectors."""
    ptr, ids = mesh.node_elems(slice(None))
    out = {"nodes": mesh.nodes}
    for name in ("elements", "edges", "edge_elems", "elem_edges"):
        out[name] = getattr(mesh, name)(slice(None))
    ev = mesh.nodes[out["edges"][:, 1]] - mesh.nodes[out["edges"][:, 0]]
    out["edge_lengths"] = np.hypot(ev[:, 0], ev[:, 1])
    for name in ("boundary_node", "areas", "grads"):
        out[name] = getattr(mesh, name)(slice(None))
    out.update(node_elem_ptr=ptr, node_elem_ids=ids)
    return out


def topology_arrays(topo):
    """Every array the cut topology had when it stored whole-mesh side
    areas and side rules, in their old order and under their old names;
    those two come from the accessors over the full id range."""
    out = {name: getattr(topo, name) for name in ("node_sign", "elem_side")}
    for side in ("minus", "plus"):
        out[f"area_{side}"] = topo.area(side, slice(None))
    for name in ("cut_ids", "chord_p", "chord_q", "chord_len", "chord_normal"):
        out[name] = getattr(topo, name)
    for side in ("minus", "plus"):
        ptr, points, weights = topo.quadrature(side, slice(None))
        out[f"quad_{side}.elems"] = np.repeat(np.arange(topo.mesh.n_elems), np.diff(ptr))
        out[f"quad_{side}.points"] = points
        out[f"quad_{side}.weights"] = weights
    points, weights = topo.interface_rule()
    out["iface.elems"] = np.repeat(topo.cut_ids, 2)
    out["iface.points"] = points.reshape(-1, 2)
    out["iface.weights"] = weights.reshape(-1)
    out["iface.normals"] = np.repeat(topo.chord_normal, 2, axis=0)
    for name in ("ghost_minus", "ghost_plus", "ambiguous_elements", "degenerate_elements"):
        out[name] = getattr(topo, name)
    return out


def layout_arrays(layout):
    """Every array of the DOF layout."""
    return {name: getattr(layout, name)
            for name in ("node_dof_minus", "node_dof_plus", "dof_node_minus",
                         "dof_node_plus", "dirichlet", "free_dofs")}


def csr_arrays(matrix):
    return {"data": matrix.data, "indices": matrix.indices, "indptr": matrix.indptr}


def solve_configs():
    """(label, config, level) of every solve reproduce_tables.py makes."""
    for name, _, kind, config in reproduce_tables.TABLES:
        if kind == "convergence":
            for level in _STUDY_LEVELS:
                yield f"{name}/L{level}", config, level
        elif kind == "contrast":
            for rho_minus, rho_plus in CONTRAST_PAIRS:
                cfg = dataclasses.replace(config, rho_minus=rho_minus, rho_plus=rho_plus)
                yield f"{name}/{rho_minus:g},{rho_plus:g}", cfg, config.level
        else:
            yield name, config, config.level


def main() -> int:
    cases = [("circle-minus", make_circle()),
             ("circle-plus", make_circle(inclusion_side="plus")),
             ("flower", make_flower())]
    for label, ls in cases:
        for level in GEOMETRY_LEVELS:
            topo = classify(build_mesh(level), ls)
            for name, value in topology_arrays(topo).items():
                print(f"topology {label} L{level} {name} {digest(value)}")
            for name, value in layout_arrays(build_spaces(topo)).items():
                print(f"layout {label} L{level} {name} {digest(value)}")

    for label, config, level in solve_configs():
        result = run_solve(config, level=level)
        system = result.system
        items = {f"matrix.{k}": v for k, v in csr_arrays(system.matrix).items()}
        items["rhs"] = system.rhs
        items["solution"] = result.field.to_global()
        items["stats"] = repr(result.stats)
        items["report"] = repr(result.report)
        for name, value in items.items():
            print(f"solve {label} {name} {digest(value)}")

    ls = make_circle(inclusion_side="plus")
    for level in EXTENSION_LEVELS:
        mesh = build_mesh(level)
        topo = classify(mesh, ls)
        op = build_extension(build_spaces(topo))
        for name, value in csr_arrays(op.matrix).items():
            print(f"extension L{level} {name} {digest(value)}")
        nodes = np.arange(mesh.n_nodes)
        grams = {"h1_full": _h1_matrices(mesh, np.ones(mesh.n_elems, dtype=bool), (nodes, nodes)),
                 "h1_reach": op.h1_reach, "h1_plus": op.h1_plus}
        for gram, matrix in grams.items():
            for name, value in csr_arrays(matrix).items():
                print(f"extension L{level} {gram}.{name} {digest(value)}")

    ls, spec = make_problem(RunConfig(example="1"))
    for level in INTERPOLATION_LEVELS:
        layout = build_spaces(classify(build_mesh(level), ls))
        u_i = interpolate_pair(layout, spec.exact("minus"), spec.exact("plus"))
        print(f"interpolation L{level} report {digest(repr(error_report(spec, u_i)))}")
    for level, *values in interpolation_error_profile(ls, spec, INTERPOLATION_LEVELS).rows:
        row = " ".join(float(value).hex() for value in values)
        print(f"interpolation L{level} profile {digest(row)}")

    for label, config in GRAM_CASES.items():
        ls, spec = make_problem(config)
        for level in GRAM_LEVELS:
            layout = build_spaces(classify(build_mesh(level), ls))
            for name, value in csr_arrays(assemble_vnorm_gram(layout, spec)).items():
                print(f"gram {label} L{level} {name} {digest(value)}")
        # the parts and the load on the last level's layout
        for part, matrix in assemble_parts(layout, spec).items():
            for name, value in csr_arrays(matrix).items():
                print(f"parts {label} L{level} {part}.{name} {digest(value)}")
        print(f"load {label} L{level} {digest(assemble_load(layout, spec))}")

    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            reproduce_tables.main(["--outdir", tmp])
        for path in sorted(pathlib.Path(tmp).glob("*.csv")):
            print(f"csv {path.name} {digest(path.read_text())}")
    print(f"report run_diagnostics {digest(run_diagnostics())}")

    for level in GEOMETRY_LEVELS:
        for name, value in mesh_arrays(build_mesh(level)).items():
            print(f"mesh L{level} {name} {digest(value)}")
    fine = RunConfig(example="1", level=6, inclusion_side="plus",
                     rho_minus=1.0, rho_plus=1e9)
    ls, spec = make_problem(fine)
    mesh = build_mesh(fine.level)
    topo = classify(mesh, ls)
    layout = build_spaces(topo)
    system = build_system(layout, spec)
    items = {f"matrix.{k}": v for k, v in csr_arrays(system.matrix).items()}
    items["rhs"] = system.rhs
    for name, value in items.items():
        print(f"system plus-1e9 L6 {name} {digest(value)}")
    for part, matrix in assemble_parts(layout, spec).items():
        for name, value in csr_arrays(matrix).items():
            print(f"parts plus-1e9 L6 {part}.{name} {digest(value)}")
    try:
        x, stats = solve(system)
    except StagnationError as err:
        x, stats = err.x, err.stats
    print(f"system plus-1e9 L6 iterate {digest(x)}")
    print(f"system plus-1e9 L6 stats {digest(repr(stats))}")

    for label, argv in CLI_CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            paths = {name: pathlib.Path(tmp) / name for name in CLI_DUMPS}
            dumps = [arg for name, flag in CLI_DUMPS.items() for arg in (flag, str(paths[name]))]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(["solve", *argv, "--level", "3", *dumps])
            if code:
                raise RuntimeError(f"cutnitsche solve {label} exited {code}")
            print(f"cli {label} L3 stdout {digest(out.getvalue())}")
            for name, path in paths.items():
                print(f"cli {label} L3 {name} {digest(path.read_text())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
