"""Executable checks of the method's structural ingredients.

None of these prove anything; they measure the quantities the theory
bounds so regressions in geometry handling, stabilization, or the
function-space plumbing show up as drifting profiles:

* patch_area_ratio: every node near the interface owns a patch element
  with a uniformly large clipped area.
* coercivity_probe: smallest Rayleigh quotient of the bilinear form
  against the energy-norm Gram matrix.
* interpolation_error_profile: nodal-interpolation error in the
  augmented energy norm against the expected h * ||D^2 u|| scale.
* discrete extension: averaged-reflection extension of a field given on
  the plus-side mesh to the whole background mesh, with its H1
  stability ratio.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .assembly import assemble_parts, assemble_vnorm_gram, build_system
# classify stays bound here by name: the benchmark's tracer tests check it
from .cutcell import CutTopology, classify  # noqa: F401
from .harness import RunConfig, Table, _geometry, make_problem
from .levelset import GeometryError, LevelSet, make_circle, reflect_many
from .mesh import Mesh, barycentric_many, node_patch
from .norms import error_report
from .problems import ProblemSpec, patch_problem
from .space import FieldPair, SpaceLayout, interpolate_pair, locate_on_side

__all__ = [
    "PatchAreaResult", "patch_area_ratio",
    "coercivity_probe",
    "interpolation_error_profile",
    "ExtensionOperator", "build_extension", "discrete_extension",
    "run_diagnostics",
]

log = logging.getLogger(__name__)

# largest system whose coercivity is found by a dense generalized eigensolve
_DENSE_EIGEN_LIMIT = 3000


# ---------------------------------------------------------------------------
# patch geometry

@dataclass(frozen=True)
class PatchAreaResult:
    ratio: float   # min over nodes of max over patch of |T cap side| / h_T^2
    node: int      # arg-min node


def patch_area_ratio(mesh: Mesh, topo: CutTopology, side: str = "minus") -> PatchAreaResult:
    """Worst node-patch clipped-area ratio on the closed side.

    For every node in the closed physical side, the best element of its
    patch should keep a clipped area comparable to h_T^2; the minimum
    over nodes is the measured constant.
    """
    want = -1 if side == "minus" else 1
    areas = topo.area(side)
    patch_best = np.maximum.reduceat(areas[mesh.node_elem_ids],
                                     mesh.node_elem_ptr[:-1])
    nodes = np.flatnonzero(topo.node_sign * want >= 0)
    if nodes.size == 0:
        return PatchAreaResult(ratio=float("inf"), node=-1)
    ratios = patch_best[nodes] / mesh.h_elem ** 2
    i = int(np.argmin(ratios))
    return PatchAreaResult(ratio=float(ratios[i]), node=int(nodes[i]))


# ---------------------------------------------------------------------------
# coercivity

def coercivity_probe(a, gram, n_samples: int = 20, seed: int = 0,
                     dense: bool | None = None) -> float:
    """Minimum of a(v,v) / ||v||_G^2 over the probed directions.

    Dense generalized eigensolve when the system is small enough to
    factor; otherwise the minimum over seeded random directions, which
    can only overestimate the true minimum.
    """
    n = a.shape[0]
    if dense is None:
        dense = n <= _DENSE_EIGEN_LIMIT
    if dense:
        aw = a.toarray() if scipy.sparse.issparse(a) else np.asarray(a, dtype=float)
        gw = gram.toarray() if scipy.sparse.issparse(gram) else np.asarray(gram, dtype=float)
        vals = scipy.linalg.eigh(aw, gw, eigvals_only=True, subset_by_index=[0, 0])
        return float(vals[0])
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(n_samples):
        v = rng.standard_normal(n)
        den = float(v @ (gram @ v))
        if den <= 0.0:
            continue
        best = min(best, float(v @ (a @ v)) / den)
    return float(best)


# ---------------------------------------------------------------------------
# interpolation error

def interpolation_error_profile(ls: LevelSet, spec: ProblemSpec,
                                levels=(1, 2, 3, 4, 5)) -> Table:
    """Nodal-interpolation error in the augmented energy norm, scaled by
    h times the coefficient-weighted L2 norms of the exact Hessian."""
    if spec.hess_minus is None or spec.hess_plus is None:
        raise ValueError("interpolation profile needs exact second derivatives")
    rows = []
    for level in levels:
        mesh, topo, layout = _geometry(level, ls)
        u_i = interpolate_pair(layout, spec.exact("minus"), spec.exact("plus"))
        rep = error_report(mesh, topo, layout, spec, u_i, level=level)
        scale = 0.0
        for side, sq in (("minus", topo.quad_minus), ("plus", topo.quad_plus)):
            hess = spec.hess_minus if side == "minus" else spec.hess_plus
            vals = np.asarray(hess(sq.points), dtype=float)
            scale += np.sqrt(spec.rho(side)) * np.sqrt(np.sum(sq.weights * vals * vals))
        scale *= mesh.h
        ratio = rep.vanorm / scale if scale > 0.0 else 0.0
        rows.append((level, mesh.h, rep.vanorm, scale, ratio))
    return Table(columns=("level", "h", "vanorm", "scale", "ratio"),
                 rows=tuple(rows))


# ---------------------------------------------------------------------------
# discrete extension

def _cutoff(dist: np.ndarray, eps: float) -> np.ndarray:
    """1 inside eps/2, cubic rolloff to 0 at eps."""
    t = np.clip((dist - 0.5 * eps) / (0.5 * eps), 0.0, 1.0)
    return 1.0 - t * t * (3.0 - 2.0 * t)


def _h1_matrices(mesh: Mesh, elems: np.ndarray | None = None):
    """Consistent mass + stiffness over a subset of elements, global
    node indexing; their sum is the H1 Gram matrix of that subdomain."""
    if elems is None:
        elems = np.arange(mesh.n_elems)
    conn = mesh.elements[elems]
    area = mesh.areas[elems]
    grads = mesh.grads[elems]
    kloc = area[:, None, None] * np.einsum("kid,kjd->kij", grads, grads)
    mref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    mloc = area[:, None, None] * mref
    rows = np.repeat(conn, 3, axis=1).ravel()
    cols = np.tile(conn, (1, 3)).ravel()
    n = mesh.n_nodes
    mass = scipy.sparse.coo_matrix((mloc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    stiff = scipy.sparse.coo_matrix((kloc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return mass, stiff


@dataclass(frozen=True)
class ExtensionOperator:
    """Linear map from plus-side coefficients to a conforming field on
    the whole background mesh: identity on the plus-side nodes, averaged
    reflection through the interface inside the tube, zero beyond."""

    matrix: scipy.sparse.csr_matrix   # (n_nodes, n_plus)
    layout: SpaceLayout
    h1_full: scipy.sparse.csr_matrix
    h1_plus: scipy.sparse.csr_matrix

    def apply(self, v_plus: np.ndarray) -> np.ndarray:
        return self.matrix @ v_plus

    def stability_ratio(self, v_plus: np.ndarray) -> float:
        w = self.apply(v_plus)
        den_sq = float(v_plus @ _restrict(self.h1_plus, self.layout) @ v_plus)
        if den_sq <= 0.0:
            return 0.0
        num_sq = float(w @ (self.h1_full @ w))
        return float(np.sqrt(num_sq / den_sq))


def _restrict(h1_plus, layout: SpaceLayout):
    # node-indexed Gram -> plus-dof indexing
    sel = layout.dof_node_plus
    return h1_plus[sel][:, sel]


def build_extension(mesh: Mesh, topo: CutTopology, ls: LevelSet,
                    layout: SpaceLayout, tube: float = 0.1) -> ExtensionOperator:
    keep = layout.node_dof_plus >= 0
    n_plus = layout.n_plus
    rows, cols, vals = [], [], []
    for z in np.flatnonzero(keep):
        rows.append(z)
        cols.append(layout.node_dof_plus[z])
        vals.append(1.0)

    dist_nodes = np.abs(np.asarray(ls.value(mesh.nodes), dtype=float))
    cand = np.flatnonzero(~keep & (dist_nodes <= tube))
    sq = topo.quad_minus   # elems ascending; patches of cand nodes are all minus
    for z in cand:
        pts_z, wts_z = [], []
        for t in node_patch(mesh, z):
            lo, hi = np.searchsorted(sq.elems, (t, t + 1))
            pts_z.append(sq.points[lo:hi])
            wts_z.append(sq.weights[lo:hi])
        pts_z = np.concatenate(pts_z)
        wts_z = np.concatenate(wts_z)
        total = float(np.sum(wts_z))
        eta = _cutoff(np.abs(np.asarray(ls.value(pts_z), dtype=float)), tube)
        live = eta > 0.0
        if total <= 0.0 or not np.any(live):
            continue
        refl = reflect_many(ls, pts_z[live], tube=tube)
        elems, lams = locate_on_side(layout, "plus", refl)
        if np.any(elems < 0):
            bad = refl[np.argmax(elems < 0)]
            raise GeometryError(f"reflected point {bad.tolist()} lies outside the plus-side mesh")
        dofs = layout.node_dof_plus[mesh.elements[elems]]
        coef = (wts_z[live] * eta[live] / total)[:, None] * lams
        rows.extend([z] * dofs.size)
        cols.extend(dofs.ravel())
        vals.extend(coef.ravel())

    matrix = scipy.sparse.coo_matrix(
        (vals, (rows, cols)), shape=(mesh.n_nodes, n_plus)).tocsr()
    mass_f, stiff_f = _h1_matrices(mesh)
    plus_elems = np.flatnonzero(layout.in_plus)
    mass_p, stiff_p = _h1_matrices(mesh, plus_elems)
    return ExtensionOperator(matrix=matrix, layout=layout,
                             h1_full=(mass_f + stiff_f).tocsr(),
                             h1_plus=(mass_p + stiff_p).tocsr())


def discrete_extension(field: FieldPair, mesh: Mesh, topo: CutTopology,
                       ls: LevelSet, tube: float = 0.1):
    """Extend a plus-side field to the whole mesh; returns the global
    nodal vector and the H1 stability ratio."""
    op = build_extension(mesh, topo, ls, field.layout, tube=tube)
    v = field.plus
    return op.apply(v), op.stability_ratio(v)


# ---------------------------------------------------------------------------
# report

def _patch_block(config: RunConfig, levels) -> Table:
    ls, _ = make_problem(config)
    rows = []
    for level in levels:
        mesh, topo, _ = _geometry(level, ls)
        for side in ("minus", "plus"):
            res = patch_area_ratio(mesh, topo, side)
            rows.append((level, side, res.ratio, res.node))
    return Table(columns=("level", "side", "min_ratio", "argmin_node"),
                 rows=tuple(rows))


def _coercivity_block(config: RunConfig, levels) -> Table:
    ls, spec = make_problem(config)
    rows = []
    for level in levels:
        mesh, topo, layout = _geometry(level, ls)
        system = build_system(mesh, topo, layout, spec)
        gram = assemble_vnorm_gram(mesh, topo, layout, spec)
        free = layout.free_dofs
        gram_red = gram[free][:, free]
        n = system.n
        dense = n <= _DENSE_EIGEN_LIMIT
        quotient = coercivity_probe(system.matrix, gram_red, dense=dense)
        rows.append((level, n, "dense" if dense else "sampled", quotient))
    return Table(columns=("level", "n", "method", "min_quotient"), rows=tuple(rows))


def _extension_blocks(levels, n_fields: int = 20, seed: int = 0):
    """Stability profile of the extension and the companion ratio
    comparing the overlapping-mesh H1 norm against the physical-side
    H1 norm plus the ghost term; both on the plus-inclusion circle."""
    ext_rows, trace_rows = [], []
    for level in levels:
        ls = make_circle(inclusion_side="plus")
        _, spec = patch_problem(interface=ls)
        mesh, topo, layout = _geometry(level, ls)
        op = build_extension(mesh, topo, ls, layout)

        # H1 over the clipped physical plus side, plus-dof indexing
        sq = topo.quad_plus
        conn = mesh.elements[sq.elems]
        lam = barycentric_many(mesh.nodes[conn], sq.points)
        dofs = layout.node_dof_plus[conn]
        n_plus = layout.n_plus
        rowsq = np.repeat(np.arange(sq.elems.size), 3)
        basis_val = scipy.sparse.coo_matrix(
            (lam.ravel(), (rowsq, dofs.ravel())), shape=(sq.elems.size, n_plus)).tocsr()
        gx = scipy.sparse.coo_matrix(
            (mesh.grads[sq.elems][:, :, 0].ravel(), (rowsq, dofs.ravel())),
            shape=(sq.elems.size, n_plus)).tocsr()
        gy = scipy.sparse.coo_matrix(
            (mesh.grads[sq.elems][:, :, 1].ravel(), (rowsq, dofs.ravel())),
            shape=(sq.elems.size, n_plus)).tocsr()
        wdiag = scipy.sparse.diags(sq.weights)
        h1_phys = (basis_val.T @ wdiag @ basis_val
                   + gx.T @ wdiag @ gx + gy.T @ wdiag @ gy)

        parts = assemble_parts(mesh, topo, layout, spec)
        ghost = parts["ghost_plus"]
        h1_mesh = _restrict(op.h1_plus, layout)

        rng = np.random.default_rng(seed)
        best_ext, best_trace = 0.0, 0.0
        for _ in range(n_fields):
            v = rng.standard_normal(layout.n_plus)
            best_ext = max(best_ext, op.stability_ratio(v))
            g = np.zeros(layout.n_total)
            g[layout.n_minus:] = v
            den = float(v @ (h1_phys @ v)) + float(g @ (ghost @ g))
            if den > 0.0:
                best_trace = max(best_trace, float(v @ (h1_mesh @ v)) / den)
        ext_rows.append((level, n_fields, best_ext))
        trace_rows.append((level, n_fields, best_trace))
    ext = Table(columns=("level", "n_fields", "max_ratio"), rows=tuple(ext_rows))
    trace = Table(columns=("level", "n_fields", "max_ratio"), rows=tuple(trace_rows))
    return ext, trace


def run_diagnostics(config: RunConfig | None = None,
                    patch_levels=(1, 2, 3, 4, 5),
                    coercivity_levels=(1, 2),
                    interpolation_levels=(1, 2, 3, 4, 5),
                    extension_levels=(2, 3, 4, 5)) -> str:
    """All diagnostics on the circle configuration; one CSV block each."""
    config = config if config is not None else RunConfig(example="1")
    if config.example == "2":
        raise ValueError("diagnostics run on the circle configurations")
    blocks = []
    blocks.append(("patch_area_ratio", _patch_block(config, patch_levels)))
    blocks.append(("coercivity", _coercivity_block(config, coercivity_levels)))
    ls, spec = make_problem(config)
    blocks.append(("interpolation",
                   interpolation_error_profile(ls, spec, interpolation_levels)))
    ext, trace = _extension_blocks(extension_levels)
    blocks.append(("discrete_extension", ext))
    blocks.append(("h1_plus_vs_physical", trace))
    out = []
    for name, table in blocks:
        out.append(f"# {name}")
        out.append(table.to_csv().rstrip("\n"))
        out.append("")
    return "\n".join(out) + "\n"
