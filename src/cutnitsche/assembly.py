"""Assembly of the stabilised Nitsche bilinear form and load vector.

The bilinear form is built from four parts: subdomain stiffness on the
chord-clipped physical sides, the symmetric Nitsche coupling along the
interface, the interface jump penalty, and the gradient-jump ghost
penalty on edges of the cut bands.  The same parts are reused for the
energy-norm Gram matrix so that diagnostics share the quadrature with
the solver.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .cutcell import CutTopology
from .mesh import Mesh, barycentric_many
from .problems import ProblemSpec
from .space import FieldPair, SpaceLayout

__all__ = [
    "SparseSystem",
    "assemble_parts",
    "assemble_bilinear",
    "assemble_load",
    "assemble_vnorm_gram",
    "build_system",
    "expand_solution",
    "dump_matrix",
]


@dataclass
class SparseSystem:
    """Reduced symmetric system over the free (non-Dirichlet) DOFs."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    lifting: np.ndarray  # full-length vector holding the Dirichlet values
    layout: SpaceLayout

    @property
    def n(self) -> int:
        return self.rhs.shape[0]


def _coo(rows, cols, vals, n):
    rows = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    cols = np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64)
    vals = np.concatenate(vals) if vals else np.zeros(0)
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    return mat.tocsr()


def _block(rows, cols, vals, dofs, local):
    """Append a batch of dense local blocks (k, m, m) at dof rows (k, m)."""
    m = dofs.shape[1]
    rows.append(np.repeat(dofs, m, axis=1).ravel())
    cols.append(np.tile(dofs, (1, m)).ravel())
    vals.append(local.ravel())


def _cut_blocks(mesh: Mesh, topo: CutTopology, layout: SpaceLayout):
    """Shared per-cut-element data for interface terms."""
    cut = topo.cut_ids
    conn = mesh.elements[cut]
    coords = mesh.nodes[conn]
    grads = mesh.grads[cut]
    normals = topo.chord_normal
    gn = np.einsum("kid,kd->ki", grads, normals)
    pts = topo.iface.points.reshape(-1, 2, 2)
    wts = topo.iface.weights.reshape(-1, 2)
    lam = np.stack(
        [barycentric_many(coords, pts[:, q, :]) for q in range(2)], axis=1
    )  # (ncut, 2, 3)
    dofs = np.concatenate(
        [layout.global_dofs("minus", conn), layout.global_dofs("plus", conn)], axis=1
    )  # (ncut, 6)
    if dofs.size and dofs.min() < 0:
        raise RuntimeError("cut element with a missing DOF; classification and layout disagree")
    # jump [v] = v^+ - v^- evaluated at the chord quadrature points
    jump = np.concatenate([-lam, lam], axis=2)  # (ncut, 2, 6)
    return cut, conn, gn, wts, lam, jump, dofs, pts


def assemble_parts(mesh: Mesh, topo: CutTopology, layout: SpaceLayout, spec: ProblemSpec) -> dict:
    """Named matrix parts of the bilinear form, before scaling by the

    stabilisation parameters: ``volume``, ``nitsche``, ``penalty_base``
    (includes 1/h_T but no coefficient), ``ghost_minus``/``ghost_plus``
    (include rho and |e|^2 but no gamma_g).
    """
    n = layout.n_total
    h_t = mesh.h_elem

    # subdomain stiffness: P1 gradients are constant, only the clipped
    # area of each element enters
    rows, cols, vals = [], [], []
    for side in ("minus", "plus"):
        mask = layout.in_minus if side == "minus" else layout.in_plus
        elems = np.flatnonzero(mask)
        area = topo.area(side)[elems]
        grads = mesh.grads[elems]
        local = spec.rho(side) * area[:, None, None] * np.einsum("kid,kjd->kij", grads, grads)
        dofs = layout.global_dofs(side, mesh.elements[elems])
        _block(rows, cols, vals, dofs, local)
    volume = _coo(rows, cols, vals, n)

    rows, cols, vals = [], [], []
    prows, pcols, pvals = [], [], []
    if topo.n_cut:
        cut, conn, gn, wts, lam, jump, dofs, _ = _cut_blocks(mesh, topo, layout)
        w_minus, w_plus = spec.flux_weights()
        flux = np.concatenate(
            [w_minus * spec.rho_minus * gn, w_plus * spec.rho_plus * gn], axis=1
        )  # (ncut, 6), constant per element
        nit = np.einsum("kq,kqi,kj->kij", wts, jump, flux)
        nit = nit + nit.transpose(0, 2, 1)
        _block(rows, cols, vals, dofs, nit)
        pen = np.einsum("kq,kqi,kqj->kij", wts, jump, jump) / h_t
        _block(prows, pcols, pvals, dofs, pen)
    nitsche = _coo(rows, cols, vals, n)
    penalty_base = _coo(prows, pcols, pvals, n)

    ghost = {}
    for side in ("minus", "plus"):
        edges = topo.ghost_minus if side == "minus" else topo.ghost_plus
        rows, cols, vals = [], [], []
        if edges.size:
            e1 = mesh.edge_elems[edges, 0]
            e2 = mesh.edge_elems[edges, 1]
            ev = mesh.nodes[mesh.edges[edges, 1]] - mesh.nodes[mesh.edges[edges, 0]]
            elen = np.hypot(ev[:, 0], ev[:, 1])
            ne = np.column_stack([-ev[:, 1], ev[:, 0]]) / elen[:, None]
            j1 = np.einsum("kid,kd->ki", mesh.grads[e1], ne)
            j2 = -np.einsum("kid,kd->ki", mesh.grads[e2], ne)
            jmp = np.concatenate([j1, j2], axis=1)  # (k, 6)
            coeff = spec.rho(side) * elen ** 2
            local = coeff[:, None, None] * jmp[:, :, None] * jmp[:, None, :]
            dofs = np.concatenate(
                [layout.global_dofs(side, mesh.elements[e1]),
                 layout.global_dofs(side, mesh.elements[e2])], axis=1
            )
            _block(rows, cols, vals, dofs, local)
        ghost[side] = _coo(rows, cols, vals, n)

    return {
        "volume": volume,
        "nitsche": nitsche,
        "penalty_base": penalty_base,
        "ghost_minus": ghost["minus"],
        "ghost_plus": ghost["plus"],
    }


def assemble_bilinear(mesh: Mesh, topo: CutTopology, layout: SpaceLayout,
                      spec: ProblemSpec) -> sp.csr_matrix:
    """Full stabilised Nitsche matrix over all

    DOFs (Dirichlet rows included; reduction happens in build_system).
    """
    parts = assemble_parts(mesh, topo, layout, spec)
    a = (parts["volume"] + parts["nitsche"]
         + spec.gamma * spec.penalty_rho() * parts["penalty_base"]
         + spec.gamma_g_minus * parts["ghost_minus"]
         + spec.gamma_g_plus * parts["ghost_plus"])
    return a.tocsr()


def assemble_vnorm_gram(mesh: Mesh, topo: CutTopology, layout: SpaceLayout,
                        spec: ProblemSpec) -> sp.csr_matrix:
    """Gram matrix of the energy norm: v^T G v = ||v||_V^2.

    The norm carries the subdomain stiffness, the interface jump term
    scaled by rho^- / h_T, and both unscaled ghost terms.
    """
    parts = assemble_parts(mesh, topo, layout, spec)
    g = (parts["volume"] + spec.rho_minus * parts["penalty_base"]
         + parts["ghost_minus"] + parts["ghost_plus"])
    return g.tocsr()


def assemble_load(mesh: Mesh, topo: CutTopology, layout: SpaceLayout, spec: ProblemSpec) -> np.ndarray:
    """Load vector including the interface jump data terms."""
    b = np.zeros(layout.n_total)
    for side in ("minus", "plus"):
        f = spec.f_minus if side == "minus" else spec.f_plus
        if f is None:
            continue
        sq = topo.quad_minus if side == "minus" else topo.quad_plus
        if not sq.weights.size:
            continue
        conn = mesh.elements[sq.elems]
        lam = barycentric_many(mesh.nodes[conn], sq.points)
        contrib = (sq.weights * np.asarray(f(sq.points), dtype=float))[:, None] * lam
        dofs = layout.global_dofs(side, conn)
        np.add.at(b, dofs.ravel(), contrib.ravel())

    if topo.n_cut and (spec.jump_value is not None or spec.jump_flux is not None):
        cut, conn, gn, wts, lam, jump, dofs, pts = _cut_blocks(mesh, topo, layout)
        w_minus, w_plus = spec.flux_weights()
        h_t = mesh.h_elem
        if spec.jump_flux is not None:
            beta = np.stack([np.asarray(spec.jump_flux(pts[:, q, :]), dtype=float)
                             for q in range(2)], axis=1)
            wb = wts * beta  # (ncut, 2)
            loc = np.einsum("kq,kqi->ki", wb, lam)
            np.add.at(b, layout.global_dofs("plus", conn).ravel(), (w_minus * loc).ravel())
            np.add.at(b, layout.global_dofs("minus", conn).ravel(), (w_plus * loc).ravel())
        if spec.jump_value is not None:
            alpha = np.stack([np.asarray(spec.jump_value(pts[:, q, :]), dtype=float)
                              for q in range(2)], axis=1)
            wa = wts * alpha
            flux = np.concatenate(
                [w_minus * spec.rho_minus * gn, w_plus * spec.rho_plus * gn], axis=1
            )
            loc = np.sum(wa, axis=1)[:, None] * flux
            loc += (spec.gamma * spec.penalty_rho() / h_t) * np.einsum("kq,kqi->ki", wa, jump)
            np.add.at(b, dofs.ravel(), loc.ravel())
    return b


def build_system(mesh: Mesh, topo: CutTopology, layout: SpaceLayout,
                 spec: ProblemSpec) -> SparseSystem:
    """Assemble and reduce the linear system, lifting Dirichlet data."""
    a_full = assemble_bilinear(mesh, topo, layout, spec)
    b_full = assemble_load(mesh, topo, layout, spec)

    lifting = np.zeros(layout.n_total)
    dir_dofs = np.flatnonzero(layout.dirichlet)
    if dir_dofs.size and spec.dirichlet is not None:
        outer = layout.outer_side()
        dof_node = layout.dof_node_minus if outer == "minus" else layout.dof_node_plus
        offset = 0 if outer == "minus" else layout.n_minus
        local = dir_dofs - offset
        coords = mesh.nodes[dof_node[local]]
        lifting[dir_dofs] = np.asarray(spec.dirichlet(coords), dtype=float)

    free = layout.free_dofs
    a_red = a_full[free][:, free].tocsr()
    b_red = b_full[free]
    if dir_dofs.size:
        b_red = b_red - a_full[free][:, dir_dofs] @ lifting[dir_dofs]
    return SparseSystem(matrix=a_red, rhs=b_red, lifting=lifting, layout=layout)


def expand_solution(system: SparseSystem, x_free: np.ndarray) -> FieldPair:
    """Free-DOF solution back to a full two-sided field."""
    full = system.lifting.copy()
    full[system.layout.free_dofs] = x_free
    return FieldPair.from_global(system.layout, full)


def dump_matrix(matrix: sp.spmatrix, path) -> None:
    """Coordinate text dump: one 'row col value' line per entry."""
    coo = matrix.tocoo()
    with open(path, "w") as fh:
        fh.write(f"% {coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {v:.17g}\n")
