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

from .mesh import barycentric_many, blocks, edge_frame
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


class _Entries:
    """COO entries of dense local matrices, written into preallocated
    arrays: element-major, row-major within an element, in the order the
    local matrices are added.  ``tocsr`` sums duplicates in that order.
    """

    def __init__(self, n_local: int, m: int):
        size = n_local * m * m
        self.rows = np.empty(size, dtype=np.int32)
        self.cols = np.empty(size, dtype=np.int32)
        self.vals = np.empty(size)
        self.end = 0

    def add(self, dofs, local) -> None:
        """Local matrices (k, m, m) at global dofs (k, m)."""
        k, m = dofs.shape
        span = slice(self.end, self.end + k * m * m)
        self.rows[span].reshape(k, m, m)[...] = dofs[:, :, None]
        self.cols[span].reshape(k, m, m)[...] = dofs[:, None, :]
        self.vals[span] = local.reshape(-1)
        self.end = span.stop

    def tocsr(self, n: int) -> sp.csr_matrix:
        return sp.coo_matrix((self.vals, (self.rows, self.cols)), shape=(n, n)).tocsr()


def _cut_blocks(layout: SpaceLayout):
    """Shared per-cut-element data for interface terms."""
    mesh, topo = layout.mesh, layout.topo
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
    return conn, gn, wts, lam, jump, dofs, pts


def assemble_parts(layout: SpaceLayout, spec: ProblemSpec) -> dict:
    """Named matrix parts of the bilinear form on ``layout``, before scaling
    by the stabilisation parameters: ``volume``, ``nitsche``,
    ``penalty_base`` (includes 1/h_T but no coefficient),
    ``ghost_minus``/``ghost_plus`` (include rho and |e|^2 but no gamma_g).
    The volume part is computed ``BLOCK`` elements at a time into one
    preallocated set of COO entries.
    """
    mesh, topo = layout.mesh, layout.topo
    n = layout.n_total
    h_t = mesh.h_elem

    # subdomain stiffness: P1 gradients are constant, only the clipped
    # area of each element enters; elements go BLOCK at a time
    sides = [(side, np.flatnonzero(topo.in_side(side))) for side in ("minus", "plus")]
    entries = _Entries(sum(elems.size for _, elems in sides), 3)
    for side, elems in sides:
        area = topo.area(side)
        for block in blocks(elems.size):
            ids = elems[block]
            grads = mesh.grads[ids]
            local = (spec.rho(side) * area[ids][:, None, None]
                     * np.einsum("kid,kjd->kij", grads, grads))
            entries.add(layout.global_dofs(side, mesh.elements[ids]), local)
    volume = entries.tocsr(n)

    ncut = topo.n_cut
    nit_entries, pen_entries = _Entries(ncut, 6), _Entries(ncut, 6)
    if ncut:
        _, gn, wts, _, jump, dofs, _ = _cut_blocks(layout)
        w_minus, w_plus = spec.flux_weights()
        flux = np.concatenate(
            [w_minus * spec.rho_minus * gn, w_plus * spec.rho_plus * gn], axis=1
        )  # (ncut, 6), constant per element
        nit = np.einsum("kq,kqi,kj->kij", wts, jump, flux)
        nit = nit + nit.transpose(0, 2, 1)
        nit_entries.add(dofs, nit)
        pen = np.einsum("kq,kqi,kqj->kij", wts, jump, jump) / h_t
        pen_entries.add(dofs, pen)
    nitsche = nit_entries.tocsr(n)
    penalty_base = pen_entries.tocsr(n)

    ghost = {}
    for side in ("minus", "plus"):
        edges = topo.ghost_minus if side == "minus" else topo.ghost_plus
        entries = _Entries(edges.size, 6)
        if edges.size:
            e1, e2, elen, ne = edge_frame(mesh, edges)
            j1 = np.einsum("kid,kd->ki", mesh.grads[e1], ne)
            j2 = -np.einsum("kid,kd->ki", mesh.grads[e2], ne)
            jmp = np.concatenate([j1, j2], axis=1)  # (k, 6)
            coeff = spec.rho(side) * elen ** 2
            local = coeff[:, None, None] * jmp[:, :, None] * jmp[:, None, :]
            dofs = np.concatenate(
                [layout.global_dofs(side, mesh.elements[e1]),
                 layout.global_dofs(side, mesh.elements[e2])], axis=1
            )
            entries.add(dofs, local)
        ghost[side] = entries.tocsr(n)

    return {
        "volume": volume,
        "nitsche": nitsche,
        "penalty_base": penalty_base,
        "ghost_minus": ghost["minus"],
        "ghost_plus": ghost["plus"],
    }


def assemble_bilinear(layout: SpaceLayout, spec: ProblemSpec) -> sp.csr_matrix:
    """Full stabilised Nitsche matrix over all DOFs of ``layout``, Dirichlet
    rows included; reduction happens in build_system."""
    parts = assemble_parts(layout, spec)
    a = (parts["volume"] + parts["nitsche"]
         + spec.gamma * spec.penalty_rho() * parts["penalty_base"]
         + spec.gamma_g_minus * parts["ghost_minus"]
         + spec.gamma_g_plus * parts["ghost_plus"])
    return a.tocsr()


def assemble_vnorm_gram(layout: SpaceLayout, spec: ProblemSpec) -> sp.csr_matrix:
    """Gram matrix of the energy norm on ``layout``: v^T G v = ||v||_V^2.

    The norm carries the subdomain stiffness, the interface jump term
    scaled by rho^- / h_T, and both unscaled ghost terms.
    """
    parts = assemble_parts(layout, spec)
    g = (parts["volume"] + spec.rho_minus * parts["penalty_base"]
         + parts["ghost_minus"] + parts["ghost_plus"])
    return g.tocsr()


def assemble_load(layout: SpaceLayout, spec: ProblemSpec) -> np.ndarray:
    """Load vector on ``layout`` including the interface jump data terms.

    The volume terms go ``BLOCK`` quadrature points at a time.
    """
    mesh, topo = layout.mesh, layout.topo
    b = np.zeros(layout.n_total)
    for side in ("minus", "plus"):
        f = spec.f_minus if side == "minus" else spec.f_plus
        if f is None:
            continue
        sq = topo.quad_minus if side == "minus" else topo.quad_plus
        # np.add.at adds in point order, whatever the block size
        for block in blocks(sq.weights.size):
            pts = sq.points[block]
            conn = mesh.elements[sq.elems[block]]
            lam = barycentric_many(mesh.nodes[conn], pts)
            contrib = (sq.weights[block] * np.asarray(f(pts), dtype=float))[:, None] * lam
            dofs = layout.global_dofs(side, conn)
            np.add.at(b, dofs.ravel(), contrib.ravel())

    if topo.n_cut and (spec.jump_value is not None or spec.jump_flux is not None):
        conn, gn, wts, lam, jump, dofs, pts = _cut_blocks(layout)
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


def build_system(layout: SpaceLayout, spec: ProblemSpec) -> SparseSystem:
    """Assemble and reduce the linear system on ``layout``, lifting Dirichlet data."""
    a_full = assemble_bilinear(layout, spec)
    b_full = assemble_load(layout, spec)

    lifting = np.zeros(layout.n_total)
    dir_dofs = np.flatnonzero(layout.dirichlet)
    if dir_dofs.size and spec.dirichlet is not None:
        outer = layout.outer_side()
        offset = 0 if outer == "minus" else layout.n_minus
        coords = layout.mesh.nodes[layout.dof_node(outer)[dir_dofs - offset]]
        lifting[dir_dofs] = np.asarray(spec.dirichlet(coords), dtype=float)

    free = layout.free_dofs
    a_rows = a_full[free]
    del a_full
    a_red = a_rows[:, free].tocsr()
    b_red = b_full[free]
    if dir_dofs.size:
        b_red = b_red - a_rows[:, dir_dofs] @ lifting[dir_dofs]
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
