"""Assembly of the stabilised Nitsche bilinear form and load vector.

The bilinear form is built from four parts: subdomain stiffness on the
chord-clipped physical sides, the symmetric Nitsche coupling along the
interface with the flux of the minus side, the interface jump penalty
scaled by gamma rho^-, and the gradient-jump ghost penalty on edges of
the cut bands.  The same parts are reused for the energy-norm Gram
matrix so that diagnostics share the quadrature with the solver.

Every matrix is filled straight into its CSR arrays, ``BLOCK`` rows at
a time (``element_rows``), with no COO step: rows counted first, then
each pass of elements ranked by row with one stable argsort.  Each row
gets its entries in input order, as scipy's COO to CSR conversion
(``coo_tocsr``) buckets them; ``sum_duplicates`` then sorts and sums each
row as that conversion does.  A row's sum depends on that order, so
keeping it keeps every matrix bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp

from .levelset import SIDES
from .mesh import barycentric_many, blocks, edge_frame
from .problems import ProblemSpec
from .space import FieldPair, SpaceLayout

__all__ = [
    "SparseSystem",
    "assemble_parts",
    "assemble_load",
    "assemble_vnorm_gram",
    "build_system",
    "expand_solution",
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


def _cut_blocks(layout: SpaceLayout):
    """Shared per-cut-element data for interface terms."""
    mesh, topo = layout.mesh, layout.topo
    cut = topo.cut_ids
    conn = mesh.elements(cut)
    coords = np.take(mesh.nodes, conn, axis=0)
    grads = mesh.grads(cut)
    normals = topo.chord_normal
    gn = np.einsum("kid,kd->ki", grads, normals)
    pts, wts = topo.interface_rule()
    lam = np.stack(
        [barycentric_many(coords, pts[:, q, :]) for q in range(2)], axis=1
    )  # (ncut, 2, 3)
    dofs = np.concatenate([layout.global_dofs(side, conn) for side in SIDES], axis=1)  # (ncut, 6)
    if dofs.size and dofs.min() < 0:
        raise RuntimeError("cut element with a missing DOF; classification and layout disagree")
    # jump [v] = v^+ - v^- evaluated at the chord quadrature points
    jump = np.concatenate([-lam, lam], axis=2)  # (ncut, 2, 6)
    return conn, gn, wts, lam, jump, dofs, pts


def _stiffness(coef: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """P1 stiffness matrices ``coef * grads @ grads^T`` as a (k, 3, 3) view
    whose entries ``[:, i, j]`` are contiguous.  The values are those of
    ``coef[:, None, None] * np.einsum("kid,kjd->kij", grads, grads)``:
    einsum adds the two products onto a zero, which turns -0 into +0."""
    g = grads.transpose(1, 2, 0)   # (3, 2, k)
    local = np.empty((3, 3, coef.size))
    for i in range(3):
        for j in range(i, 3):
            np.multiply(coef, (0.0 + g[i, 0] * g[j, 0]) + g[i, 1] * g[j, 1], out=local[i, j])
            local[j, i] = local[i, j]
    return local.transpose(2, 0, 1)


def _window_keys(dofs: np.ndarray, lo: int, rows: int) -> np.ndarray:
    """Row of each of ``dofs``, flattened, in a window of ``rows`` rows
    from ``lo``; ``rows``, one spare bucket, for every row outside it.
    uint16 below 2**16 rows, as numpy radix-sorts those stably."""
    key = dofs.ravel() - lo
    key = np.where((key >= 0) & (key < rows), key, rows)
    return key.astype(np.uint16 if rows < 1 << 16 else np.int64)


def _scatter_pass(indices, data, nxt, lo: int, dofs, local) -> None:
    """Write local matrices ``local`` (k, m, m) at ``dofs`` (k, m): row
    ``dofs[e, i]`` gets ``local[e, i, :]`` at columns ``dofs[e, :]`` in
    its next m free slots, ``nxt`` of its window row, element-major; a row
    outside the window gets the m spare slots past the end, ``nxt[-1]``.
    One scatter writes every entry, taken in the order (i, j, e), which
    reads ``local`` in memory order where ``local[:, i, j]`` is contiguous."""
    k, m = dofs.shape
    key = _window_keys(dofs, lo, nxt.size - 1)
    rank = np.empty(key.size, dtype=np.int64)   # of each entry among the pass's, by row
    rank[np.argsort(key, kind="stable")] = np.arange(key.size)
    counts = np.bincount(key, minlength=nxt.size)
    rank -= (np.cumsum(counts) - counts)[key]   # now among the pass's entries in its row
    rank *= m
    rank += nxt[key]
    nxt[:-1] += m * counts[:-1]
    del key, counts   # before the scatter's (m, m, k) slots
    slot = np.minimum(rank, nxt[-1], out=rank).reshape(k, m).T   # (i, e)
    dest = slot[:, None, :] + np.arange(m)[:, None]             # (i, j, e)
    indices[dest] = dofs.T
    data[dest] = local.transpose(1, 2, 0)


def element_rows(n: int, lo: int, hi: int, groups) -> sp.csr_matrix:
    """Rows ``lo:hi`` of an n-column sum of dense local matrices, as an
    (hi - lo, n) CSR with duplicates summed.  ``groups``: (ids, dofs_of,
    local_of), ``dofs_of(ids)`` (k, m) DOFs and ``local_of(ids)`` (k, m, m)
    matrices, taken ``BLOCK // 3`` elements a pass.  Each row's entries
    are counted from the DOFs alone; each pass then goes into the unsummed
    CSR, 12 B an entry (``_scatter_pass``), in the order of one fill over
    all rows, so the window holds those rows bit for bit, in any order
    of the elements.
    """
    rows = hi - lo
    passes = [(ids[b], dofs_of(ids[b]), local_of)
              for ids, dofs_of, local_of in groups for b in blocks(ids.size, 3)]
    nxt = np.zeros(rows + 1, dtype=np.int64)   # the entries of each row, then of the rest
    for _, dofs, _ in passes:
        nxt += dofs.shape[1] * np.bincount(_window_keys(dofs, lo, rows), minlength=rows + 1)
    nxt = np.cumsum(nxt) - nxt   # each row's first slot, then the end
    end = int(nxt[-1])
    if end > np.iinfo(np.int32).max:
        raise OverflowError("more entries than int32 CSR indices can address")
    indptr = nxt.astype(np.int32)
    spare = max((dofs.shape[1] for _, dofs, _ in passes), default=0)
    indices = np.empty(end + spare, dtype=np.int32)
    data = np.empty(end + spare)
    for ids, dofs, local_of in passes:
        _scatter_pass(indices, data, nxt, lo, dofs, local_of(ids))
    matrix = sp.csr_matrix((data[:end], indices[:end], indptr), shape=(rows, n))
    # sum_duplicates sorts and sums each row as scipy's COO conversion
    # does; it frees the unsummed arrays when it prunes them
    del data, indices
    matrix.sum_duplicates()
    return matrix


def stack_rows(windows, shape: tuple[int, int]) -> sp.csr_matrix:
    """One CSR of ``shape`` from consecutive CSR row windows.  The entry
    arrays grow in place by each window's entries, so the windows are
    never held together and the result is never copied."""
    data = np.empty(0)
    indices = np.empty(0, dtype=np.int32)
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    row = at = 0
    for w in windows:
        k = int(w.indptr[-1])
        data.resize(at + k, refcheck=False)
        indices.resize(at + k, refcheck=False)
        data[at:] = w.data[:k]
        indices[at:] = w.indices[:k]
        indptr[row + 1:row + 1 + w.shape[0]] = at + w.indptr[1:]
        row, at = row + w.shape[0], at + k
        del w   # before the next window is built
    if row != shape[0]:
        raise ValueError(f"windows hold {row} of {shape[0]} rows")
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def stacked(n: int, rows_of) -> sp.csr_matrix:
    """The n x n CSR whose rows ``lo:hi`` are ``rows_of(lo, hi)``, built
    ``BLOCK`` rows at a time and stacked by ``stack_rows``."""
    return stack_rows((rows_of(b.start, b.stop) for b in blocks(n)), (n, n))


def window_elems(mesh, dof_node: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Increasing ids of the elements that can hold a DOF in ``lo:hi`` of
    a numbering in node order, ``dof_node`` the node of each DOF: those
    near the first and last node of the window, clipped to the numbering."""
    first, last = max(lo, 0), min(hi, dof_node.size) - 1
    if first > last:
        return np.empty(0, dtype=np.int64)
    return mesh.elems_near(dof_node[first], dof_node[last])


def _volume(layout: SpaceLayout, spec: ProblemSpec, lo: int, hi: int) -> sp.csr_matrix:
    """Rows ``lo:hi`` of the subdomain stiffness, the ``volume`` part: P1
    gradients are constant, only the clipped area of each element enters.
    Each side numbers its DOFs in node order, so ``window_elems`` finds
    the elements that can touch the window."""
    mesh, topo = layout.mesh, layout.topo
    groups = []
    for side in SIDES:
        offset = layout.offset(side)
        near = window_elems(mesh, layout.dof_node(side), lo - offset, hi - offset)
        groups.append((near[topo.in_side(side, near)],
                       lambda ids, side=side: layout.global_dofs(side, mesh.elements(ids)),
                       lambda ids, side=side: _stiffness(spec.rho(side) * topo.area(side, ids),
                                                         mesh.grads(ids))))
    return element_rows(layout.n_total, lo, hi, groups)


def part_rows(n: int, part, lo: int, hi: int) -> sp.csr_matrix:
    """Rows ``lo:hi`` of the n x n sum of a cut part, ``(dofs, local_of)``:
    the DOFs (k, m) of its elements or ghost edges, and the local matrices
    (k', m, m) of given ones.  Those with a DOF in the window enter, in
    the order of the part."""
    dofs, local_of = part
    ids = np.flatnonzero(((dofs >= lo) & (dofs < hi)).any(axis=1))
    return element_rows(n, lo, hi, [(ids, dofs.__getitem__, local_of)])


def assemble_parts(layout: SpaceLayout, spec: ProblemSpec) -> dict:
    """Named matrix parts of the bilinear form on ``layout``, before scaling
    by the stabilisation parameters: ``volume``, ``nitsche``,
    ``penalty_base`` (includes 1/h_T but no coefficient),
    ``ghost_minus``/``ghost_plus`` (include rho and |e|^2 but no gamma_g).

    Each part is stacked from windows of ``BLOCK`` rows (``stacked``),
    each filled by ``element_rows`` from the elements that can touch it:
    the volume part's (``_volume``) and those of the other parts with a
    DOF in it (``part_rows``).  Entries land in each row in the order of
    scipy's ``coo_tocsr``, element-major and row-major within an element,
    so the parts are bit-identical to converting the same entries from
    COO, whatever the block size.
    """
    n = layout.n_total
    # first: while it is built, the cut parts' locals would raise its peak
    volume = stacked(n, partial(_volume, layout, spec))
    return {"volume": volume, **{name: stacked(n, partial(part_rows, n, part))
                                 for name, part in _cut_parts(layout, spec).items()}}


def _normal_flux(spec: ProblemSpec, gn: np.ndarray) -> np.ndarray:
    """The minus-side flux ``rho^- grad(phi_i) . n`` of the six DOFs of each
    cut element, minus then plus (zero), from the normal derivatives ``gn``
    (ncut, 3): (ncut, 6), constant per element."""
    return np.concatenate([spec.rho_minus * gn, np.zeros_like(gn)], axis=1)


def _cut_parts(layout: SpaceLayout, spec: ProblemSpec) -> dict:
    """The parts of ``assemble_parts`` but the volume, those of the cut
    elements and of the ghost edges, each as its ``(dofs, local_of)``."""
    _, gn, wts, _, jump, dofs, _ = _cut_blocks(layout)
    nit = np.einsum("kq,kqi,kj->kij", wts, jump, _normal_flux(spec, gn))
    pen = np.einsum("kq,kqi,kqj->kij", wts, jump, jump) / layout.mesh.h_elem
    nit = nit + nit.transpose(0, 2, 1)
    return {
        "nitsche": (dofs, nit.__getitem__),
        "penalty_base": (dofs, pen.__getitem__),
        "ghost_minus": _ghost_part(layout, spec, "minus"),
        "ghost_plus": _ghost_part(layout, spec, "plus"),
    }


def _ghost_part(layout: SpaceLayout, spec: ProblemSpec, side: str):
    """Gradient-jump ghost penalty of one side, with rho and |e|^2 but no
    gamma_g, the ``ghost_minus``/``ghost_plus`` part of ``assemble_parts``:
    the DOFs (k, 6) of its edges, and their rank-one local matrices
    (k', 6, 6), computed for the edges asked for."""
    mesh, topo = layout.mesh, layout.topo
    edges = topo.ghost_minus if side == "minus" else topo.ghost_plus
    e1, e2, elen, ne = edge_frame(mesh, edges)
    j1 = np.einsum("kid,kd->ki", mesh.grads(e1), ne)
    j2 = -np.einsum("kid,kd->ki", mesh.grads(e2), ne)
    jmp = np.concatenate([j1, j2], axis=1)  # (k, 6)
    coeff = spec.rho(side) * elen ** 2
    dofs = np.concatenate([layout.global_dofs(side, mesh.elements(e)) for e in (e1, e2)], axis=1)
    return dofs, lambda t: coeff[t, None, None] * jmp[t, :, None] * jmp[t, None, :]


def assemble_vnorm_gram(layout: SpaceLayout, spec: ProblemSpec) -> sp.csr_matrix:
    """Gram matrix of the energy norm over the free DOFs of ``layout``:
    v^T G v = ||v||_V^2.

    The norm carries the subdomain stiffness, the interface jump term
    scaled by rho^- / h_T, and both unscaled ghost terms.
    """
    return _free_sum(layout, spec, [("penalty_base", spec.rho_minus),
                                    ("ghost_minus", 1.0), ("ghost_plus", 1.0)])


def assemble_load(layout: SpaceLayout, spec: ProblemSpec) -> np.ndarray:
    """Load vector on ``layout`` including the interface jump data terms.

    The volume terms go ``BLOCK`` quadrature points at a time.
    """
    mesh, topo = layout.mesh, layout.topo
    b = np.zeros(layout.n_total)
    for side in SIDES:
        f = spec.f_minus if side == "minus" else spec.f_plus
        if f is None:
            continue
        # np.add.at adds in point order, whatever the block size
        for elems, counts, pts, w in topo.quadrature_blocks(side):
            conn = np.repeat(mesh.elements(elems), counts, axis=0)
            lam = barycentric_many(np.take(mesh.nodes, conn, axis=0), pts)
            contrib = (w * np.asarray(f(pts), dtype=float))[:, None] * lam
            dofs = layout.global_dofs(side, conn)
            np.add.at(b, dofs.ravel(), contrib.ravel())

    if topo.n_cut and (spec.jump_value is not None or spec.jump_flux is not None):
        _, gn, wts, lam, jump, dofs, pts = _cut_blocks(layout)
        h_t = mesh.h_elem
        if spec.jump_flux is not None:
            # the minus-sided flux puts [rho grad u . n] on the plus DOFs
            wb = wts * np.asarray(spec.jump_flux(pts), dtype=float)  # (ncut, 2)
            loc = np.einsum("kq,kqi->ki", wb, lam)
            np.add.at(b, dofs[:, 3:].ravel(), loc.ravel())
        if spec.jump_value is not None:
            wa = wts * np.asarray(spec.jump_value(pts), dtype=float)
            loc = np.sum(wa, axis=1)[:, None] * _normal_flux(spec, gn)
            loc += (spec.gamma * spec.rho_minus / h_t) * np.einsum("kq,kqi->ki", wa, jump)
            np.add.at(b, dofs.ravel(), loc.ravel())
    return b


def _free_sum(layout: SpaceLayout, spec: ProblemSpec, terms, lifting=None,
              rhs=None) -> sp.csr_matrix:
    """Free rows and columns of the volume part plus ``c * part`` for each
    (name, c) of ``terms``, parts of ``assemble_parts``, summed in that
    order as the whole matrices are; with ``rhs``, its entry of each free
    row loses the row's product with the Dirichlet values of ``lifting``.

    Built ``BLOCK`` full-DOF rows at a time: the window's rows of the
    volume part (``_volume``) plus those of each term (``part_rows``),
    then its free rows and columns.  Each step computes a row from that
    row alone, so the sum is the whole-matrix one bit for bit, and no
    whole-matrix sum is held.
    """
    n = layout.n_total
    cut = _cut_parts(layout, spec)
    terms = [(cut[name], c) for name, c in terms]
    del cut
    dirichlet = layout.dirichlet
    reduced = np.cumsum(~dirichlet, dtype=np.int32) - 1   # index of a free DOF among them

    def entries(a, keep, cols, n_cols):
        """The entries ``keep`` of each row of a, at columns ``cols[keep]``."""
        ends = np.zeros(keep.size + 1, dtype=np.int32)
        np.cumsum(keep, out=ends[1:])
        return sp.csr_matrix((a.data[keep], cols[keep], ends[a.indptr]), shape=(a.shape[0], n_cols))

    def windows():
        row = 0
        for lo, hi in ((b.start, b.stop) for b in blocks(n)):
            a = _volume(layout, spec, lo, hi)
            # sums drop explicit zeros, so a term without entries here adds nothing
            a.eliminate_zeros()
            for part, c in terms:
                rows = part_rows(n, part, lo, hi)
                if rows.nnz:
                    a = a + c * rows
            a = a[~dirichlet[lo:hi]]
            dir_col = dirichlet[a.indices]
            if rhs is not None:
                rhs[row:row + a.shape[0]] -= entries(a, dir_col, a.indices, n) @ lifting
            row += a.shape[0]
            yield entries(a, ~dir_col, reduced[a.indices], layout.n_free)

    return stack_rows(windows(), (layout.n_free, layout.n_free))


def build_system(layout: SpaceLayout, spec: ProblemSpec) -> SparseSystem:
    """Assemble and reduce the linear system on ``layout``, lifting Dirichlet data.

    The reduced matrix is the free-DOF sum (``_free_sum``) of the parts
    with the stabilisation parameters, and its Dirichlet columns lift the
    data into the right-hand side.
    """
    rhs = assemble_load(layout, spec)[layout.free_dofs]
    lifting = np.zeros(layout.n_total)
    dir_dofs = np.flatnonzero(layout.dirichlet)
    if dir_dofs.size and spec.dirichlet is not None:
        outer = layout.topo.levelset.outer_side
        nodes = layout.dof_node(outer)[dir_dofs - layout.offset(outer)]
        coords = np.take(layout.mesh.nodes, nodes, axis=0)
        lifting[dir_dofs] = np.asarray(spec.dirichlet(coords), dtype=float)
    # without Dirichlet DOFs the lift subtracts +0.0, which changes no bit
    matrix = _free_sum(layout, spec, [
        ("nitsche", 1.0), ("penalty_base", spec.gamma * spec.rho_minus),
        ("ghost_minus", spec.gamma_g), ("ghost_plus", spec.gamma_g)], lifting, rhs)
    return SparseSystem(matrix=matrix, rhs=rhs, lifting=lifting, layout=layout)


def expand_solution(system: SparseSystem, x_free: np.ndarray) -> FieldPair:
    """Free-DOF solution back to a full two-sided field."""
    full = system.lifting.copy()
    full[system.layout.free_dofs] = x_free
    return FieldPair.from_global(system.layout, full)
