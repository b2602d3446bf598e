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
* build_extension: averaged-reflection extension of a field given on
  the plus-side mesh to the whole background mesh, with the H1 Gram
  matrices that measure its stability.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse

from .assembly import (_ghost_part, _stiffness, assemble_vnorm_gram, build_system, element_rows,
                       part_rows, stack_rows, stacked, window_elems)
# classify stays bound here by name: the benchmark's tracer tests check it
from .cutcell import CutTopology, classify  # noqa: F401
from .harness import RunConfig, Table, _geometry, make_problem
from .levelset import _TUBE, SIDES, GeometryError, LevelSet, reflect_many
from .mesh import Mesh, barycentric_many, blocks, elem_any
from .norms import PairwiseSum, _energy_sq, _grad_error_sq
from .problems import ProblemSpec
from .space import SpaceLayout, interpolate_pair, locate_on_side

__all__ = [
    "PatchAreaResult", "patch_area_ratio",
    "coercivity_probe",
    "interpolation_error_profile",
    "ExtensionOperator", "build_extension",
    "run_diagnostics",
]

log = logging.getLogger(__name__)

# largest system whose coercivity is found by a dense generalized eigensolve;
# larger ones use shift-invert Lanczos (ARPACK)
_DENSE_EIGEN_LIMIT = 3000

# points of a node's patch, six uncut elements of three: the extension
# takes BLOCK // _PATCH_POINTS candidate nodes at a time
_PATCH_POINTS = 18

# random plus-side fields, and their seed, of the extension report blocks
_EXTENSION_FIELDS = 20
_EXTENSION_SEED = 0


# ---------------------------------------------------------------------------
# patch geometry

@dataclass(frozen=True)
class PatchAreaResult:
    ratio: float   # min over nodes of max over patch of |T cap side| / h_T^2
    node: int      # arg-min node


def patch_area_ratio(topo: CutTopology, side: str = "minus") -> PatchAreaResult:
    """Worst node-patch clipped-area ratio on the closed side.

    For every node in the closed physical side, the best element of its
    patch should keep a clipped area comparable to h_T^2; the minimum
    over nodes is the measured constant.
    """
    mesh, want = topo.mesh, -1 if side == "minus" else 1
    nodes = np.flatnonzero(topo.node_sign * want >= 0)
    if nodes.size == 0:
        return PatchAreaResult(ratio=float("inf"), node=-1)
    patch_best = np.empty(nodes.size)
    for block in blocks(nodes.size):
        ptr, elems = mesh.node_elems(nodes[block])
        patch_best[block] = np.maximum.reduceat(topo.area(side, elems), ptr[:-1])
    ratios = patch_best / mesh.h_elem ** 2
    i = int(np.argmin(ratios))
    return PatchAreaResult(ratio=float(ratios[i]), node=int(nodes[i]))


# ---------------------------------------------------------------------------
# coercivity

def coercivity_probe(a, gram, dense: bool) -> float:
    """Minimum of a(v,v) / ||v||_G^2: the smallest eigenvalue of the
    sparse pencil (a, gram).  A dense generalized eigensolve, or else
    shift-invert Lanczos about 0 (ARPACK, which needs n > 1), started
    from the ones vector so that reruns agree.
    """
    # both solvers are imported here, not at the top: loading scipy.linalg
    # or ARPACK slows every import of this module, and each branch needs
    # only its own
    if dense:
        from scipy.linalg import eigh
        vals = eigh(a.toarray(), gram.toarray(), eigvals_only=True, subset_by_index=[0, 0])
        return float(vals[0])
    from scipy.sparse.linalg import eigsh
    vals = eigsh(scipy.sparse.csc_matrix(a), k=1, M=gram, sigma=0.0, which="LM",
                 v0=np.ones(a.shape[0]), return_eigenvectors=False)
    return float(vals[0])


# ---------------------------------------------------------------------------
# interpolation error

def interpolation_error_profile(ls: LevelSet, spec: ProblemSpec, levels) -> Table:
    """Nodal-interpolation error in the augmented energy norm, scaled by
    h times the coefficient-weighted L2 norms of the exact Hessian.

    One walk of each side's rule per level sums both integrands, the
    gradient error of the interpolant and the squared Hessian, as np.sum
    sums the whole side's; the interface and ghost terms are added as
    ``error_report`` adds them, so ``vanorm`` is its ``vanorm``, bit for bit.
    """
    if spec.hess_minus is None or spec.hess_plus is None:
        raise ValueError("interpolation profile needs exact second derivatives")
    if not spec.has_exact():
        raise ValueError("interpolation profile needs exact solution and gradient on both sides")
    rows = []
    for level in levels:
        layout = _geometry(level, ls)
        mesh, topo = layout.mesh, layout.topo
        u_i = interpolate_pair(layout, spec.exact("minus"), spec.exact("plus"))
        esqrt_sq = scale = 0.0
        for side in SIDES:
            hess = spec.hess_minus if side == "minus" else spec.hess_plus
            coeffs, dofmap = u_i.side(side), layout.node_dof(side)
            grad_int = PairwiseSum(topo.n_points(side))
            hess_int = PairwiseSum(topo.n_points(side))
            for elems, counts, pts, w in topo.quadrature_blocks(side):
                uh, grads = coeffs[dofmap[mesh.elements(elems)]], mesh.grads(elems)
                grad_h = np.repeat(np.einsum("ki,kid->kd", uh, grads), counts, axis=0)
                grad_int.add(w * _grad_error_sq(spec, side, grad_h, pts))
                vals = np.asarray(hess(pts), dtype=float)
                hess_int.add(w * vals * vals)
            esqrt_sq += float(spec.rho(side) * grad_int.total())
            scale += np.sqrt(spec.rho(side)) * np.sqrt(hess_int.total())
        vanorm = float(np.sqrt(_energy_sq(spec, u_i, esqrt_sq)[1]))
        scale *= mesh.h
        ratio = vanorm / scale if scale > 0.0 else 0.0
        rows.append((level, mesh.h, vanorm, scale, ratio))
    return Table(columns=("level", "h", "vanorm", "scale", "ratio"),
                 rows=tuple(rows))


# ---------------------------------------------------------------------------
# discrete extension

def _cutoff(dist: np.ndarray, eps: float) -> np.ndarray:
    """1 inside eps/2, cubic rolloff to 0 at eps."""
    t = np.clip((dist - 0.5 * eps) / (0.5 * eps), 0.0, 1.0)
    return 1.0 - t * t * (3.0 - 2.0 * t)


def _h1_matrices(mesh: Mesh, chosen: np.ndarray, dofs):
    """H1 Gram matrix, consistent mass plus stiffness, over the elements
    ``chosen`` (a mask) in the indexing of ``dofs``, a ``(node_dof,
    dof_node)`` numbering in node order whose nodes hold every node of
    the elements.  Windows of ``BLOCK`` rows take the elements near their
    first and last node (``window_elems``); a window's rows of the mass
    and of the stiffness matrix come from ``element_rows`` and are added
    as the whole matrices are, so no whole-mesh unsummed CSR is held.
    Rows and columns follow node order, so the Gram in a side's numbering
    is the node-indexed one restricted to the side's nodes, bit for bit."""
    mref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    node_dof, dof_node = dofs

    def rows(lo, hi):
        near = window_elems(mesh, dof_node, lo, hi)
        group = (near[chosen[near]], lambda t: node_dof[mesh.elements(t)])
        mass = element_rows(dof_node.size, lo, hi,
                            [(*group, lambda t: mesh.areas(t)[:, None, None] * mref)])
        return mass + element_rows(dof_node.size, lo, hi, [(*group, lambda t: _stiffness(
            mesh.areas(t), mesh.grads(t)))])

    return stacked(dof_node.size, rows)


def _pointwise(dofs: np.ndarray, vals: np.ndarray, n_cols: int) -> scipy.sparse.csr_matrix:
    """(k, n_cols) CSR whose row p holds ``vals[p]`` at columns ``dofs[p]``."""
    k, m = dofs.shape
    return scipy.sparse.coo_matrix((vals.ravel(), (np.repeat(np.arange(k), m), dofs.ravel())),
                                   shape=(k, n_cols)).tocsr()


@dataclass(frozen=True)
class ExtensionOperator:
    """Linear map from plus-side coefficients to a conforming field on
    the whole background mesh: identity on the plus-side nodes, averaged
    reflection through the interface inside the tube, zero beyond."""

    matrix: scipy.sparse.csr_matrix    # (n_nodes, n_plus)
    # (n_nodes, n_nodes) over the elements with a node E reaches: its rows at
    # those nodes are the whole-mesh Gram's, bit for bit; the rest meet zeros of E v
    h1_reach: scipy.sparse.csr_matrix
    h1_plus: scipy.sparse.csr_matrix   # (n_plus, n_plus), plus-side elements

    def stability_ratio(self, v_plus: np.ndarray) -> float:
        w = self.matrix @ v_plus
        den_sq = float(v_plus @ self.h1_plus @ v_plus)
        if den_sq <= 0.0:
            return 0.0
        num_sq = float(w @ (self.h1_reach @ w))
        return float(np.sqrt(num_sq / den_sq))


def build_extension(layout: SpaceLayout) -> ExtensionOperator:
    """Averaged-reflection extension of plus-side fields of ``layout``
    through its topology's level set, with the H1 Gram matrices that
    measure its stability.

    A node carrying a plus dof keeps its value.  A node within ``_TUBE``
    of the interface without one averages the plus field over the
    reflections, through the interface, of the quadrature points of its
    (minus-side) patch, weighted by quadrature weight times a cutoff in
    the distance, over the patch's total weight.  Nodes farther away
    get zero.  The rows come in slabs of consecutive nodes, each holding
    ``BLOCK // _PATCH_POINTS`` of these candidate nodes, whose patch
    points are gathered, cut off, reflected and located together; a
    row's entries are those of a whole-mesh pass in the same order, so
    the stacked matrix is its matrix, bit for bit.  Raises GeometryError
    in the first slab, in node order, where a point does not reflect or
    its reflection lies outside the plus-side mesh.
    """
    mesh, topo = layout.mesh, layout.topo
    cand = np.flatnonzero((layout.node_dof_plus < 0) & (
        np.abs(np.asarray(topo.levelset.value(mesh.nodes), dtype=float)) <= _TUBE))
    # a slab ends after its last candidate, the last one at the last node
    parts = list(blocks(cand.size, _PATCH_POINTS)) or [slice(0, 0)]
    cuts = [0, *(int(cand[b.stop - 1]) + 1 for b in parts[:-1]), mesh.n_nodes]
    matrix = stack_rows((_extension_rows(layout, cand[b], lo, hi)
                         for b, lo, hi in zip(parts, cuts, cuts[1:])),
                        (mesh.n_nodes, layout.n_plus))
    reach = np.diff(matrix.indptr) > 0   # the nodes E can make nonzero
    nodes = np.arange(mesh.n_nodes)
    h1_reach = _h1_matrices(mesh, elem_any(reach.reshape(mesh.n_cells + 1, -1)), (nodes, nodes))
    h1_plus = _h1_matrices(mesh, topo.in_side("plus"), (layout.node_dof_plus, layout.dof_node_plus))
    return ExtensionOperator(matrix=matrix, h1_reach=h1_reach, h1_plus=h1_plus)


def _extension_rows(layout: SpaceLayout, cand: np.ndarray, lo: int, hi: int):
    """Rows ``lo..hi-1`` of the extension matrix, ``cand`` the candidate
    nodes among them: the kept nodes' unit entries, then per candidate
    node in turn its patch points' reflected barycentrics, summed per
    column in that order by the COO conversion."""
    mesh, topo = layout.mesh, layout.topo
    ls = topo.levelset
    # patch elements of each candidate, then their minus-side points
    ptr, patch = mesh.node_elems(cand)
    pt_ptr, pts, wts = topo.quadrature("minus", patch)
    seg = pt_ptr[ptr]   # node i's points are seg[i]:seg[i+1]
    owner = np.repeat(np.arange(cand.size), np.diff(seg))
    # np.sum per node: a segmented reduceat adds in another order
    total = np.array([np.sum(wts[i:j]) for i, j in zip(seg[:-1], seg[1:])])

    eta = _cutoff(np.abs(np.asarray(ls.value(pts), dtype=float)), _TUBE)
    live = (eta > 0.0) & (total[owner] > 0.0)
    refl = reflect_many(ls, pts[live])
    elems, lams = locate_on_side(layout, "plus", refl)
    if np.any(elems < 0):
        bad = refl[np.argmax(elems < 0)]
        raise GeometryError(f"reflected point {bad.tolist()} lies outside the plus-side mesh")
    owner = owner[live]
    coef = (wts[live] * eta[live] / total[owner])[:, None] * lams
    # the kept and the reflected nodes' rows are disjoint
    kept = lo + np.flatnonzero(layout.node_dof_plus[lo:hi] >= 0)
    return scipy.sparse.coo_matrix(
        (np.concatenate([np.ones(kept.size), coef.ravel()]),
         (np.concatenate([kept, np.repeat(cand[owner], 3)]) - lo,
          layout.node_dof_plus[np.concatenate([kept, mesh.elements(elems).ravel()])])),
        shape=(hi - lo, layout.n_plus)).tocsr()


# ---------------------------------------------------------------------------
# report

def _patch_block(config: RunConfig, levels) -> Table:
    ls, _ = make_problem(config)
    rows = []
    for level in levels:
        layout = _geometry(level, ls)
        for side in SIDES:
            res = patch_area_ratio(layout.topo, side)
            rows.append((level, side, res.ratio, res.node))
    return Table(columns=("level", "side", "min_ratio", "argmin_node"),
                 rows=tuple(rows))


def _coercivity_block(config: RunConfig, levels) -> Table:
    ls, spec = make_problem(config)
    rows = []
    for level in levels:
        layout = _geometry(level, ls)
        system = build_system(layout, spec)
        gram = assemble_vnorm_gram(layout, spec)
        n = system.n
        dense = n <= _DENSE_EIGEN_LIMIT
        quotient = coercivity_probe(system.matrix, gram, dense)
        rows.append((level, n, "dense" if dense else "arnoldi", quotient))
    return Table(columns=("level", "n", "method", "min_quotient"), rows=tuple(rows))


def _extension_blocks(levels):
    """Stability profile of the extension and the companion ratio
    comparing the overlapping-mesh H1 norm against the physical-side
    H1 norm plus the ghost term; both on the plus-inclusion circle."""
    ls, spec = make_problem(RunConfig(example="patch", inclusion_side="plus"))
    ext_rows, trace_rows = [], []
    for level in levels:
        layout = _geometry(level, ls)
        mesh, topo = layout.mesh, layout.topo
        op = build_extension(layout)

        # H1 over the clipped physical plus side, plus-dof indexing
        plus_ids = np.flatnonzero(topo.in_side("plus"))
        ptr, pts, wts = topo.quadrature("plus", plus_ids)
        elems = np.repeat(plus_ids, np.diff(ptr))
        conn = mesh.elements(elems)
        lam = barycentric_many(np.take(mesh.nodes, conn, axis=0), pts)
        dofs = layout.node_dof_plus[conn]
        n_plus = layout.n_plus
        grads = mesh.grads(elems)
        basis_val = _pointwise(dofs, lam, n_plus)
        gx = _pointwise(dofs, grads[:, :, 0], n_plus)
        gy = _pointwise(dofs, grads[:, :, 1], n_plus)
        wdiag = scipy.sparse.diags(wts)
        h1_phys = (basis_val.T @ wdiag @ basis_val
                   + gx.T @ wdiag @ gx + gy.T @ wdiag @ gy)

        ghost = stacked(layout.n_total,
                        partial(part_rows, layout.n_total, _ghost_part(layout, spec, "plus")))

        rng = np.random.default_rng(_EXTENSION_SEED)
        best_ext, best_trace = 0.0, 0.0
        for _ in range(_EXTENSION_FIELDS):
            v = rng.standard_normal(layout.n_plus)
            best_ext = max(best_ext, op.stability_ratio(v))
            g = np.zeros(layout.n_total)
            g[layout.n_minus:] = v
            den = float(v @ (h1_phys @ v)) + float(g @ (ghost @ g))
            if den > 0.0:
                best_trace = max(best_trace, float(v @ (op.h1_plus @ v)) / den)
        ext_rows.append((level, _EXTENSION_FIELDS, best_ext))
        trace_rows.append((level, _EXTENSION_FIELDS, best_trace))
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
    if config.example not in ("1", "patch"):
        raise ValueError("diagnostics run on the circle configurations")
    ls, spec = make_problem(config)
    blocks = [("patch_area_ratio", _patch_block(config, patch_levels)),
              ("coercivity", _coercivity_block(config, coercivity_levels)),
              ("interpolation", interpolation_error_profile(ls, spec, interpolation_levels)),
              *zip(("discrete_extension", "h1_plus_vs_physical"),
                   _extension_blocks(extension_levels))]
    return "".join(f"# {name}\n{table.to_csv()}\n" for name, table in blocks)
