"""Error measures against a manufactured solution.

All integrals reuse the cut quadrature of the topology, so the
reported quantities are consistent with the assembled forms: L2 and
flux errors over the physical subdomains, sup-norm samples at
quadrature points and vertices, and the stabilised energy norms
including interface and ghost jump terms.

Per-point integrands are computed block by block and summed by
``PairwiseSum`` along the pairwise tree np.sum uses on the whole vector:
a sum's rounding depends on its tree, so every reported bit stays.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import mesh as mesh_module
from .assembly import _cut_blocks
from .mesh import barycentric_many, edge_frame
from .problems import ProblemSpec
from .space import FieldPair

__all__ = ["ErrorReport", "error_report", "eoc"]

class PairwiseSum:
    """``np.sum`` of a float vector of n items handed in consecutive
    pieces, bit for bit, holding at most one subtree and one piece.

    np.sum adds a float64 vector along a pairwise tree: a run of more than
    128 items splits at half its length rounded down to a multiple of 8.
    Rounding depends on the tree, so each maximal subtree of at most
    ``max(BLOCK, 128)`` items is summed by np.sum once its items are in,
    and ``total`` adds the subtree sums along the tree to 0.0, as np.sum
    does.  Where two NaNs meet, either one's sign and payload may stay.
    """

    def __init__(self, n: int):
        self.n, self.leaf = n, max(mesh_module.BLOCK, 128)
        # sizes of the subtrees still to come, the next one last
        self.sizes = self._tree(n, lambda size: [size])[::-1]
        self.pending, self.sums = np.empty(0), []

    def _tree(self, n: int, leaf):
        """leaf(size) of each subtree, in order, joined by +."""
        if n <= self.leaf:
            return leaf(n)
        half = n // 2 - n // 2 % 8
        return self._tree(half, leaf) + self._tree(n - half, leaf)

    def add(self, values: np.ndarray) -> None:
        self.pending = np.concatenate([self.pending, values])
        while self.sizes and self.pending.size >= self.sizes[-1]:
            size = self.sizes.pop()
            self.sums.append(np.sum(self.pending[:size]))
            self.pending = self.pending[size:]

    def total(self) -> np.float64:
        self.add(np.empty(0))   # the one subtree of an empty vector
        if self.sizes or self.pending.size:
            raise ValueError(f"PairwiseSum of {self.n} items was given another number")
        sums = iter(self.sums)
        return np.float64(0.0) + self._tree(self.n, lambda _: next(sums))


@dataclass(frozen=True)
class ErrorReport:
    level: int
    h: float
    e0: float        # ||u - u_h||_{L2}
    einf: float      # sampled sup norm of u - u_h
    eflux: float     # ||rho grad(u - u_h)||_{L2}
    efluxinf: float  # sampled sup norm of rho grad(u - u_h)
    esqrt: float     # ||sqrt(rho) grad(u - u_h)||_{L2}
    vnorm: float     # energy norm incl. interface and ghost jumps
    vanorm: float    # energy norm augmented with the interface flux term
    e0_minus: float
    e0_plus: float
    eflux_minus: float
    eflux_plus: float

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def error_report(spec: ProblemSpec, u_h: FieldPair) -> ErrorReport:
    """Every error measure of ``u_h`` against the exact solution of ``spec``,
    on the mesh, topology and layout ``u_h`` lives on.  One walk of the side
    rule's blocks per side takes the quadrature points and the vertex
    samples of its elements; the per-point integrands of a side are summed
    as one np.sum over the side would (``PairwiseSum``), and the sup norms
    are running maxima over the blocks, so a NaN in ``u_h`` makes them NaN.
    """
    if not spec.has_exact():
        raise ValueError("error_report requires exact solution and gradient on both sides")
    layout = u_h.layout
    mesh, topo = layout.mesh, layout.topo

    e0_sq = {}
    eflux_sq = {}
    esqrt_sq = 0.0
    einf = efluxinf = 0.0
    for side in ("minus", "plus"):
        rho = spec.rho(side)
        coeffs = u_h.side(side)
        dofmap = layout.node_dof(side)
        want = -1 if side == "minus" else 1
        # per-point integrands, summed as np.sum sums the whole vector; about
        # BLOCK / 3 points at a time keep a block's arrays to about 2 MB
        e0_int = PairwiseSum(topo.n_points(side))
        grad_int = PairwiseSum(topo.n_points(side))
        # a running np.max, like one np.max over the side, keeps a NaN; sqrt
        # keeps order, so the squared gradient errors are maximised before it
        diff_max = gdiff_max = 0.0
        for elems, counts, pts, w in topo.quadrature_blocks(side, 9):
            conn = mesh.elements(elems)
            corners = np.take(mesh.nodes, conn, axis=0)
            uh_elem = coeffs[dofmap[conn]]
            grad_h = np.einsum("ki,kid->kd", uh_elem, mesh.grads(elems))
            lam = barycentric_many(np.repeat(corners, counts, axis=0), pts)
            diff = (np.asarray(spec.exact(side)(pts), dtype=float)
                    - np.einsum("ki,ki->k", lam, np.repeat(uh_elem, counts, axis=0)))
            e0_int.add(w * diff * diff)
            gdiff_sq = _grad_error_sq(spec, side, np.repeat(grad_h, counts, axis=0), pts)
            grad_int.add(w * gdiff_sq)
            # vertex samples restricted to the closed physical side
            vmask = topo.node_sign[conn] * want >= 0
            vdiff = np.abs(np.asarray(spec.exact(side)(corners), dtype=float) - uh_elem)
            d = np.asarray(spec.grad(side)(corners), dtype=float) - grad_h[:, None, :]
            diff_max = np.max(vdiff[vmask], initial=np.max(np.abs(diff), initial=diff_max))
            gdiff_max = np.max((d[..., 0] ** 2 + d[..., 1] ** 2)[vmask],
                               initial=np.max(gdiff_sq, initial=gdiff_max))
        einf = np.maximum(einf, diff_max)
        efluxinf = np.maximum(efluxinf, rho * np.sqrt(gdiff_max))
        e0_sq[side] = float(e0_int.total())
        grad_sq = grad_int.total()
        eflux_sq[side] = float(rho * rho * grad_sq)
        esqrt_sq += float(rho * grad_sq)

    vnorm_sq, vanorm_sq = _energy_sq(spec, u_h, esqrt_sq)
    return ErrorReport(
        level=mesh.level,
        h=mesh.h,
        e0=float(np.sqrt(e0_sq["minus"] + e0_sq["plus"])),
        einf=float(einf),
        eflux=float(np.sqrt(eflux_sq["minus"] + eflux_sq["plus"])),
        efluxinf=float(efluxinf),
        esqrt=float(np.sqrt(esqrt_sq)),
        vnorm=float(np.sqrt(vnorm_sq)),
        vanorm=float(np.sqrt(vanorm_sq)),
        e0_minus=float(np.sqrt(e0_sq["minus"])),
        e0_plus=float(np.sqrt(e0_sq["plus"])),
        eflux_minus=float(np.sqrt(eflux_sq["minus"])),
        eflux_plus=float(np.sqrt(eflux_sq["plus"])),
    )


def _grad_error_sq(spec: ProblemSpec, side: str, grad_h: np.ndarray,
                   pts: np.ndarray) -> np.ndarray:
    """|grad u - grad u_h|^2 at the points ``pts`` of a side, where u_h has
    the gradient of the same row of ``grad_h``."""
    d = np.asarray(spec.grad(side)(pts), dtype=float) - grad_h
    # the sum along axis 1 of the squares, several times faster
    return d[:, 0] ** 2 + d[:, 1] ** 2


def _energy_sq(spec: ProblemSpec, u_h: FieldPair, esqrt_sq: float) -> tuple[float, float]:
    """The squared energy norm of u - u_h and the squared augmented one,
    from ``esqrt_sq``, the squared ``||sqrt(rho) grad(u - u_h)||``.  The
    interface penalty (the jump misfit weighted by rho_- / h) and the ghost
    terms are added to it, in that order, and the interface flux term (the
    minus-side normal flux error weighted by rho_- h) to their sum; both
    interface terms use the two-point chord rule, gathered by ``_cut_blocks``."""
    layout = u_h.layout
    mesh, topo = layout.mesh, layout.topo
    pen_sq = flux_sq = 0.0
    if topo.n_cut:
        conn, _, weights, lam, _, _, points = _cut_blocks(layout)
        u_minus = u_h.minus[layout.node_dof_minus[conn]]
        jump_h = (np.einsum("kqi,ki->kq", lam, u_h.plus[layout.node_dof_plus[conn]])
                  - np.einsum("kqi,ki->kq", lam, u_minus))
        alpha = (np.asarray(spec.jump_value(points), dtype=float)
                 if spec.jump_value is not None else 0.0)
        jd = alpha - jump_h
        h_t = mesh.h_elem
        pen_sq = float(spec.rho_minus / h_t * np.sum(weights * jd * jd))

        gh_minus = np.einsum("ki,kid->kd", u_minus, mesh.grads(topo.cut_ids))
        gex = np.asarray(spec.grad_minus(points), dtype=float)
        fd = np.sum((gex - gh_minus[:, None]) * topo.chord_normal[:, None], axis=2)
        flux_sq = float(spec.rho_minus * h_t * np.sum(weights * fd * fd))
    vnorm_sq = esqrt_sq + pen_sq + _ghost_error_sq(spec, u_h)
    return vnorm_sq, vnorm_sq + flux_sq


def _ghost_error_sq(spec: ProblemSpec, u_h: FieldPair) -> float:
    """Ghost jump terms of the energy norm; the exact solution is smooth

    on each side, so only the discrete field contributes.
    """
    layout = u_h.layout
    mesh, topo = layout.mesh, layout.topo
    total = 0.0
    for side, edges in (("minus", topo.ghost_minus), ("plus", topo.ghost_plus)):
        if not edges.size:
            continue
        coeffs = u_h.side(side)
        dofmap = layout.node_dof(side)
        e1, e2, elen, ne = edge_frame(mesh, edges)
        g1 = np.einsum("ki,kid->kd", coeffs[dofmap[mesh.elements(e1)]], mesh.grads(e1))
        g2 = np.einsum("ki,kid->kd", coeffs[dofmap[mesh.elements(e2)]], mesh.grads(e2))
        jmp = np.sum((g1 - g2) * ne, axis=1)
        total += float(spec.rho(side) * np.sum(elen ** 2 * jmp ** 2))
    return total


def eoc(errors, hs) -> np.ndarray:
    """Estimated orders of convergence between consecutive refinement levels.

    Entry k compares level k+1 against level k; undefined ratios
    (nonpositive or nonfinite errors or mesh sizes, or equal mesh sizes)
    yield NaN markers.
    """
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if errors.shape != hs.shape or errors.ndim != 1:
        raise ValueError("errors and hs must be 1d sequences of equal length")
    if errors.shape[0] < 2:
        return np.zeros(0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(errors[1:] / errors[:-1]) / np.log(hs[1:] / hs[:-1])
    bad = ~(np.isfinite(errors) & np.isfinite(hs) & (errors > 0.0) & (hs > 0.0))
    out[bad[1:] | bad[:-1] | (hs[1:] == hs[:-1])] = np.nan
    return out
