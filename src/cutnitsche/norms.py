"""Error measures against a manufactured solution.

All integrals reuse the cut quadrature of the topology, so the
reported quantities are consistent with the assembled forms: L2 and
flux errors over the physical subdomains, sup-norm samples at
quadrature points and vertices, and the stabilised energy norms
including interface and ghost jump terms.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .mesh import barycentric_many, blocks, edge_frame
from .problems import ProblemSpec
from .space import FieldPair

__all__ = ["ErrorReport", "error_report", "eoc"]


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
    on the mesh, topology and layout ``u_h`` lives on.  Quadrature points
    and vertex samples go ``BLOCK`` at a time.  The per-point integrands
    land in full-length vectors, each summed once, so the sums do not
    depend on the block size; the sup norms are ``np.maximum`` of block
    maxima, so a NaN in ``u_h`` makes them NaN.
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
        # per-point integrands, filled BLOCK points at a time and summed
        # once over the whole vector, as a whole-array pass sums them
        e0_int = np.empty(topo.n_points(side))
        grad_int = np.empty(topo.n_points(side))
        # np.maximum, like one np.max over the side, keeps a NaN
        diff_max = gdiff_max = 0.0
        for span, elems, pts, w in topo.quadrature_blocks(side):
            conn = mesh.elements(elems)
            uh = coeffs[dofmap[conn]]
            lam = barycentric_many(np.take(mesh.nodes, conn, axis=0), pts)
            diff = np.asarray(spec.exact(side)(pts), dtype=float) - np.einsum("ki,ki->k", lam, uh)
            e0_int[span] = w * diff * diff
            grad_h = np.einsum("ki,kid->kd", uh, mesh.grads(elems))
            grad = np.asarray(spec.grad(side)(pts), dtype=float)
            gdiff_sq = np.sum((grad - grad_h) ** 2, axis=1)
            grad_int[span] = w * gdiff_sq
            diff_max = np.maximum(diff_max, np.max(np.abs(diff), initial=0.0))
            gdiff_max = np.maximum(gdiff_max, np.max(gdiff_sq, initial=0.0))
        einf = np.maximum(einf, diff_max)
        efluxinf = np.maximum(efluxinf, rho * np.sqrt(gdiff_max))
        e0_sq[side] = float(np.sum(e0_int))
        eflux_sq[side] = float(rho * rho * np.sum(grad_int))
        esqrt_sq += float(rho * np.sum(grad_int))

        # vertex samples restricted to the closed physical side
        want = -1 if side == "minus" else 1
        elems = np.flatnonzero(topo.in_side(side))
        diff_max = gd_max = 0.0
        for block in blocks(elems.size):
            ids = elems[block]
            conn = mesh.elements(ids)
            vmask = topo.node_sign[conn] * want >= 0
            if not np.any(vmask):
                continue
            coords = np.take(mesh.nodes, conn, axis=0)
            uh = coeffs[dofmap[conn]]
            uex = np.asarray(spec.exact(side)(coords), dtype=float)
            diff_max = np.maximum(diff_max, np.max(np.abs(uex - uh)[vmask]))
            gex = np.asarray(spec.grad(side)(coords), dtype=float)
            gh = np.einsum("ki,kid->kd", uh, mesh.grads(ids))
            gd = np.sqrt(np.sum((gex - gh[:, None, :]) ** 2, axis=2))
            gd_max = np.maximum(gd_max, np.max(gd[vmask]))
        einf = np.maximum(einf, diff_max)
        efluxinf = np.maximum(efluxinf, rho * gd_max)

    pen_sq = 0.0
    flux_sq = 0.0
    ghost_sq = _ghost_error_sq(spec, u_h)
    if topo.n_cut:
        points, weights = topo.interface_rule()
        points, weights = points.reshape(-1, 2), weights.reshape(-1)
        elems = np.repeat(topo.cut_ids, 2)
        conn = mesh.elements(elems)
        lam = barycentric_many(np.take(mesh.nodes, conn, axis=0), points)
        jump_h = (np.einsum("ki,ki->k", lam, u_h.plus[layout.node_dof_plus[conn]])
                  - np.einsum("ki,ki->k", lam, u_h.minus[layout.node_dof_minus[conn]]))
        alpha = (np.asarray(spec.jump_value(points), dtype=float)
                 if spec.jump_value is not None else 0.0)
        jd = alpha - jump_h
        h_t = mesh.h_elem
        pen_sq = float(spec.rho_minus / h_t * np.sum(weights * jd * jd))

        gh_minus = np.einsum("ki,kid->kd", u_h.minus[layout.node_dof_minus[conn]],
                             mesh.grads(elems))
        gex = np.asarray(spec.grad_minus(points), dtype=float)
        fd = np.sum((gex - gh_minus) * np.repeat(topo.chord_normal, 2, axis=0), axis=1)
        flux_sq = float(spec.rho_minus * h_t * np.sum(weights * fd * fd))

    vnorm_sq = esqrt_sq + pen_sq + ghost_sq
    return ErrorReport(
        level=mesh.level,
        h=mesh.h,
        e0=float(np.sqrt(e0_sq["minus"] + e0_sq["plus"])),
        einf=float(einf),
        eflux=float(np.sqrt(eflux_sq["minus"] + eflux_sq["plus"])),
        efluxinf=float(efluxinf),
        esqrt=float(np.sqrt(esqrt_sq)),
        vnorm=float(np.sqrt(vnorm_sq)),
        vanorm=float(np.sqrt(vnorm_sq + flux_sq)),
        e0_minus=float(np.sqrt(e0_sq["minus"])),
        e0_plus=float(np.sqrt(e0_sq["plus"])),
        eflux_minus=float(np.sqrt(eflux_sq["minus"])),
        eflux_plus=float(np.sqrt(eflux_sq["plus"])),
    )


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
    (zero or nonfinite errors) yield NaN markers.
    """
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if errors.shape != hs.shape or errors.ndim != 1:
        raise ValueError("errors and hs must be 1d sequences of equal length")
    if errors.shape[0] < 2:
        return np.zeros(0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(errors[1:] / errors[:-1]) / np.log(hs[1:] / hs[:-1])
    bad = ~np.isfinite(errors[1:]) | ~np.isfinite(errors[:-1]) | (errors[1:] <= 0.0) | (errors[:-1] <= 0.0)
    out[bad] = np.nan
    return out
