"""Classification of elements against the interface and cut quadrature.

Each element crossed by the interface is split along the chord between
its two interface points (edge roots or on-interface vertices) into a
polygonal minus part and plus part.  Quadrature uses the three-point
mid-edge rule on sub-triangles (exact for quadratics) and a two-point
Gauss rule on the chord.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .levelset import CoarseMeshError, GeometryError, LevelSet, MULTI_ROOT_SAMPLES, _bisect
from .mesh import Mesh

log = logging.getLogger(__name__)

__all__ = [
    "CutTopology",
    "QuadratureRule",
    "classify",
    "dump_cut_cells",
]

DEGENERATE_CHORD_FACTOR = 1e-14
GAUSS2_OFFSET = 0.5 / np.sqrt(3.0)


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray   # (k, 2)
    weights: np.ndarray  # (k,)


class SideQuadrature(NamedTuple):
    """Flattened volume rule over one side's physical subdomain."""

    elems: np.ndarray    # (N,) owning element per point
    points: np.ndarray   # (N, 2)
    weights: np.ndarray  # (N,)


class InterfaceQuadrature(NamedTuple):
    """Flattened two-point chord rule over all cut elements."""

    elems: np.ndarray    # (2*ncut,)
    points: np.ndarray   # (2*ncut, 2)
    weights: np.ndarray  # (2*ncut,)
    normals: np.ndarray  # (2*ncut, 2) unit normal out of the minus side


@dataclass(frozen=True)
class CutTopology:
    """Element/edge classification of a mesh against a level set."""

    levelset: LevelSet
    node_sign: np.ndarray        # int8, 0 for nodes snapped onto the interface
    elem_side: np.ndarray        # int8 per element: -1 minus, +1 plus, 0 cut
    area_minus: np.ndarray       # (n_elems,) chord-model area of T cap Omega^-
    area_plus: np.ndarray
    cut_ids: np.ndarray          # sorted ids of cut elements
    cut_index: np.ndarray        # (n_elems,) position in cut_ids or -1
    chord_p: np.ndarray          # (ncut, 2)
    chord_q: np.ndarray          # (ncut, 2)
    chord_len: np.ndarray        # (ncut,)
    chord_normal: np.ndarray     # (ncut, 2) unit, out of the minus side
    poly_minus: tuple            # ncut polygons, each (k, 2), CCW
    poly_plus: tuple
    quad_minus: SideQuadrature
    quad_plus: SideQuadrature
    iface: InterfaceQuadrature
    ghost_minus: np.ndarray      # edge ids stabilising the minus field
    ghost_plus: np.ndarray
    ambiguous_elements: np.ndarray

    @property
    def n_cut(self) -> int:
        return self.cut_ids.shape[0]

    def elements_minus(self) -> np.ndarray:
        return np.flatnonzero(self.elem_side <= 0)

    def elements_plus(self) -> np.ndarray:
        return np.flatnonzero(self.elem_side >= 0)

    def in_side(self, side: str) -> np.ndarray:
        _check_side(side)
        return self.elem_side <= 0 if side == "minus" else self.elem_side >= 0

    def area(self, side: str) -> np.ndarray:
        _check_side(side)
        return self.area_minus if side == "minus" else self.area_plus


def _check_side(side: str) -> None:
    if side not in ("minus", "plus"):
        raise ValueError(f"side must be 'minus' or 'plus', got {side!r}")


def classify(mesh: Mesh, ls: LevelSet) -> CutTopology:
    """Classify all elements of the mesh against the level set."""
    psi = np.asarray(ls.side_sign(mesh.nodes), dtype=float)
    snap = 1e-12 * mesh.h
    sign = np.where(np.abs(psi) <= snap, 0, np.sign(psi)).astype(np.int8)

    esign = sign[mesh.elements]
    has_neg = np.any(esign < 0, axis=1)
    has_pos = np.any(esign > 0, axis=1)
    if np.any(~has_neg & ~has_pos):
        bad = int(np.flatnonzero(~has_neg & ~has_pos)[0])
        raise GeometryError(f"element {bad} has all vertices on the interface")

    multi_edge = _scan_edges(mesh, ls)
    if np.any(multi_edge) and ls.simple:
        e = int(np.flatnonzero(multi_edge)[0])
        a, b = mesh.nodes[mesh.edges[e]]
        raise CoarseMeshError(
            f"h too coarse for this interface: multiple crossings on edge "
            f"{a.tolist()} -> {b.tolist()}"
        )

    cut_mask = has_neg & has_pos
    roots, flagged_edges = _edge_roots(mesh, ls, psi, sign, multi_edge)

    elem_side = np.where(has_pos, 1, -1).astype(np.int8)
    elem_side[cut_mask] = 0
    area_minus = np.where(elem_side < 0, mesh.areas, 0.0)
    area_plus = np.where(elem_side > 0, mesh.areas, 0.0)

    cut_ids = []
    chords = []
    polys_m = []
    polys_p = []
    ambiguous = set()
    h_elem = mesh.h_elem
    for t in np.flatnonzero(cut_mask):
        coords = mesh.nodes[mesh.elements[t]]
        local_edges = mesh.elem_edges[t].tolist()
        if not flagged_edges.isdisjoint(local_edges):
            ambiguous.add(int(t))
        split = _split_element(coords, esign[t], [roots.get(e) for e in local_edges])
        if split is None:
            raise GeometryError(f"element {int(t)}: could not locate two interface points")
        p, q, pm, pp, normal = split
        if np.hypot(*(q - p)) < DEGENERATE_CHORD_FACTOR * h_elem:
            # chord collapsed to a point: treat as uncut, side by sub-area
            am = _polygon_area(pm)
            side = -1 if am >= 0.5 * mesh.areas[t] else 1
            elem_side[t] = side
            area_minus[t] = mesh.areas[t] if side < 0 else 0.0
            area_plus[t] = mesh.areas[t] if side > 0 else 0.0
            log.warning("element %d: degenerate chord, reclassified as uncut (%s)",
                        int(t), "minus" if side < 0 else "plus")
            continue
        cut_ids.append(int(t))
        chords.append((p, q, normal))
        polys_m.append(pm)
        polys_p.append(pp)
        area_minus[t] = _polygon_area(pm)
        area_plus[t] = _polygon_area(pp)

    cut_ids = np.asarray(cut_ids, dtype=np.int64)
    cut_index = np.full(mesh.n_elems, -1, dtype=np.int64)
    cut_index[cut_ids] = np.arange(cut_ids.shape[0])
    is_cut = cut_index >= 0
    ncut = cut_ids.shape[0]
    chord_p = np.array([c[0] for c in chords]).reshape(ncut, 2)
    chord_q = np.array([c[1] for c in chords]).reshape(ncut, 2)
    chord_normal = np.array([c[2] for c in chords]).reshape(ncut, 2)
    chord_len = np.hypot(*(chord_q - chord_p).T)

    quad_minus = _side_quadrature(mesh, elem_side, cut_ids, polys_m, "minus")
    quad_plus = _side_quadrature(mesh, elem_side, cut_ids, polys_p, "plus")
    iface = _interface_quadrature(cut_ids, chord_p, chord_q, chord_len, chord_normal)
    ghost_minus = _ghost_edges(mesh, elem_side, is_cut, "minus")
    ghost_plus = _ghost_edges(mesh, elem_side, is_cut, "plus")

    flagged_ids = np.asarray(sorted(ambiguous), dtype=np.int64)
    if flagged_ids.size:
        log.warning("%d elements flagged as ambiguous near the interface (%s)",
                    flagged_ids.size, ls.name)

    return CutTopology(
        levelset=ls,
        node_sign=sign,
        elem_side=elem_side,
        area_minus=area_minus,
        area_plus=area_plus,
        cut_ids=cut_ids,
        cut_index=cut_index,
        chord_p=chord_p,
        chord_q=chord_q,
        chord_len=chord_len,
        chord_normal=chord_normal,
        poly_minus=tuple(polys_m),
        poly_plus=tuple(polys_p),
        quad_minus=quad_minus,
        quad_plus=quad_plus,
        iface=iface,
        ghost_minus=ghost_minus,
        ghost_plus=ghost_plus,
        ambiguous_elements=flagged_ids,
    )


def _scan_edges(mesh: Mesh, ls: LevelSet) -> np.ndarray:
    """Boolean per edge: more than one sign change along sampled points."""
    a = mesh.nodes[mesh.edges[:, 0]]
    b = mesh.nodes[mesh.edges[:, 1]]
    ts = np.linspace(0.0, 1.0, MULTI_ROOT_SAMPLES + 2)
    pts = a[:, None, :] + ts[None, :, None] * (b - a)[:, None, :]
    vals = ls.value(pts)
    s = np.sign(vals)
    changes = np.sum(s[:, 1:] * s[:, :-1] < 0, axis=1)
    return changes > 1


def _edge_roots(mesh, ls, psi, sign, multi_edge):
    """Interface root per strictly sign-changing edge, keyed by edge id.

    Each edge is bisected from its lower node id to its higher one.
    """
    roots: dict[int, np.ndarray] = {}
    flagged: set[int] = set()
    a_ids, b_ids = mesh.edges.T
    for e in np.flatnonzero(sign[a_ids] * sign[b_ids] < 0).tolist():
        a, b = a_ids[e], b_ids[e]
        pa, pb = mesh.nodes[a], mesh.nodes[b]
        fa, fb = float(psi[a]), float(psi[b])
        if multi_edge[e]:
            roots[e] = _linear_root(pa, pb, fa, fb)
            flagged.add(e)
            continue
        try:
            roots[e] = _bisect(
                lambda t_, pa=pa, pb=pb: float(ls.side_sign(pa + t_ * (pb - pa))),
                0.0, 1.0, fa, fb, pa, pb,
            )
        except GeometryError:
            if ls.simple:
                raise
            roots[e] = _linear_root(pa, pb, fa, fb)
            flagged.add(e)
    return roots, flagged


def _linear_root(pa, pb, fa, fb):
    t = fa / (fa - fb)
    return pa + t * (pb - pa)


def _split_element(coords, signs, local_roots):
    """Split one CCW triangle along its chord.

    Returns (p, q, poly_minus, poly_plus, normal_minus) or None when the
    element does not carry exactly two interface points.  The chord is
    oriented by its traversal inside the CCW minus polygon, so the
    outward normal of the minus side is its clockwise perpendicular.
    """
    poly_m: list[np.ndarray] = []
    poly_p: list[np.ndarray] = []
    iface_m: list[int] = []  # positions of interface points inside poly_m
    iface_pts: list[np.ndarray] = []
    for i in range(3):
        v = coords[i]
        s = int(signs[i])
        if s <= 0:
            if s == 0:
                iface_m.append(len(poly_m))
                iface_pts.append(v)
            poly_m.append(v)
        if s >= 0:
            poly_p.append(v)
        r = local_roots[i]
        if r is not None:
            iface_m.append(len(poly_m))
            iface_pts.append(r)
            poly_m.append(r)
            poly_p.append(r)
    if len(iface_pts) != 2:
        return None
    k = len(poly_m)
    i1, i2 = iface_m
    if (i1 + 1) % k == i2:
        p, q = poly_m[i1], poly_m[i2]
    elif (i2 + 1) % k == i1:
        p, q = poly_m[i2], poly_m[i1]
    else:
        return None
    d = q - p
    length = np.hypot(*d)
    if length > 0.0:
        normal = np.array([d[1], -d[0]]) / length
    else:
        normal = np.array([1.0, 0.0])
    return p, q, np.asarray(poly_m), np.asarray(poly_p), normal


def _polygon_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _midedge_rule(tri: np.ndarray, area: float) -> tuple[np.ndarray, np.ndarray]:
    pts = 0.5 * (tri + np.roll(tri, -1, axis=0))
    w = np.full(3, area / 3.0)
    return pts, w


def polygon_rule(poly: np.ndarray) -> QuadratureRule:
    """Mid-edge rule on a fan triangulation of a convex CCW polygon."""
    pts = []
    wts = []
    for i in range(1, poly.shape[0] - 1):
        tri = np.array([poly[0], poly[i], poly[i + 1]])
        a = _polygon_area(tri)
        if a <= 0.0:
            continue  # degenerate sliver from a snapped vertex
        p, w = _midedge_rule(tri, a)
        pts.append(p)
        wts.append(w)
    if not pts:
        return QuadratureRule(np.zeros((0, 2)), np.zeros(0))
    return QuadratureRule(np.vstack(pts), np.concatenate(wts))


def _side_quadrature(mesh, elem_side, cut_ids, polys, side) -> SideQuadrature:
    want = -1 if side == "minus" else 1
    full = np.flatnonzero(elem_side == want)
    coords = mesh.nodes[mesh.elements[full]]
    mids = 0.5 * (coords + np.roll(coords, -1, axis=1))
    pts = [mids.reshape(-1, 2)]
    wts = [np.repeat(mesh.areas[full] / 3.0, 3)]
    owners = [np.repeat(full, 3)]
    for t, poly in zip(cut_ids, polys):
        rule = polygon_rule(poly)
        if rule.weights.size:
            pts.append(rule.points)
            wts.append(rule.weights)
            owners.append(np.full(rule.weights.size, t, dtype=np.int64))
    elems = np.concatenate(owners) if owners else np.zeros(0, dtype=np.int64)
    points = np.vstack(pts) if pts else np.zeros((0, 2))
    weights = np.concatenate(wts) if wts else np.zeros(0)
    order = np.argsort(elems, kind="stable")
    return SideQuadrature(elems[order], points[order], weights[order])


def _interface_quadrature(cut_ids, chord_p, chord_q, chord_len, chord_normal):
    d = chord_q - chord_p
    mid = 0.5 * (chord_p + chord_q)
    pts = np.empty((2 * cut_ids.shape[0], 2))
    pts[0::2] = mid - GAUSS2_OFFSET * d
    pts[1::2] = mid + GAUSS2_OFFSET * d
    wts = np.repeat(0.5 * chord_len, 2)
    elems = np.repeat(cut_ids, 2)
    normals = np.repeat(chord_normal, 2, axis=0)
    return InterfaceQuadrature(elems, pts, wts, normals)


def _ghost_edges(mesh, elem_side, is_cut, side) -> np.ndarray:
    e1 = mesh.edge_elems[:, 0]
    e2 = mesh.edge_elems[:, 1]
    interior = e2 >= 0
    if side == "minus":
        in_side = elem_side <= 0
    else:
        in_side = elem_side >= 0
    both = interior & in_side[e1] & in_side[np.where(interior, e2, 0)]
    touched = is_cut[e1] | is_cut[np.where(interior, e2, 0)]
    return np.flatnonzero(both & touched)


def dump_cut_cells(mesh: Mesh, topo: CutTopology, path) -> None:
    """CSV of cut elements: chord endpoints and sub-areas."""
    with open(path, "w") as fh:
        fh.write("elem,px,py,qx,qy,area_minus,area_plus\n")
        for k, t in enumerate(topo.cut_ids):
            p = topo.chord_p[k]
            q = topo.chord_q[k]
            fh.write(
                f"{int(t)},{p[0]:.17g},{p[1]:.17g},{q[0]:.17g},{q[1]:.17g},"
                f"{topo.area_minus[t]:.17g},{topo.area_plus[t]:.17g}\n"
            )
