"""Classification of elements against the interface and cut quadrature.

Each element crossed by the interface is split along the chord between
its two interface points (edge roots or on-interface vertices) into a
polygonal minus part and plus part.  Quadrature uses the three-point
mid-edge rule on a fan of sub-triangles (exact for quadratics) and a
two-point Gauss rule on the chord.  Roots, splits and rules are computed
for the crossing edges and cut elements at once.  Only the cut elements
are stored: the area and the rule of an uncut element are closed forms of
its id, computed for the ids a pass asks for.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .levelset import CoarseMeshError, GeometryError, LevelSet
from .mesh import Mesh, _index, blocks, elem_any

log = logging.getLogger(__name__)

__all__ = [
    "CutTopology",
    "classify",
]

ROOT_PHI_TOL = 1e-13
ROOT_WIDTH_TOL = 1e-14
BISECTION_STEPS = 200
MULTI_ROOT_SAMPLES = 32
DEGENERATE_CHORD_FACTOR = 1e-14
GAUSS2_OFFSET = 0.5 / np.sqrt(3.0)


class CutRule(NamedTuple):
    """One side's part of the cut elements: its area and its fan rule,
    the points of cut element ``k`` at rows ``ptr[k]:ptr[k+1]``."""

    area: np.ndarray     # (ncut,) chord-model area of T cap Omega^side
    ptr: np.ndarray      # (ncut + 1,)
    points: np.ndarray   # (N, 2)
    weights: np.ndarray  # (N,)


@dataclass(frozen=True)
class CutTopology:
    """Element/edge classification of a mesh against a level set.

    Per element only the side is stored; the side area and side rule of
    the elements are accessors (``area``, ``quadrature``), which take
    element ids as the ``Mesh`` accessors do.  The chord rule of the cut
    elements is a closed form of their chords (``interface_rule``).
    """

    levelset: LevelSet
    mesh: Mesh
    node_sign: np.ndarray        # int8, 0 for nodes snapped onto the interface
    elem_side: np.ndarray        # int8 per element: -1 minus, +1 plus, 0 cut
    cut_ids: np.ndarray          # sorted ids of cut elements
    chord_p: np.ndarray          # (ncut, 2)
    chord_q: np.ndarray          # (ncut, 2)
    chord_len: np.ndarray        # (ncut,)
    chord_normal: np.ndarray     # (ncut, 2) unit, out of the minus side
    cut_minus: CutRule
    cut_plus: CutRule
    ghost_minus: np.ndarray      # edge ids stabilising the minus field
    ghost_plus: np.ndarray
    ambiguous_elements: np.ndarray
    degenerate_elements: np.ndarray  # chord collapsed: reclassified by sub-area

    @property
    def n_cut(self) -> int:
        return self.cut_ids.shape[0]

    def in_side(self, side: str, ids=slice(None)) -> np.ndarray:
        """Whether the elements (all by default) carry the side."""
        want, _ = self._side(side)
        return self.elem_side[ids] * want >= 0

    def area(self, side: str, ids) -> np.ndarray:
        """Chord-model area of T cap Omega^side: the element's area on its
        own side, 0 on the other, the stored part if cut: (...,) float64."""
        want, cut_rule = self._side(side)
        t, shape = _index(ids, self.mesh.n_elems)
        s = self.elem_side[t]
        out = np.where(s == want, self.mesh.areas(t), 0.0)
        cut = s == 0
        out[cut] = cut_rule.area[np.searchsorted(self.cut_ids, t[cut])]
        return out.reshape(shape)

    def quadrature(self, side: str, ids):
        """Side rule on the elements, as CSR ``(ptr, points, weights)`` over
        the flattened ids: element ``ids[i]``'s points are rows
        ``ptr[i]:ptr[i+1]``.  An uncut element of the side gets the mid-edge
        rule on its triangle, weight area/3, a cut one the fan rule on its
        part, an element of the other side no point."""
        want, cut_rule = self._side(side)
        t, _ = _index(ids, self.mesh.n_elems)
        s = self.elem_side[t]
        full = s == want
        counts = 3 * full
        cut = np.flatnonzero(s == 0)
        k = np.searchsorted(self.cut_ids, t[cut])
        counts[cut] = cut_rule.ptr[k + 1] - cut_rule.ptr[k]
        ptr = np.zeros(t.size + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        uncut = t[full]
        # np.take gathers rows several times faster than fancy indexing
        coords = np.take(self.mesh.nodes, self.mesh.elements(uncut), axis=0)
        mids = np.take(coords, [1, 2, 0], axis=1)
        mids += coords
        mids *= 0.5
        thirds = self.mesh.areas(uncut) / 3.0
        if not cut.size:   # the points of the uncut elements, one after another
            return ptr, mids.reshape(-1, 2), np.repeat(thirds, 3)
        points = np.empty((ptr[-1], 2))
        weights = np.empty(ptr[-1])
        at = ptr[:-1][full, None] + np.arange(3)
        points[at], weights[at] = mids, thirds[:, None]
        src = _ranges(cut_rule.ptr[k], counts[cut])
        dst = _ranges(ptr[cut], counts[cut])
        points[dst], weights[dst] = cut_rule.points[src], cut_rule.weights[src]
        return ptr, points, weights

    def interface_rule(self):
        """Two-point Gauss rule on each chord: points (ncut, 2, 2) and
        weights (ncut, 2), the points of cut element ``k`` in row ``k``."""
        d = self.chord_q - self.chord_p
        mid = 0.5 * (self.chord_p + self.chord_q)
        points = np.stack([mid - GAUSS2_OFFSET * d, mid + GAUSS2_OFFSET * d], axis=1)
        return points, np.repeat(0.5 * self.chord_len, 2).reshape(-1, 2)

    def n_points(self, side: str) -> int:
        """Number of points of the side rule over the whole mesh."""
        want, cut_rule = self._side(side)
        return 3 * int(np.count_nonzero(self.elem_side == want)) + int(cut_rule.ptr[-1])

    def quadrature_blocks(self, side: str, width: int = 3):
        """The side rule over the whole mesh in increasing element order,
        ``BLOCK // width`` elements at a time: per block that holds elements
        of the side, all of them, the number of points of each (0 for a cut
        part whose fan holds none), the points and the weights.  A
        per-element quantity reaches the points by
        ``np.repeat(values, counts, axis=0)``."""
        for block in blocks(self.mesh.n_elems, width):
            elems = block.start + np.flatnonzero(self.in_side(side, block))
            if elems.size:
                ptr, points, weights = self.quadrature(side, elems)
                yield elems, np.diff(ptr), points, weights

    def _side(self, side: str):
        if side not in ("minus", "plus"):
            raise ValueError(f"side must be 'minus' or 'plus', got {side!r}")
        return (-1, self.cut_minus) if side == "minus" else (1, self.cut_plus)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + c) over the pairs (s, c)."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(counts.sum())


def classify(mesh: Mesh, ls: LevelSet) -> CutTopology:
    """Classify all elements of the mesh against the level set."""
    psi = np.asarray(ls.side_sign(mesh.nodes), dtype=float)
    if not np.all(np.isfinite(psi)):
        a = int(np.argmin(np.isfinite(psi)))
        raise GeometryError(f"level set is {psi[a]} at node {a} {mesh.nodes[a].tolist()}")
    snap = 1e-12 * mesh.h
    sign = np.where(np.abs(psi) <= snap, 0, np.sign(psi)).astype(np.int8)

    grid = sign.reshape(mesh.n_cells + 1, -1)
    has_neg = elem_any(grid < 0)
    has_pos = elem_any(grid > 0)
    if np.any(~has_neg & ~has_pos):
        bad = int(np.flatnonzero(~has_neg & ~has_pos)[0])
        raise GeometryError(f"element {bad} has all vertices on the interface")

    multi = _scan_edges(mesh, ls, psi)
    if multi.size and ls.simple:
        a, b = mesh.nodes[mesh.edges(multi[0])]
        raise CoarseMeshError(
            f"h too coarse for this interface: multiple crossings on edge "
            f"{a.tolist()} -> {b.tolist()}"
        )

    # an edge whose end signs are strictly opposite is an edge of a candidate;
    # local edge i joins vertices i and i+1
    cand = np.flatnonzero(has_neg & has_pos)
    local = mesh.elem_edges(cand)
    conn = mesh.elements(cand)
    signs = sign[conn]
    has_root = signs * np.roll(signs, -1, axis=1) < 0
    cross_ids = np.unique(local[has_root])
    roots, flagged = _edge_roots(mesh, ls, psi, cross_ids, multi)
    ambiguous = cand[np.isin(local, flagged).any(axis=1)]
    local_roots = np.full(local.shape + (2,), np.nan)
    local_roots[has_root] = roots[np.searchsorted(cross_ids, local[has_root])]
    p, q, poly_m, k_m, poly_p, k_p = _split(
        np.take(mesh.nodes, conn, axis=0), signs, has_root, local_roots)
    sub_minus = _polygon_area(poly_m, k_m)
    chord_len = np.hypot(*(q - p).T)

    # a chord collapsed to a point: treat as uncut, side by sub-area
    degenerate = chord_len < DEGENERATE_CHORD_FACTOR * mesh.h_elem
    gone = cand[degenerate]
    side = np.where(sub_minus[degenerate] >= 0.5 * mesh.areas(gone), -1, 1)
    for t, s in zip(gone.tolist(), side.tolist()):
        log.warning("element %d: degenerate chord, reclassified as uncut (%s)",
                    t, "minus" if s < 0 else "plus")

    keep = ~degenerate
    cut_ids = cand[keep]
    elem_side = np.where(has_pos, np.int8(1), np.int8(-1))
    elem_side[cut_ids] = 0
    elem_side[gone] = side
    chord_p, chord_q, chord_len = p[keep], q[keep], chord_len[keep]
    d = chord_q - chord_p
    chord_normal = np.column_stack([d[:, 1], -d[:, 0]]) / chord_len[:, None]

    cut_minus = _fan_rule(sub_minus[keep], poly_m[keep], k_m[keep])
    cut_plus = _fan_rule(_polygon_area(poly_p[keep], k_p[keep]), poly_p[keep], k_p[keep])
    ghost_minus, ghost_plus = _ghost_edges(mesh, elem_side, cut_ids)

    if ambiguous.size:
        log.warning("%d elements flagged as ambiguous near the interface (%s)",
                    ambiguous.size, ls.name)

    return CutTopology(
        levelset=ls,
        mesh=mesh,
        node_sign=sign,
        elem_side=elem_side,
        cut_ids=cut_ids,
        chord_p=chord_p,
        chord_q=chord_q,
        chord_len=chord_len,
        chord_normal=chord_normal,
        cut_minus=cut_minus,
        cut_plus=cut_plus,
        ghost_minus=ghost_minus,
        ghost_plus=ghost_plus,
        ambiguous_elements=ambiguous,
        degenerate_elements=gone,
    )


def _scan_edges(mesh: Mesh, ls: LevelSet, psi: np.ndarray) -> np.ndarray:
    """Ascending ids of the edges with more than one sign change along
    sampled points.

    Only the band of edges that can hold a root is sampled, read from
    the ends of ``BLOCK // 2`` edges at a time.  If ``|grad phi| <= L``
    on an edge a -> b, it holds a root only when ``|phi(a)| + |phi(b)|
    <= L |b - a|``, and no edge is longer than ``h_elem`` beyond
    rounding; the band admits a sum up to ``2 L h_elem``.  Along an edge
    it admits beyond those, ``|phi|`` stays above ``L |b - a| / 2``, so
    its samples cannot change sign twice.  L is ``ls.grad_bound`` within
    ``h_elem``: a float bound serves every edge, a per-node one gives
    each edge the smaller of its ends', since the disc of radius
    ``h_elem`` about either end holds the edge.  Without a bound
    (``ls.grad_bound`` None) the band is every edge.  ``psi`` is phi up
    to sign at the nodes.  The band is sampled ``BLOCK //
    (MULTI_ROOT_SAMPLES + 2)`` edges at a time, so no temporary holds
    more than about BLOCK edges or samples.
    """
    bound = np.inf if ls.grad_bound is None else ls.grad_bound(mesh.nodes, mesh.h_elem)
    if not np.all(bound > 0.0):   # a NaN fails too
        raise ValueError(f"gradient bound of {ls.name} must be > 0 (inf where none "
                         f"holds), got {np.min(bound)}")
    per_node = np.ndim(bound) > 0
    ts = np.linspace(0.0, 1.0, MULTI_ROOT_SAMPLES + 2)
    multi = [np.empty(0, dtype=np.int64)]
    for chunk in blocks(mesh.n_edges, 2):
        ends = mesh.edges(chunk).T
        lower, upper = np.abs(np.take(psi, ends))
        near = np.minimum(*np.take(bound, ends)) if per_node else bound
        band = chunk.start + np.flatnonzero(lower + upper <= 2.0 * mesh.h_elem * near)
        del ends, lower, upper, near   # not held while the band is sampled
        for sub in blocks(band.size, ts.size):
            ids = band[sub]
            a, b = np.take(mesh.nodes, mesh.edges(ids).T, axis=0)
            pts = a[:, None, :] + ts[None, :, None] * (b - a)[:, None, :]
            s = np.sign(ls.value(pts))
            multi.append(ids[np.sum(s[:, 1:] * s[:, :-1] < 0, axis=1) > 1])
    return np.concatenate(multi)


def _edge_roots(mesh, ls, psi, cross_ids, multi):
    """The interface point of each crossing edge (``cross_ids``, signs
    strictly change, ascending), and the ascending ids of those whose
    point is the root of the linear interpolant.

    Crossing edges are bisected from their lower node id to their higher
    one.  Edges with several crossings (``multi``), and on a non-simple
    level set those whose bisection fails, fall back to the linear root
    and are flagged.
    """
    roots = np.empty((cross_ids.size, 2))
    single = ~np.isin(cross_ids, multi)
    ids = cross_ids[single]
    ends = mesh.edges(ids).T
    pa, pb = np.take(mesh.nodes, ends, axis=0)
    t = _bisect(ls, pa, pb, np.take(psi, ends[0]))
    roots[single] = pa + t[:, None] * (pb - pa)

    flagged = np.union1d(cross_ids[~single], ids[np.isnan(t)])
    ends = mesh.edges(flagged).T
    pa, pb = np.take(mesh.nodes, ends, axis=0)
    fa, fb = np.take(psi, ends)
    roots[np.searchsorted(cross_ids, flagged)] = pa + (fa / (fa - fb))[:, None] * (pb - pa)
    return roots, flagged


def _bisect(ls, pa, pb, fa):
    """Root parameter of side_sign on each segment pa -> pb, NaN where
    bisection fails; raises on the first failure when ``ls`` is simple.

    Every segment follows the scalar rules: stop at an exact zero or once
    |phi| and the bracket are both within tolerance, give up bisecting
    when the bracket is below width and machine precision, then accept
    the midpoint only if |phi| is within tolerance.
    """
    d = pb - pa
    scale = np.hypot(d[:, 0], d[:, 1])
    width_tol = ROOT_WIDTH_TOL / np.maximum(scale, 1e-300)
    eps = np.finfo(float).eps
    ta = np.zeros(fa.shape[0])
    tb = np.ones(fa.shape[0])
    fa = fa.copy()
    t = np.full(fa.shape[0], np.nan)

    def side_sign(i, tm):
        return np.asarray(ls.side_sign(pa[i] + tm[:, None] * d[i]), dtype=float)

    # every segment steps in lockstep; one that stops keeps its bracket
    live = np.ones(fa.shape[0], dtype=bool)
    for _ in range(BISECTION_STEPS):
        if not live.any():
            break
        tm = 0.5 * (ta + tb)
        fm = side_sign(slice(None), tm)
        hit = live & ((fm == 0.0) | ((np.abs(fm) <= ROOT_PHI_TOL)
                                     & ((tb - ta) * scale <= ROOT_WIDTH_TOL)))
        np.copyto(t, tm, where=hit)
        live &= ~hit
        lower = fa * fm < 0.0
        np.copyto(tb, tm, where=live & lower)
        upper = live & ~lower
        np.copyto(ta, tm, where=upper)
        np.copyto(fa, fm, where=upper)
        width = tb - ta
        live &= (width > width_tol) | (width > eps)

    rest = np.flatnonzero(np.isnan(t))
    tm = 0.5 * (ta[rest] + tb[rest])
    fm = side_sign(rest, tm)
    ok = np.abs(fm) <= ROOT_PHI_TOL
    t[rest[ok]] = tm[ok]
    if ls.simple and not np.all(ok):
        i = int(np.argmin(ok))
        e = rest[i]
        raise GeometryError(
            f"bisection did not converge on edge {pa[e].tolist()} -> {pb[e].tolist()}: "
            f"bracket width {(tb[e] - ta[e]) * scale[e]:.3e}, |phi| = {abs(fm[i]):.3e}"
        )
    return t


def _split(coords, signs, has_root, roots):
    """Split CCW triangles along their chords.

    The boundary of each triangle is walked as the six slots v0, r0, v1,
    r1, v2, r2, where r_i is the root on the edge from vertex i to vertex
    i+1, if that edge has one.  The minus polygon keeps, in walk order,
    the vertices of sign <= 0 and the roots, the plus polygon the vertices
    of sign >= 0 and the roots; both are CCW and padded to four vertices.
    The chord joins the two interface points (roots and vertices of sign
    0) in the order the minus polygon traverses them, so the outward
    normal of the minus side is its clockwise perpendicular.

    Returns (p, q, poly_minus, k_minus, poly_plus, k_plus), with k the
    number of vertices of each polygon.
    """
    n = coords.shape[0]
    slots = np.stack([coords, roots], axis=2).reshape(n, 6, 2)
    iface = np.stack([signs == 0, has_root], axis=2).reshape(n, 6)
    in_m = np.stack([signs <= 0, has_root], axis=2).reshape(n, 6)
    in_p = np.stack([signs >= 0, has_root], axis=2).reshape(n, 6)

    rows = np.arange(n)
    j1, j2 = np.argsort(~iface, axis=1, kind="stable")[:, :2].T
    pos = np.cumsum(in_m, axis=1)
    forward = (pos[rows, j2] - pos[rows, j1] == 1)[:, None]
    p = np.where(forward, slots[rows, j1], slots[rows, j2])
    q = np.where(forward, slots[rows, j2], slots[rows, j1])
    poly_m, k_m = _compact(slots, in_m)
    poly_p, k_p = _compact(slots, in_p)
    return p, q, poly_m, k_m, poly_p, k_p


def _compact(slots, keep):
    """Kept slots of each row moved to the front in order, padded to four."""
    order = np.argsort(~keep, axis=1, kind="stable")[:, :4]
    return np.take_along_axis(slots, order[:, :, None], axis=1), keep.sum(axis=1)


def _polygon_area(poly, k):
    """Signed area of the polygons held in the first k[i] rows of poly[i].

    The cross terms are added in vertex order, as ``np.sum`` does for a
    single polygon.
    """
    m = poly.shape[1]
    idx = np.arange(m)
    nxt = np.where(idx + 1 < k[:, None], idx + 1, 0)
    pn = np.take_along_axis(poly, nxt[:, :, None], axis=1)
    cross = poly[..., 0] * pn[..., 1] - pn[..., 0] * poly[..., 1]
    total = cross[:, 0]
    for i in range(1, m):
        total = np.where(i < k, total + cross[:, i], total)
    return 0.5 * total


def _fan_rule(area, poly, k) -> CutRule:
    """One side's parts of the cut elements, of the given areas: the
    mid-edge rule on the fan triangulation of their convex CCW polygons.

    Fan triangle j of a polygon is (P0, Pj, Pj+1); triangles with area
    <= 0 (slivers where a root lands on a vertex) are skipped.  Points
    come per polygon, per triangle, per triangle edge.
    """
    n, m = poly.shape[:2]
    first = np.broadcast_to(poly[:, :1], (n, m - 2, 2))
    tri = np.stack([first, poly[:, 1:-1], poly[:, 2:]], axis=2)  # (n, m-2, 3, 2)
    tri_area = _polygon_area(tri.reshape(-1, 3, 2), np.full(n * (m - 2), 3)).reshape(n, m - 2)
    keep = (np.arange(1, m - 1) < k[:, None] - 1) & (tri_area > 0.0)
    mids = 0.5 * (tri + np.roll(tri, -1, axis=2))
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(3 * keep.sum(axis=1), out=ptr[1:])
    return CutRule(area, ptr, mids[keep].reshape(-1, 2), np.repeat(tri_area[keep] / 3.0, 3))


def _ghost_edges(mesh, elem_side, cut_ids) -> tuple[np.ndarray, np.ndarray]:
    """Per side, minus then plus, the interior edges between two elements
    of that side or cut, at least one of them cut: among the edges of the
    cut elements, in increasing order."""
    edges = np.unique(mesh.elem_edges(cut_ids))
    e1, e2 = mesh.edge_elems(edges).T
    interior = e2 >= 0
    s1, s2 = elem_side[e1], elem_side[np.where(interior, e2, 0)]
    return tuple(edges[interior & (s1 * want >= 0) & (s2 * want >= 0)] for want in (-1, 1))
