"""Uniform background triangulations of the square (-1, 1)^2.

The mesh is never fitted to an interface: it is a structured grid of
``n x n`` square cells, each split into two triangles along the
lower-left to upper-right diagonal.  Refinement levels follow
``h = 2**-(level + 3/2)`` with ``n = ceil(2 / h)`` cells per side, so the
actual grid spacing ``2 / n`` is at most the nominal one.

Only the node coordinates and a small table of geometry templates are
stored.  Connectivity, adjacency and P1 geometry are closed forms of
node, element and edge ids, computed for the ids a pass asks for.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

import numpy as np

MIN_LEVEL = 1
MAX_LEVEL = 8
# Edges, elements, matrix rows or quadrature points handled per pass by
# every blocked loop: classify's edge scan, the row windows of the volume
# part, of build_system and of the H1 Gram matrices, the solver's |A| row
# sums, the side rules of the load vector, the error report and the
# interpolation profile.  The passes add and sum in the order of a
# whole-array pass, so the block size changes memory, not bits.
BLOCK = 16384

__all__ = ["Mesh", "build_mesh"]


@dataclass(frozen=True)
class Mesh:
    """Triangulation of a uniform grid, with its quantities as accessors.

    Nodes lie on an ``(n+1) x (n+1)`` grid in row-major order (x fastest).
    Cell ``(ix, iy)`` owns elements ``2*(iy*n + ix)`` (lower-right triangle)
    and ``2*(iy*n + ix) + 1`` (upper-left triangle); both are oriented
    counter-clockwise.

    Edges are numbered node-major: node ``a`` owns its horizontal edge to
    ``a+1``, its vertical edge to ``a+n+1`` and its diagonal edge to
    ``a+n+2``, in that order, each only where the end node is on the grid.
    Assembly sums ghost-penalty contributions in this order.  Local edge
    ``i`` of an element joins its vertices ``i`` and ``(i+1) % 3``.

    Each accessor takes ids, an index array or a slice, and returns one
    row per id, shaped ``ids.shape + row shape``; ``node_elems``, whose
    rows differ in length, returns them as CSR.  Index arrays may be
    unsorted and repeat ids; an id outside the range raises IndexError.

    The grid spacings ``xs[i+1] - xs[i]`` take a few distinct float values
    (3 or 4 per level), so the areas and basis gradients of all elements
    come from a table of templates, one per (x spacing, y spacing,
    triangle shape), each computed by ``_p1_geometry`` on an element of
    that key.
    """

    level: int
    n_cells: int
    h: float                  # actual grid spacing, 2 / n_cells
    h_nominal: float          # 2**-(level + 3/2)
    nodes: np.ndarray         # (n_nodes, 2)
    # class of each grid interval by its spacing: (n_cells,), k classes
    spacing_class: np.ndarray = field(init=False, repr=False)
    # templates indexed by x class, y class and triangle (0 lower, 1 upper)
    template_areas: np.ndarray = field(init=False, repr=False)  # (k, k, 2)
    template_grads: np.ndarray = field(init=False, repr=False)  # (k, k, 2, 3, 2)

    def __post_init__(self):
        n = self.n_cells
        xs = self.nodes[:n + 1, 0]
        spacings, first, spacing_class = np.unique(np.diff(xs), return_index=True,
                                                   return_inverse=True)
        k = spacings.size
        fx, fy = np.meshgrid(first, first, indexing="ij")   # first interval of each class
        reps = (2 * (fy * n + fx).ravel()[:, None] + np.arange(2)).ravel()
        areas, grads = _p1_geometry(self.nodes, self.elements(reps))
        object.__setattr__(self, "spacing_class", spacing_class.reshape(n))
        object.__setattr__(self, "template_areas", areas.reshape(k, k, 2))
        object.__setattr__(self, "template_grads", grads.reshape(k, k, 2, 3, 2))

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elems(self) -> int:
        return 2 * self.n_cells * self.n_cells

    @property
    def n_edges(self) -> int:
        """``n (n+1)`` horizontal, as many vertical and ``n**2`` diagonal."""
        return self.n_cells * (3 * self.n_cells + 2)

    @property
    def h_elem(self) -> float:
        """Element diameter (longest edge); uniform over the mesh."""
        return self.h * np.sqrt(2.0)

    def elements(self, ids) -> np.ndarray:
        """Node ids of the elements, counter-clockwise: (..., 3) int64."""
        t, shape = _index(ids, self.n_elems)
        m = self.n_cells + 1
        cell, upper = t >> 1, t & 1
        v00 = cell + cell // self.n_cells   # iy * (n+1) + ix
        out = np.empty((t.size, 3), dtype=np.int64)
        out[:, 0] = v00
        out[:, 1] = v00 + 1 + m * upper     # v10, or v11 in the upper triangle
        out[:, 2] = v00 + m + 1 - upper     # v11, or v01
        return out.reshape(shape + (3,))

    def edges(self, ids) -> np.ndarray:
        """Node ids of the edges, smaller first: (..., 2) int64."""
        e, shape = _index(ids, self.n_edges)
        ix, iy, kind = self._edge_owner(e)
        m = self.n_cells + 1
        out = np.empty((e.size, 2), dtype=np.int64)
        out[:, 0] = iy * m + ix
        out[:, 1] = out[:, 0] + np.array([1, m, m + 1])[kind]
        return out.reshape(shape + (2,))

    def edge_elems(self, ids) -> np.ndarray:
        """Elements on each side of the edges, lower id first, -1 where
        the edge is on the boundary: (..., 2) int64."""
        e, shape = _index(ids, self.n_edges)
        n = self.n_cells
        ix, iy, kind = self._edge_owner(e)
        c2 = 2 * (iy * n + ix)   # lower element of the cell the edge's node owns
        horizontal, vertical = kind == 0, kind == 1
        out = np.empty((e.size, 2), dtype=np.int64)
        # a horizontal edge lies between the upper triangle of the cell
        # below and the lower triangle of the cell above; a vertical one
        # between the lower triangle of the cell to its left and the upper
        # one of the cell to its right; a diagonal one inside its cell
        out[:, 0] = np.where(horizontal, np.where(iy > 0, c2 - 2 * n + 1, c2),
                             np.where(vertical & (ix > 0), c2 - 2, c2 + vertical))
        out[:, 1] = np.where(horizontal, np.where((iy > 0) & (iy < n), c2, -1),
                             np.where(~vertical | ((ix > 0) & (ix < n)), c2 + 1, -1))
        return out.reshape(shape + (2,))

    def elem_edges(self, ids) -> np.ndarray:
        """Edge ids of the local edges of the elements: (..., 3) int64."""
        t, shape = _index(ids, self.n_elems)
        n = self.n_cells
        row = 3 * n + 1                    # edges owned by a row of nodes below the top
        cy, cx = np.divmod(t >> 1, n)
        upper = (t & 1).astype(bool)
        base = cy * row + 3 * cx           # horizontal edge of v00
        right = base + 4 - (cx == n - 1)   # vertical edge of v10
        top = np.where(cy == n - 1, n * row + cx, base + row)   # horizontal edge of v01
        out = np.empty((t.size, 3), dtype=np.int64)
        out[:, 0] = np.where(upper, base + 2, base)
        out[:, 1] = np.where(upper, top, right)
        out[:, 2] = np.where(upper, base + 1, base + 2)
        return out.reshape(shape + (3,))

    def boundary_node(self, ids) -> np.ndarray:
        """Whether the nodes lie on the outer boundary: (...,) bool."""
        a, shape = _index(ids, self.n_nodes)
        n = self.n_cells
        iy, ix = np.divmod(a, n + 1)
        return ((ix == 0) | (ix == n) | (iy == 0) | (iy == n)).reshape(shape)

    def areas(self, ids) -> np.ndarray:
        """Areas of the elements: (...,) float64."""
        key, shape = self._template(ids)
        return np.take(self.template_areas.reshape(-1), key).reshape(shape)

    def grads(self, ids) -> np.ndarray:
        """Gradients of the P1 basis on the elements: (..., 3, 2) float64."""
        key, shape = self._template(ids)
        return np.take(self.template_grads.reshape(-1, 3, 2), key, axis=0).reshape(shape + (3, 2))

    def node_elems(self, ids):
        """Elements sharing each node, as CSR ``(ptr, elems)`` over the
        flattened ids: node ``ids[i]``'s at most six elements, in
        increasing order, are ``elems[ptr[i]:ptr[i+1]]``."""
        a, _ = _index(ids, self.n_nodes)
        n = self.n_cells
        iy, ix = np.divmod(a, n + 1)
        c2 = 2 * (iy * n + ix)   # lower element of the cell up and to the right
        left, right, below, above = ix > 0, ix < n, iy > 0, iy < n
        # cells (ix-1, iy-1), (ix, iy-1), (ix-1, iy) and (ix, iy) in turn
        cand = np.column_stack([c2 - 2 * n - 2, c2 - 2 * n - 1, c2 - 2 * n + 1,
                                c2 - 2, c2, c2 + 1])
        has = np.column_stack([left & below, left & below, right & below,
                               left & above, right & above, right & above])
        ptr = np.zeros(a.size + 1, dtype=np.int64)
        np.cumsum(has.sum(axis=1), out=ptr[1:])
        return ptr, cand[has]

    def elems_near(self, first: int, last: int) -> np.ndarray:
        """Increasing ids of the elements with a node in ``first..last``,
        and some more between them.  Element t's nodes are ``v00 + {0, 1,
        n + 1, n + 2}``, ``v00`` its lower-left node, increasing with t."""
        n = self.n_cells

        def cell(a):   # the lowest cell whose v00 is at least a
            return min(max(a, 0) - max(a, 0) // (n + 1), n * n)

        runs = ((cell(first - n - 2), cell(last - n)), (cell(first - 1), cell(last + 1)))
        if runs[0][1] >= runs[1][0]:   # a range longer than a grid row: one run
            runs = ((runs[0][0], runs[1][1]),)
        return np.concatenate([np.arange(2 * lo, 2 * hi) for lo, hi in runs])

    def _edge_owner(self, e: np.ndarray):
        """Grid position of the node owning each edge and the edge's kind:
        0 horizontal, 1 vertical, 2 diagonal."""
        n = self.n_cells
        # ``//`` and a product: np.divmod is several times slower
        iy = e // (3 * n + 1)
        r = e - iy * (3 * n + 1)
        ix = r // 3
        kind = r - 3 * ix
        kind += r == 3 * n                 # the right column's vertical edge
        top = iy == n                      # the top row owns horizontal edges only
        ix[top], kind[top] = r[top], 0
        return ix, iy, kind

    def _template(self, ids):
        """Flat index into the (k, k, 2) templates of each element, and the
        shape of the ids."""
        t, shape = _index(ids, self.n_elems)
        cell = t >> 1
        cy = cell // self.n_cells
        cx = cell - cy * self.n_cells
        k = self.template_areas.shape[0]
        return (self.spacing_class[cx] * k + self.spacing_class[cy]) * 2 + (t & 1), shape

    def locate(self, points) -> np.ndarray:
        """Element holding each point of an (m, 2) array.

        The cell comes from ``floor``, clamped to the grid; within it the
        lower triangle is taken when ``fy <= fx`` and the upper otherwise.
        """
        p = (np.asarray(points, dtype=float).reshape(-1, 2) + 1.0) / self.h
        cell = np.clip(np.floor(p), 0, self.n_cells - 1)
        fx, fy = (p - cell).T
        ix, iy = cell.astype(np.int64).T
        return 2 * (iy * self.n_cells + ix) + (fy > fx)


def _index(ids, count: int):
    """Flat int64 ids and their shape: a slice over ``range(count)``, or an
    index array whose entries must lie in that range."""
    if isinstance(ids, slice):
        flat = np.arange(*ids.indices(count), dtype=np.int64)
        return flat, flat.shape
    ids = np.asarray(ids)
    if ids.size and ids.dtype.kind not in "iu":
        raise TypeError(f"ids must be integers, got dtype {ids.dtype}")
    flat = ids.astype(np.int64, copy=False).ravel()
    if flat.size and (flat.min() < 0 or flat.max() >= count):
        raise IndexError(f"ids out of range [0, {count})")
    return flat, ids.shape


def build_mesh(level: int) -> Mesh:
    """Build the uniform grid, each cell split along its lower-left to
    upper-right diagonal, for a refinement level."""
    if isinstance(level, bool) or not isinstance(level, (int, np.integer)):
        raise ValueError(f"level must be an integer, got {level!r}")
    if not MIN_LEVEL <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [{MIN_LEVEL}, {MAX_LEVEL}], got {level}")
    h_nominal = 2.0 ** -(level + 1.5)
    n = ceil(2.0 / h_nominal)
    h = 2.0 / n

    xs = -1.0 + np.arange(n + 1) * h
    nodes = np.empty(((n + 1) ** 2, 2))
    grid = nodes.reshape(n + 1, n + 1, 2)
    grid[:, :, 0] = xs
    grid[:, :, 1] = xs[:, None]
    return Mesh(level=level, n_cells=n, h=h, h_nominal=h_nominal, nodes=nodes)


def _p1_geometry(nodes: np.ndarray, elements: np.ndarray):
    """Areas and P1 basis gradients, built in the gradient array itself.

    ``grad(lambda_i) = perp(e_i) / (2A)`` with ``e_i = p_{i+2} - p_{i+1}``
    and ``perp(v) = (-vy, vx)``.  ``e_i`` is written reversed into row
    ``i``, ``2A = e_1 x e_2``; then the first column is negated and every
    row divided by ``2A``.  Negation is exact, so each value equals
    ``-e_y / 2A`` and ``e_x / 2A`` computed from an ``(n_e, 3, 2)``
    coordinate array, without that array.
    """
    grads = np.empty((elements.shape[0], 3, 2))
    for i in range(3):
        np.subtract(nodes[elements[:, (i + 2) % 3]], nodes[elements[:, (i + 1) % 3]],
                    out=grads[:, i, ::-1])
    twice_area = grads[:, 1, 1] * grads[:, 2, 0] - grads[:, 1, 0] * grads[:, 2, 1]
    np.negative(grads[:, :, 0], out=grads[:, :, 0])
    grads /= twice_area[:, None, None]
    return 0.5 * twice_area, grads


def blocks(n: int, width: int = 1):
    """Consecutive slices covering ``range(n)``, of at most ``BLOCK``
    items, or of ``BLOCK // width`` (at least one) for items of ``width``
    rows each."""
    step = max(BLOCK // width, 1)
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


# Whole-grid passes.  A grid of node values is (n+1, n+1), row iy and
# column ix holding node iy*(n+1) + ix; cell (ix, iy)'s lower triangle is
# v00, v10, v11 and its upper one v00, v11, v01, where v10 is the node to
# the right of v00 and v01 the one above it.

def elem_any(flag: np.ndarray) -> np.ndarray:
    """Whether any vertex of each element carries the flag, from the grid
    of node flags: (n_elems,) bool."""
    n = flag.shape[0] - 1
    out = np.empty((n, n, 2), dtype=bool)
    diagonal = flag[:-1, :-1] | flag[1:, 1:]
    np.logical_or(diagonal, flag[:-1, 1:], out=out[..., 0])
    np.logical_or(diagonal, flag[1:, :-1], out=out[..., 1])
    return out.reshape(-1)


def node_any(flag: np.ndarray, n: int) -> np.ndarray:
    """Whether any element holding each node carries the flag, from the
    (n_elems,) element flags: the grid of node flags."""
    lower, upper = np.moveaxis(flag.reshape(n, n, 2), 2, 0)
    either = lower | upper
    out = np.zeros((n + 1, n + 1), dtype=bool)
    out[:-1, :-1] |= either
    out[1:, 1:] |= either
    out[:-1, 1:] |= lower
    out[1:, :-1] |= upper
    return out


def edge_frame(mesh: Mesh, edges: np.ndarray):
    """Lower and upper element, length and unit normal of interior edges.

    The normal is ``perp(b - a) / |b - a|`` for the edge's nodes ``a < b``;
    ghost-penalty assembly and the energy norm share it.
    """
    e1, e2 = mesh.edge_elems(edges).T
    ends = mesh.edges(edges)
    ev = mesh.nodes[ends[:, 1]] - mesh.nodes[ends[:, 0]]
    length = np.hypot(ev[:, 0], ev[:, 1])
    return e1, e2, length, np.column_stack([-ev[:, 1], ev[:, 0]]) / length[:, None]


def barycentric_many(coords: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of pts[i] inside triangle coords[i], from
    contiguous copies of the coordinate columns (faster than strided)."""
    c = np.ascontiguousarray(coords.transpose(1, 2, 0))   # (vertex, axis, i)
    d1 = c[1] - c[0]
    d2 = c[2] - c[0]
    det = d1[0] * d2[1] - d1[1] * d2[0]
    r = np.ascontiguousarray(pts.T) - c[0]
    l1 = (r[0] * d2[1] - r[1] * d2[0]) / det
    l2 = (d1[0] * r[1] - d1[1] * r[0]) / det
    return np.column_stack([1.0 - l1 - l2, l1, l2])
