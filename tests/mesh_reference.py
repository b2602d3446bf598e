"""The whole-array mesh build that ``cutnitsche.mesh`` replaced, and the
byte-for-byte comparisons the tests share.

``build_reference_mesh`` stores every connectivity, adjacency and P1
geometry array of the grid, built in whole-array passes; the tests hold
each closed-form ``Mesh`` accessor to these arrays byte for byte.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from cutnitsche.mesh import MAX_LEVEL, MIN_LEVEL

@dataclass(frozen=True)
class ReferenceMesh:
    """Triangulation data with precomputed P1 geometry.

    Nodes lie on an ``(n+1) x (n+1)`` grid in row-major order (x fastest).
    Cell ``(ix, iy)`` owns elements ``2*(iy*n + ix)`` (lower-right triangle)
    and ``2*(iy*n + ix) + 1`` (upper-left triangle); both are oriented
    counter-clockwise.

    Edges are numbered node-major: node ``a`` owns its horizontal edge to
    ``a+1``, its vertical edge to ``a+n+1`` and its diagonal edge to
    ``a+n+2``, in that order, each only where the end node is on the grid.
    Assembly sums ghost-penalty contributions in this order.  Local edge
    ``i`` of an element joins its vertices ``i`` and ``(i+1) % 3``.
    """

    level: int
    n_cells: int
    h: float                  # actual grid spacing, 2 / n_cells
    h_nominal: float          # 2**-(level + 3/2)
    nodes: np.ndarray         # (n_nodes, 2)
    elements: np.ndarray      # (n_elems, 3) node ids, CCW
    edges: np.ndarray         # (n_edges, 2) node ids, smaller first
    edge_elems: np.ndarray    # (n_edges, 2) element ids, lower first, -1 on boundary
    elem_edges: np.ndarray    # (n_elems, 3) edge ids of the local edges
    edge_lengths: np.ndarray  # (n_edges,)
    boundary_node: np.ndarray  # (n_nodes,) bool
    areas: np.ndarray         # (n_elems,)
    grads: np.ndarray         # (n_elems, 3, 2) gradients of the P1 basis
    node_elem_ptr: np.ndarray  # CSR offsets for node -> element adjacency
    node_elem_ids: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elems(self) -> int:
        return self.elements.shape[0]


def build_reference_mesh(level: int) -> ReferenceMesh:
    """Build the uniform grid, each cell split along its lower-left to
    upper-right diagonal, for a refinement level."""
    if not isinstance(level, (int, np.integer)):
        raise ValueError(f"level must be an integer, got {level!r}")
    if not MIN_LEVEL <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [{MIN_LEVEL}, {MAX_LEVEL}], got {level}")
    h_nominal = 2.0 ** -(level + 1.5)
    n = ceil(2.0 / h_nominal)
    h = 2.0 / n

    ii = np.arange(n + 1)
    xs = -1.0 + ii * h
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(ix, iy):
        return iy * (n + 1) + ix

    cx, cy = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    cx = cx.ravel()
    cy = cy.ravel()
    v00 = nid(cx, cy)
    v10 = nid(cx + 1, cy)
    v01 = nid(cx, cy + 1)
    v11 = nid(cx + 1, cy + 1)
    # diagonal runs v00 -> v11 in every cell
    elements = np.empty((2 * n * n, 3), dtype=np.int64)
    for i, v in enumerate((v00, v10, v11)):
        elements[0::2, i] = v
    for i, v in enumerate((v00, v11, v01)):
        elements[1::2, i] = v

    areas, grads = _p1_geometry(nodes, elements)

    edges, elem_edges = _edge_numbering(n, v00, v10, v01)
    edge_elems = _edge_elements(elem_edges, edges.shape[0])
    edge_vec = nodes[edges[:, 1]] - nodes[edges[:, 0]]
    edge_lengths = np.hypot(edge_vec[:, 0], edge_vec[:, 1])

    gx = np.tile(ii, n + 1)
    gy = np.repeat(ii, n + 1)
    boundary_node = (gx == 0) | (gx == n) | (gy == 0) | (gy == n)

    node_elem_ptr, node_elem_ids = _node_adjacency(elements, nodes.shape[0])

    return ReferenceMesh(
        level=level,
        n_cells=n,
        h=h,
        h_nominal=h_nominal,
        nodes=nodes,
        elements=elements,
        edges=edges,
        edge_elems=edge_elems,
        elem_edges=elem_edges,
        edge_lengths=edge_lengths,
        boundary_node=boundary_node,
        areas=areas,
        grads=grads,
        node_elem_ptr=node_elem_ptr,
        node_elem_ids=node_elem_ids,
    )


def _p1_geometry(nodes: np.ndarray, elements: np.ndarray):
    """Areas and P1 basis gradients from an ``(n_e, 3, 2)`` coordinate
    array: ``2A = d1 x d2`` with ``d_k = p_k - p_0``, and
    ``grad(lambda_i) = (-e_y, e_x) / 2A`` with ``e_i = p_{i+2} - p_{i+1}``."""
    coords = nodes[elements]
    d1 = coords[:, 1] - coords[:, 0]
    d2 = coords[:, 2] - coords[:, 0]
    twice_area = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    grads = np.empty((elements.shape[0], 3, 2))
    for i in range(3):
        e = coords[:, (i + 2) % 3] - coords[:, (i + 1) % 3]
        grads[:, i, 0] = -e[:, 1] / twice_area
        grads[:, i, 1] = e[:, 0] / twice_area
    return 0.5 * twice_area, grads


def _edge_numbering(n: int, v00, v10, v01):
    """Edges in node-major h/v/d order and the element -> edge map."""
    m = n + 1
    a = np.arange(m * m)
    ix, iy = a % m, a // m
    ends = a[:, None] + np.array([1, m, m + 1])
    exists = np.column_stack([ix < n, iy < n, (ix < n) & (iy < n)])
    edges = np.column_stack([np.broadcast_to(a[:, None], ends.shape)[exists], ends[exists]])
    eid = np.full(ends.shape, -1, dtype=np.int64)
    eid[exists] = np.arange(edges.shape[0])
    h, v, d = eid.T
    elem_edges = np.empty((2 * n * n, 3), dtype=np.int64)
    elem_edges[0::2] = np.column_stack([h[v00], v[v10], d[v00]])  # v00 v10 v11
    elem_edges[1::2] = np.column_stack([d[v00], h[v01], v[v00]])  # v00 v11 v01
    return edges, elem_edges


def _edge_elements(elem_edges: np.ndarray, n_edges: int) -> np.ndarray:
    """Elements on each side of every edge: lower id first, -1 if none."""
    ne = elem_edges.shape[0]
    owner = np.arange(ne)
    out = np.full((n_edges, 2), (ne, -1), dtype=np.int64)
    first, last = out.T
    for i in range(3):  # min and max do not depend on the order
        np.minimum.at(first, elem_edges[:, i], owner)
        np.maximum.at(last, elem_edges[:, i], owner)
    last[last <= first] = -1
    return out


def _node_adjacency(elements: np.ndarray, n_nodes: int):
    """CSR node -> element map; each node's elements in increasing order.

    Element ``k`` owns entries ``3k..3k+2`` of the flattened connectivity,
    so the stable sort order divided by 3 is the owning element.
    """
    ptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(elements.ravel(), minlength=n_nodes), out=ptr[1:])
    ids = np.argsort(elements.ravel(), kind="stable")
    ids //= 3
    return ptr, ids


def assert_same(a, b, name=""):
    """Equal dtype, shape and bytes."""
    assert a.dtype == b.dtype and a.shape == b.shape, name
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), name


def assert_same_csr(a, b):
    for name in ("data", "indices", "indptr"):
        assert_same(getattr(a, name), getattr(b, name), name)


def side_rule(topo, side):
    """The side rule over the whole mesh: owning element of each point,
    points and weights."""
    ptr, points, weights = topo.quadrature(side, slice(None))
    return np.repeat(np.arange(topo.mesh.n_elems), np.diff(ptr)), points, weights
