"""Background triangulation: refinement law, topology, and geometry.

Every accessor is held to the whole-array build it replaced
(``mesh_reference``) byte for byte: dtype, shape and signed zeros.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cutnitsche import mesh as mesh_module
from cutnitsche.mesh import MAX_LEVEL, MIN_LEVEL, blocks, build_mesh, edge_frame
from mesh_reference import assert_same, build_reference_mesh

# accessor -> the count its ids range over; edge lengths come from edge_frame
COUNTS = {"elements": "n_elems", "edges": "n_edges", "edge_elems": "n_edges",
          "elem_edges": "n_elems", "edge_lengths": "n_edges", "boundary_node": "n_nodes",
          "areas": "n_elems", "grads": "n_elems", "node_elems": "n_nodes"}

# n = ceil(2 / 2**-(level + 3/2)) for levels 1..5
EXPECTED_N = {1: 12, 2: 23, 3: 46, 4: 91, 5: 182}


@pytest.mark.parametrize("level,n", sorted(EXPECTED_N.items()))
def test_refinement_law(level, n):
    mesh = build_mesh(level)
    assert mesh.n_cells == n
    assert mesh.h == 2.0 / n
    assert mesh.h <= 2.0 ** -(level + 1.5)
    assert mesh.n_elems == 2 * n * n
    assert mesh.n_nodes == (n + 1) ** 2


def test_level1_counts():
    mesh = build_mesh(1)
    assert mesh.n_elems == 288
    assert mesh.n_nodes == 169


@pytest.mark.parametrize("level", [1, 2, 3])
def test_area_partition_of_unity(level):
    mesh = build_mesh(level)
    assert abs(mesh.areas(slice(None)).sum() - 4.0) <= 1e-12
    # uniform one-diagonal grid: every triangle has the same area
    np.testing.assert_allclose(mesh.areas(slice(None)), mesh.h ** 2 / 2.0, rtol=1e-14)


def test_orientation_ccw():
    mesh = build_mesh(2)
    coords = mesh.nodes[mesh.elements(slice(None))]
    d1 = coords[:, 1] - coords[:, 0]
    d2 = coords[:, 2] - coords[:, 0]
    cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    assert np.all(cross > 0.0)


def test_node_patch_sizes():
    mesh = build_mesh(2)
    n = mesh.n_cells
    sizes = np.diff(mesh.node_elems(slice(None))[0])
    corner = np.all(np.abs(np.abs(mesh.nodes) - 1.0) <= 1e-14, axis=1)
    interior = ~mesh.boundary_node(slice(None))
    edge_nodes = mesh.boundary_node(slice(None)) & ~corner
    assert np.all(sizes[interior] == 6)
    assert np.all(sizes[edge_nodes] == 3)
    # the diagonal direction gives two 2-element and two 1-element corners
    assert sorted(sizes[corner]) == [1, 1, 2, 2]
    assert corner.sum() == 4
    assert edge_nodes.sum() == 4 * (n - 1)


def test_euler_characteristic():
    for level in (1, 2, 3):
        mesh = build_mesh(level)
        assert mesh.n_nodes - mesh.n_edges + mesh.n_elems == 1


def test_edge_lengths_and_counts():
    mesh = build_mesh(2)
    n = mesh.n_cells
    h = mesh.h
    lengths = edge_frame(mesh, np.arange(mesh.n_edges))[2]
    axis = np.isclose(lengths, h, rtol=1e-13)
    diag = np.isclose(lengths, h * np.sqrt(2.0), rtol=1e-13)
    assert np.all(axis | diag)
    assert diag.sum() == n * n
    assert axis.sum() == 2 * n * (n + 1)
    boundary_edges = mesh.edge_elems(slice(None))[:, 1] < 0
    assert boundary_edges.sum() == 4 * n


def test_edge_element_consistency():
    mesh = build_mesh(1)
    for e, (a, b) in enumerate(mesh.edges(slice(None))):
        for t in mesh.edge_elems(e):
            if t < 0:
                continue
            conn = set(mesh.elements(t))
            assert a in conn and b in conn
    # boundary edges must lie on the boundary
    on_bnd = mesh.edge_elems(slice(None))[:, 1] < 0
    ends_bnd = mesh.boundary_node(mesh.edges(slice(None)))
    assert np.all(ends_bnd[on_bnd].all(axis=1))


def _unique_edge_reference(elements):
    """Edge numbering by np.unique over sorted local edges (i, i+1)."""
    local = np.stack([elements[:, [0, 1]], elements[:, [1, 2]], elements[:, [2, 0]]], axis=1)
    edges, inverse = np.unique(np.sort(local, axis=2).reshape(-1, 2), axis=0,
                               return_inverse=True)
    elem_edges = inverse.reshape(-1, 3)
    edge_elems = np.full((edges.shape[0], 2), -1, dtype=np.int64)
    for t, row in enumerate(elem_edges):  # ascending ids: the lower one lands first
        for e in row:
            edge_elems[e, 0 if edge_elems[e, 0] < 0 else 1] = t
    return edges, edge_elems, elem_edges


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_closed_form_edges_match_unique(level):
    mesh = build_mesh(level)
    edges, edge_elems, elem_edges = _unique_edge_reference(mesh.elements(slice(None)))
    assert np.array_equal(mesh.edges(slice(None)), edges)
    assert np.array_equal(mesh.edge_elems(slice(None)), edge_elems)
    assert np.array_equal(mesh.elem_edges(slice(None)), elem_edges)


def test_gradients_reproduce_linears():
    mesh = build_mesh(1)
    a, b, c = 0.7, -1.3, 2.1
    vals = a + b * mesh.nodes[:, 0] + c * mesh.nodes[:, 1]
    per_elem = np.einsum("ki,kid->kd", vals[mesh.elements(slice(None))], mesh.grads(slice(None)))
    np.testing.assert_allclose(per_elem[:, 0], b, atol=1e-12)
    np.testing.assert_allclose(per_elem[:, 1], c, atol=1e-12)
    # basis gradients within an element sum to zero
    np.testing.assert_allclose(mesh.grads(slice(None)).sum(axis=1), 0.0, atol=1e-12)


def test_shape_regularity():
    mesh = build_mesh(3)
    # right isosceles triangles: diameter / inradius is constant < 5
    h = mesh.h
    inradius = h * (2.0 - np.sqrt(2.0)) / 2.0
    assert mesh.h_elem / inradius < 5.0
    assert np.isclose(mesh.h_elem, h * np.sqrt(2.0))


def test_build_mesh_validation():
    with pytest.raises(ValueError):
        build_mesh(0)
    with pytest.raises(ValueError):
        build_mesh(2.5)
    for flag in (True, False, np.bool_(True)):
        with pytest.raises(ValueError):
            build_mesh(flag)


@given(st.integers(min_value=1, max_value=2), st.integers(min_value=0, max_value=10_000))
def test_node_patch_matches_brute_force(level, seed):
    mesh = build_mesh(level)
    node = seed % mesh.n_nodes
    brute = np.flatnonzero(np.any(mesh.elements(slice(None)) == node, axis=1))
    ptr, elems = mesh.node_elems([node])
    assert ptr.tolist() == [0, brute.size]
    assert np.array_equal(elems, brute)   # no sort: the patch comes in increasing order


def _containing(mesh, p, tol=1e-12):
    """All elements holding p, by barycentrics against every element."""
    coords = mesh.nodes[mesh.elements(slice(None))]
    d1 = coords[:, 1] - coords[:, 0]
    d2 = coords[:, 2] - coords[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    r = p - coords[:, 0]
    l1 = (r[:, 0] * d2[:, 1] - r[:, 1] * d2[:, 0]) / det
    l2 = (d1[:, 0] * r[:, 1] - d1[:, 1] * r[:, 0]) / det
    return set(np.flatnonzero(np.minimum(np.minimum(1.0 - l1 - l2, l1), l2) >= -tol))


@given(st.floats(min_value=-0.999, max_value=0.999),
       st.floats(min_value=-0.999, max_value=0.999))
def test_locate_contains_point(x, y):
    mesh = build_mesh(1)
    p = np.array([x, y])
    assert mesh.locate(p)[0] in _containing(mesh, p)


def test_locate_grid_points():
    # nodes and edge midpoints sit on cell borders, the outer boundary included
    mesh = build_mesh(1)
    mids = mesh.nodes[mesh.edges(slice(None))].mean(axis=1)
    pts = np.vstack([mesh.nodes, mids])
    for p, t in zip(pts, mesh.locate(pts)):
        assert t in _containing(mesh, p)


def test_node_patch_bounds():
    mesh = build_mesh(1)
    for node in (mesh.n_nodes, -1):
        with pytest.raises(IndexError):
            mesh.node_elems([node])


# -- accessors against the whole-array build ----------------------------------

def reference_rows(ref, name, ids):
    """Rows ``ids`` of a reference array; node -> element adjacency as CSR."""
    if name != "node_elems":
        return getattr(ref, name)[ids]
    start = ref.node_elem_ptr[ids]
    deg = ref.node_elem_ptr[ids + 1] - start
    ptr = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(deg, out=ptr[1:])
    return ptr, ref.node_elem_ids[np.repeat(start - ptr[:-1], deg) + np.arange(ptr[-1])]


def accessor(mesh, name):
    """The accessor ``name`` of ``COUNTS``: a ``Mesh`` method, or the
    lengths ``edge_frame`` takes from the edge vectors."""
    if name == "edge_lengths":
        return lambda ids: edge_frame(mesh, ids)[2]
    return getattr(mesh, name)


def assert_rows(mesh, ref, name, ids):
    """An accessor on ``ids`` against the reference rows."""
    count = getattr(mesh, COUNTS[name])
    got = accessor(mesh, name)(ids)
    want = reference_rows(ref, name, np.arange(count)[ids])
    if name == "node_elems":
        assert_same(got[0], want[0], "node_elem_ptr")
        assert_same(got[1], want[1], "node_elem_ids")
    else:
        assert_same(got, want, name)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
def test_accessors_match_the_whole_array_build(level):
    mesh, ref = build_mesh(level), build_reference_mesh(level)
    assert_same(mesh.nodes, ref.nodes, "nodes")
    assert (mesh.n_nodes, mesh.n_elems, mesh.n_edges) == (
        ref.nodes.shape[0], ref.elements.shape[0], ref.edges.shape[0])
    for name, count in COUNTS.items():
        assert_rows(mesh, ref, name, slice(0, getattr(mesh, count)))
    ptr, ids = mesh.node_elems(slice(None))
    assert_same(ptr, ref.node_elem_ptr, "node_elem_ptr")
    assert_same(ids, ref.node_elem_ids, "node_elem_ids")


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
def test_accessors_match_on_every_block(monkeypatch, level):
    # a block size that is no multiple of a grid row, so blocks start mid-row
    monkeypatch.setattr(mesh_module, "BLOCK", 997 if level > 3 else 7)
    mesh, ref = build_mesh(level), build_reference_mesh(level)
    for name, count in COUNTS.items():
        for block in blocks(getattr(mesh, count)):
            assert_rows(mesh, ref, name, block)


@pytest.mark.parametrize("level", [1, 2, 5])
def test_accessors_take_unsorted_repeated_ids(level):
    mesh, ref = build_mesh(level), build_reference_mesh(level)
    rng = np.random.default_rng(level)
    for name, count in COUNTS.items():
        n = getattr(mesh, count)
        for ids in (rng.integers(0, n, 500), np.arange(n)[::-3], np.zeros(0, dtype=np.int32)):
            assert_rows(mesh, ref, name, ids)
        for bad in ([-1], [n]):
            with pytest.raises(IndexError):
                accessor(mesh, name)(bad)
    # an id array of any shape gives rows of that shape; a scalar one row
    ids = rng.integers(0, mesh.n_elems, (4, 5))
    assert_same(mesh.grads(ids), ref.grads[ids])
    assert_same(mesh.elements(np.int64(7)), ref.elements[7])
    assert_same(mesh.edges([]), ref.edges[[]])
    with pytest.raises(TypeError):   # a mask is not a list of ids
        mesh.areas(np.ones(mesh.n_elems, dtype=bool))


@pytest.mark.parametrize("level", range(MIN_LEVEL, MAX_LEVEL + 1))
def test_mesh_stores_nodes_and_a_small_template_table(level):
    mesh = build_mesh(level)
    # 3 or 4 distinct spacings per level: at most 4 * 4 * 2 templates
    assert mesh.template_areas.size <= 32
    arrays = {k: v for k, v in vars(mesh).items() if isinstance(v, np.ndarray)}
    assert max(v.shape[0] for v in arrays.values()) == mesh.n_nodes


def test_build_mesh_peak_is_its_nodes():
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mesh = build_mesh(MAX_LEVEL)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * mesh.nodes.nbytes
