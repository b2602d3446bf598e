"""Doubled P1 spaces: DOF layout, interpolation, point location."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from cutnitsche.cutcell import classify
from cutnitsche.levelset import LevelSet
from cutnitsche.mesh import build_mesh
from cutnitsche.space import FieldPair, build_spaces, interpolate_pair, locate_on_side


def evaluate(field, side, x):
    """Value and gradient of one side's field at a point, from the element
    and barycentrics ``locate_on_side`` gives it."""
    layout = field.layout
    elems, lams = locate_on_side(layout, side, x)
    assert elems.shape == (1,) and elems[0] >= 0
    vals = field.side(side)[layout.node_dof(side)[layout.mesh.elements(elems[0])]]
    return float(lams[0] @ vals), vals @ layout.mesh.grads(elems[0])


def test_cut_nodes_carry_two_dofs(circle_layout):
    layout = circle_layout(2)
    mesh, topo = layout.mesh, layout.topo
    cut_nodes = np.unique(mesh.elements(topo.cut_ids))
    assert np.all(layout.node_dof_minus[cut_nodes] >= 0)
    assert np.all(layout.node_dof_plus[cut_nodes] >= 0)
    assert layout.n_total == layout.n_minus + layout.n_plus
    assert layout.n_free == layout.n_total - layout.dirichlet.sum()


def test_minus_space_supported_near_inclusion(circle_layout):
    layout = circle_layout(2)
    mesh, topo = layout.mesh, layout.topo
    covered = np.zeros(mesh.n_nodes, dtype=bool)
    covered[mesh.elements(np.flatnonzero(topo.in_side("minus"))).ravel()] = True
    assert np.array_equal(layout.node_dof_minus >= 0, covered)
    # the inclusion stays away from the outer boundary
    assert np.all(layout.node_dof_minus[mesh.boundary_node(slice(None))] == -1)


def test_dirichlet_on_outer_side_only(circle_layout):
    layout = circle_layout(2)
    mesh = layout.mesh
    assert layout.outer_side() == "plus"
    bdofs = layout.node_dof_plus[mesh.boundary_node(slice(None))] + layout.n_minus
    assert np.all(layout.dirichlet[bdofs])
    assert layout.dirichlet.sum() == mesh.boundary_node(slice(None)).sum()
    assert np.array_equal(np.flatnonzero(~layout.dirichlet), layout.free_dofs)


def test_uncut_space_is_single_sided():
    mesh = build_mesh(1)
    ls = LevelSet(phi=lambda x: (x[..., 0] - 10.0) ** 2 + x[..., 1] ** 2 - 1.0)
    layout = build_spaces(classify(mesh, ls))
    assert layout.n_minus == 0
    assert layout.n_plus == mesh.n_nodes
    assert layout.n_free == mesh.n_nodes - mesh.boundary_node(slice(None)).sum()


def test_interpolate_reproduces_data(circle_layout):
    layout = circle_layout(1)
    mesh = layout.mesh
    const = interpolate_pair(layout, lambda x: np.zeros(x.shape[:-1], dtype=int),
                             lambda x: np.full(x.shape[:-1], 3.5))
    assert const.minus.dtype == float and const.minus.shape == (layout.n_minus,)
    assert np.all(const.minus == 0.0) and np.all(const.plus == 3.5)
    f = lambda x: x[..., 0] + 2.0 * x[..., 1]
    field = interpolate_pair(layout, f, f)
    np.testing.assert_allclose(field.minus,
                               f(mesh.nodes[layout.dof_node_minus]), atol=1e-15)
    # interpolation of a linear has the exact gradient everywhere
    for p in ([0.6, 0.1], [-0.6, 0.3], [0.5, -0.52]):
        val, grad = evaluate(field, "plus", np.asarray(p))
        np.testing.assert_allclose(grad, [1.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(val, p[0] + 2.0 * p[1], atol=1e-12)


def test_evaluate_minus_inside_inclusion(circle_layout):
    layout = circle_layout(1)
    f = lambda x: x[..., 0] ** 2
    field = interpolate_pair(layout, f, f)
    val, _ = evaluate(field, "minus", np.array([0.05, 0.0]))
    assert abs(val) < 0.05  # P1 interpolant of x^2 near the origin is small
    # off the minus side, and outside the domain, no element holds the point
    for side, x in (("minus", [0.9, 0.9]), ("plus", [1.5, 0.0]), ("plus", [0.0, -1.5])):
        elems, _ = locate_on_side(layout, side, np.array(x))
        assert elems.tolist() == [-1]


@given(st.integers(min_value=0, max_value=10_000))
def test_projection_identity(seed):
    mesh = build_mesh(1)
    ls = LevelSet(phi=lambda x: (x[..., 0] - 10.0) ** 2 + x[..., 1] ** 2 - 1.0)
    layout = build_spaces(classify(mesh, ls))
    rng = np.random.default_rng(seed)
    field = FieldPair(layout, np.zeros(0), rng.standard_normal(layout.n_plus))
    # evaluating at the nodes recovers the coefficients exactly
    for node in rng.integers(0, mesh.n_nodes, size=5):
        val, _ = evaluate(field, "plus", mesh.nodes[node])
        assert np.isclose(val, field.plus[layout.node_dof_plus[node]], atol=1e-12)


@pytest.mark.parametrize("inclusion_side", ["minus", "plus"])
def test_evaluate_at_every_dof_node(circle_layout, inclusion_side):
    # some nodes' floor triangles lie off the side, so this covers the
    # fallback to the side triangles around the located one
    layout = circle_layout(1, inclusion_side)
    mesh = layout.mesh
    rng = np.random.default_rng(5)
    field = FieldPair(layout, rng.standard_normal(layout.n_minus),
                      rng.standard_normal(layout.n_plus))
    for side in ("minus", "plus"):
        coeffs = field.side(side)
        for dof, node in enumerate(layout.dof_node(side)):
            val, _ = evaluate(field, side, mesh.nodes[node])
            assert abs(val - coeffs[dof]) <= 1e-12


def test_field_continuity_across_edges(circle_layout):
    layout = circle_layout(1)
    mesh = layout.mesh
    rng = np.random.default_rng(7)
    field = FieldPair(layout, rng.standard_normal(layout.n_minus),
                      rng.standard_normal(layout.n_plus))
    bound = np.abs(field.plus).max() / mesh.h  # crude Lipschitz constant
    eps = 1e-9
    for p in ([0.51, 0.2], [-0.3, 0.62], [0.0, -0.52]):
        p = np.asarray(p)
        va, _ = evaluate(field, "plus", p - eps)
        vb, _ = evaluate(field, "plus", p + eps)
        assert abs(va - vb) <= 10.0 * bound * eps


def test_field_pair_round_trip(circle_layout):
    layout = circle_layout(1)
    rng = np.random.default_rng(11)
    vec = rng.standard_normal(layout.n_total)
    field = FieldPair.from_global(layout, vec)
    np.testing.assert_array_equal(field.to_global(), vec)
    with pytest.raises(ValueError):
        FieldPair.from_global(layout, vec[:-1])
