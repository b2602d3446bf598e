"""Interface descriptions: roots on edges, reflection, sign conventions."""
import ast
import dataclasses
import pathlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cutnitsche.cutcell import classify
from cutnitsche.levelset import (SIDES, CoarseMeshError, GeometryError, LevelSet,
                                 make_circle, make_flower, reflect_many)
from cutnitsche.mesh import build_mesh

R = 1.0 / 3.0


def test_circle_values_and_signs():
    ls = make_circle()
    assert abs(ls.value(np.array([R, 0.0]))) <= 1e-15
    assert ls.value(np.array([0.0, 0.0])) < 0.0
    assert ls.side_sign(np.array([0.0, 0.0])) < 0.0
    flipped = make_circle(inclusion_side="plus")
    assert flipped.side_sign(np.array([0.0, 0.0])) > 0.0
    with pytest.raises(ValueError):
        make_circle(radius=1.5)
    with pytest.raises(ValueError):
        LevelSet(phi=lambda x: x[..., 0], inclusion_side="bogus")


def test_only_levelset_spells_the_pair_of_side_names():
    # every loop or pairing over the two sides in the package reads SIDES
    def strings(literal):   # nested tuple and list literals included
        for item in literal.elts:
            if isinstance(item, (ast.Tuple, ast.List)):
                yield from strings(item)
            elif isinstance(item, ast.Constant):
                yield item.value

    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "cutnitsche"
    spelled = [f"{path.name}:{node.lineno}"
               for path in sorted(package.glob("*.py")) if path.name != "levelset.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.Tuple, ast.List)) and set(SIDES) <= set(strings(node))]
    assert spelled == []


@given(st.floats(min_value=-1.0, max_value=1.0), st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=-1.0, max_value=1.0), st.floats(min_value=-1.0, max_value=1.0))
def test_circle_lipschitz_bound(x0, y0, x1, y1):
    # the banded multi-root scan relies on |phi(a) - phi(b)| <= L |a - b|;
    # the circle's L is the float 1 about any point, so it costs no pass
    ls = make_circle()
    a, b = np.array([x0, y0]), np.array([x1, y1])
    bound = ls.grad_bound(np.stack([a, b]), np.hypot(*(a - b)))
    assert bound == 1.0 and np.ndim(bound) == 0
    assert abs(ls.value(a) - ls.value(b)) <= bound * np.hypot(*(a - b)) + 1e-15


@given(st.floats(min_value=-0.6, max_value=0.6), st.floats(min_value=-0.6, max_value=0.6),
       st.floats(min_value=1e-3, max_value=0.3),
       st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=2.0 * np.pi),
       st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=2.0 * np.pi))
def test_flower_gradient_bound(cx, cy, radius, s, t, u, v):
    # the bound about c dominates the difference quotient of phi between
    # any two points of the disc of that radius about c, and |grad phi|
    # at c itself, which reaches it where cos(5 theta) = +-1
    ls = make_flower()
    c = np.array([cx, cy])
    a = c + s * radius * np.array([np.cos(t), np.sin(t)])
    b = c + u * radius * np.array([np.cos(v), np.sin(v)])
    bound = ls.grad_bound(c[None], radius)
    assert bound.shape == (1,) and bound[0] >= 1.0
    if np.hypot(cx, cy) <= radius:   # the disc holds the pinch point at the origin
        assert bound[0] == np.inf
        return
    assert abs(ls.value(a) - ls.value(b)) <= bound[0] * np.hypot(*(a - b)) + 1e-15
    at_c = ls.grad_bound(c[None], 0.0)[0]
    assert np.hypot(*ls.gradient(c)) <= at_c * (1.0 + 1e-12) and at_c <= bound[0]
    tip = np.array([np.cos(np.pi / 5.0), np.sin(np.pi / 5.0)]) * (radius + 0.1)
    assert np.hypot(*ls.gradient(tip)) == pytest.approx(ls.grad_bound(tip[None], 0.0)[0],
                                                        rel=1e-12)


@pytest.mark.parametrize("bound", [0.0, -1.0, np.nan, np.inf])
def test_bound_that_would_switch_off_the_scan_is_refused(bound):
    # with 0, -1 or NaN anywhere the band admitted no edge there, and the
    # level-1 grid, on which this circle crosses an edge twice, classified
    # without error; classify refuses them, at one node as everywhere.
    # inf admits every edge, so the scan finds the double crossing
    circle = make_circle(0.36)
    mesh = build_mesh(1)
    with pytest.raises(CoarseMeshError):
        classify(mesh, circle)
    everywhere = dataclasses.replace(circle, grad_bound=lambda x, radius: bound)
    at_one_node = dataclasses.replace(
        circle, grad_bound=lambda x, radius: np.where(np.arange(len(x)) == 5, bound, 1.0))
    for ls in (everywhere, at_one_node):
        if bound == np.inf:
            with pytest.raises(CoarseMeshError):
                classify(mesh, ls)
        else:
            with pytest.raises(ValueError, match=r"gradient bound of circle\[r=0.36\] must be > 0"):
                classify(mesh, ls)


def test_normal_minus_orientation():
    # points from the minus into the plus side on either orientation
    p = np.array([R, 0.0])
    n_in = make_circle().normal_minus(p)
    np.testing.assert_allclose(n_in, [1.0, 0.0], atol=1e-12)
    n_out = make_circle(inclusion_side="plus").normal_minus(p)
    np.testing.assert_allclose(n_out, [-1.0, 0.0], atol=1e-12)


def test_edge_root_multi_root_rejected():
    # at level 1 some grid edge stabs this circle twice
    with pytest.raises(CoarseMeshError):
        classify(build_mesh(1), make_circle(radius=0.356))


def test_edge_root_endpoint_on_interface():
    # the level-1 grid has four nodes on the circle; each ends a chord itself
    mesh = build_mesh(1)
    topo = classify(mesh, make_circle())
    ends = np.vstack([topo.chord_p, topo.chord_q])
    on_interface = mesh.nodes[topo.node_sign == 0]
    assert on_interface.shape[0] == 4
    for z in on_interface:
        assert np.any(np.all(ends == z, axis=1))


def test_edge_root_residual():
    # every chord ends at a bisected edge root or a snapped grid node
    for level in (1, 2, 3):
        for side in ("minus", "plus"):
            ls = make_circle(inclusion_side=side)
            topo = classify(build_mesh(level), ls)
            assert topo.n_cut > 0
            assert np.max(np.abs(ls.value(topo.chord_p))) <= 1e-13
            assert np.max(np.abs(ls.value(topo.chord_q))) <= 1e-13


def test_flower_values():
    ls = make_flower()
    assert np.isclose(ls.value(np.array([0.0, 0.0])), -1.0 / 18.0, atol=1e-15)
    on_curve = np.array([1.0 / 18.0, 0.0])  # theta = 0, radius = base
    assert abs(ls.value(on_curve)) <= 1e-13
    assert ls.simple is False
    assert make_circle().simple is True


def test_flower_gradient_matches_fd():
    ls = make_flower()
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.5, 0.5, size=(40, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 0.05]
    g = ls.gradient(pts)
    eps = 1e-7
    for k in (0, 1):
        dp = pts.copy()
        dm = pts.copy()
        dp[:, k] += eps
        dm[:, k] -= eps
        fd = (ls.phi(dp) - ls.phi(dm)) / (2.0 * eps)
        np.testing.assert_allclose(g[:, k], fd, atol=1e-6)


def test_reflect_radial_point():
    # reflection across the circle maps radius r to 2R - r
    ls = make_circle()
    y = reflect_many(ls, np.array([[0.4, 0.0]]))
    np.testing.assert_allclose(y, [[2.0 * R - 0.4, 0.0]], atol=1e-8)


def test_reflect_fixed_point_on_interface():
    ls = make_circle()
    p = np.array([[R, 0.0]])
    np.testing.assert_allclose(reflect_many(ls, p), p, atol=1e-12)


def test_reflect_outside_tube():
    ls = make_circle()
    with pytest.raises(GeometryError):
        reflect_many(ls, np.array([[0.3, 0.0], [0.9, 0.0]]))


@given(st.floats(min_value=-0.095, max_value=0.095),
       st.floats(min_value=0.0, max_value=2.0 * np.pi))
def test_reflect_involution_and_sign_flip(d, theta):
    ls = make_circle()
    direction = np.array([np.cos(theta), np.sin(theta)])
    x = (R + d) * direction
    y = reflect_many(ls, x[None])[0]
    np.testing.assert_allclose(y, (R - d) * direction, atol=1e-8)
    assert abs(ls.value(y) + ls.value(x)) <= 1e-8
    back = reflect_many(ls, y[None])[0]
    assert np.hypot(*(back - x)) <= 1e-8


def test_reflect_many_matches_scalar():
    # a batch reflects each point exactly as a batch of one does
    ls = make_flower()
    tip = np.pi / 10.0  # petal tip direction, radius 1/18 + 0.2
    pts = np.stack([
        0.20 * np.array([np.cos(tip), np.sin(tip)]),
        0.30 * np.array([np.cos(tip), np.sin(tip)]),
        0.25 * np.array([np.cos(0.25), np.sin(0.25)]),
    ])
    batch = reflect_many(ls, pts)
    for x, y in zip(pts, batch):
        np.testing.assert_array_equal(reflect_many(ls, x[None])[0], y)


def test_gradient_without_grad_is_refused():
    ls = LevelSet(phi=lambda x: x[..., 0] ** 2 - x[..., 1], name="parabola")
    with pytest.raises(ValueError, match="'parabola' has no gradient"):
        ls.gradient(np.array([0.3, 0.2]))
