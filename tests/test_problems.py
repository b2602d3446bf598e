"""Problem data: manufactured solutions, jump data, coefficient handling."""
import numpy as np
import pytest
import sympy as sp

from cutnitsche.problems import (ProblemSpec, example_circle, example_flower,
                                 patch_problem)

R = 1.0 / 3.0


def circle_points(n=12, radius=R):
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False) + 0.1
    return radius * np.column_stack([np.cos(th), np.sin(th)])


def test_circle_solution_is_continuous():
    ls, spec = example_circle(1.0, 1e4)
    pts = circle_points()
    np.testing.assert_allclose(spec.exact_minus(pts), spec.exact_plus(pts),
                               atol=1e-14)
    # flux rho * grad(u) . n matches across the interface as well
    n = ls.normal_minus(pts)
    flux_m = spec.rho_minus * np.sum(spec.grad_minus(pts) * n, axis=1)
    flux_p = spec.rho_plus * np.sum(spec.grad_plus(pts) * n, axis=1)
    np.testing.assert_allclose(flux_m, flux_p, atol=1e-12)
    assert spec.jump_value is None and spec.jump_flux is None


def test_circle_source_and_boundary():
    _, spec = example_circle(2.0, 3.0)
    pts = np.array([[0.1, 0.2], [0.9, -0.9]])
    np.testing.assert_allclose(spec.f_minus(pts), -4.0)
    np.testing.assert_allclose(spec.f_plus(pts), -4.0)
    # outer data is the trace of the outside branch
    np.testing.assert_allclose(spec.dirichlet(pts), spec.exact_plus(pts))
    ls_rev, spec_rev = example_circle(2.0, 3.0, inclusion_side="plus")
    np.testing.assert_allclose(spec_rev.dirichlet(pts), spec_rev.exact_minus(pts))
    assert ls_rev.inclusion_side == "plus"


def test_circle_gradients_match_solution():
    _, spec = example_circle(1.0, 1e4)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.9, 0.9, size=(30, 2))
    eps = 1e-6
    for g, u in ((spec.grad_minus, spec.exact_minus),
                 (spec.grad_plus, spec.exact_plus)):
        for k in (0, 1):
            dp = pts.copy()
            dm = pts.copy()
            dp[:, k] += eps
            dm[:, k] -= eps
            fd = (u(dp) - u(dm)) / (2.0 * eps)
            np.testing.assert_allclose(g(pts)[:, k], fd, atol=1e-8)


def flower_oracle():
    """Symbolically derived data for the flower example at rho = (2, 5)."""
    x, y = sp.symbols("x y", real=True)
    rho_m, rho_p = sp.Integer(2), sp.Integer(5)
    r2 = x * x + y * y
    u_m = r2 ** 2 / rho_m
    u_p = y * sp.sqrt(r2) / rho_p
    f_m = -rho_m * (sp.diff(u_m, x, 2) + sp.diff(u_m, y, 2))
    f_p = -rho_p * (sp.diff(u_p, x, 2) + sp.diff(u_p, y, 2))
    grads = {
        "m": (sp.diff(u_m, x), sp.diff(u_m, y)),
        "p": (sp.diff(u_p, x), sp.diff(u_p, y)),
    }
    lam = sp.lambdify((x, y), (u_m, u_p, f_m, f_p,
                               *grads["m"], *grads["p"]), "numpy")
    return lam


def flower_curve_points(n=24):
    """Points on the petal boundary with the outward parametric normal."""
    s = np.linspace(0.05, 2.0 * np.pi, n, endpoint=False)
    rad = 1.0 / 18.0 + 0.2 * np.sin(5.0 * s)
    keep = rad > 0.02  # stay away from the pinch points
    s, rad = s[keep], rad[keep]
    pts = rad[:, None] * np.column_stack([np.cos(s), np.sin(s)])
    drad = np.cos(5.0 * s)  # d/ds of 0.2 sin(5s)
    tx = drad * np.cos(s) - rad * np.sin(s)
    ty = drad * np.sin(s) + rad * np.cos(s)
    # interior of the petal lies left of the tangent, so outward = right
    normals = np.column_stack([ty, -tx])
    normals /= np.hypot(normals[:, 0], normals[:, 1])[:, None]
    return pts, normals


def test_flower_sources_match_symbolic_laplacian():
    _, spec = example_flower(2.0, 5.0)
    lam = flower_oracle()
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.8, 0.8, size=(40, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 1e-3]
    u_m, u_p, f_m, f_p, gmx, gmy, gpx, gpy = lam(pts[:, 0], pts[:, 1])
    np.testing.assert_allclose(spec.f_minus(pts), f_m, rtol=1e-12)
    np.testing.assert_allclose(spec.f_plus(pts), f_p, rtol=1e-12)
    np.testing.assert_allclose(spec.exact_minus(pts), u_m, rtol=1e-12)
    np.testing.assert_allclose(spec.exact_plus(pts), u_p, rtol=1e-12)
    np.testing.assert_allclose(spec.grad_minus(pts),
                               np.column_stack([gmx, gmy]), rtol=1e-11)
    np.testing.assert_allclose(spec.grad_plus(pts),
                               np.column_stack([gpx, gpy]), rtol=1e-11)


def test_flower_jump_data_against_parametric_normal():
    ls, spec = example_flower(2.0, 5.0)
    lam = flower_oracle()
    pts, normals = flower_curve_points()
    u_m, u_p, _, _, gmx, gmy, gpx, gpy = lam(pts[:, 0], pts[:, 1])
    alpha = u_p - u_m
    np.testing.assert_allclose(spec.jump_value(pts), alpha, atol=1e-12)
    # level-set normal agrees with the parametric outward normal on the curve
    np.testing.assert_allclose(ls.normal_minus(pts), normals, atol=1e-8)
    beta = (2.0 * np.column_stack([gmx, gmy])
            - 5.0 * np.column_stack([gpx, gpy]))
    beta = np.sum(beta * normals, axis=1)
    np.testing.assert_allclose(spec.jump_flux(pts), beta, atol=1e-8)


def test_flower_flux_jump_finite_difference():
    # cross-check beta via one-sided finite differences of the solutions
    _, spec = example_flower(2.0, 5.0)
    pts, normals = flower_curve_points(n=12)
    eps = 1e-6
    dm = (spec.exact_minus(pts + eps * normals)
          - spec.exact_minus(pts - eps * normals)) / (2.0 * eps)
    dp = (spec.exact_plus(pts + eps * normals)
          - spec.exact_plus(pts - eps * normals)) / (2.0 * eps)
    np.testing.assert_allclose(spec.jump_flux(pts), 2.0 * dm - 5.0 * dp,
                               atol=1e-6)


def test_patch_problem_data():
    ls, spec = patch_problem()
    pts = np.array([[0.3, -0.4], [0.0, 0.0]])
    np.testing.assert_allclose(spec.exact_minus(pts), 1.0 + pts[:, 0] + 2.0 * pts[:, 1])
    np.testing.assert_allclose(spec.grad_plus(pts), [[1.0, 2.0]] * 2)
    np.testing.assert_allclose(spec.hess_minus(pts), 0.0)
    assert spec.f_minus is None and spec.f_plus is None
    assert spec.rho_minus == spec.rho_plus == 1.0
    with pytest.raises(ValueError):
        patch_problem(rho_minus=1.0, rho_plus=2.0)


def test_weighting_formulas():
    _, spec = example_circle(2.0, 6.0)
    assert spec.flux_weights() == (1.0, 0.0)
    assert spec.penalty_rho() == 2.0
    _, harm = example_circle(2.0, 6.0, weighting="harmonic")
    w_m, w_p = harm.flux_weights()
    assert np.isclose(w_m, 6.0 / 8.0)
    assert np.isclose(w_p, 2.0 / 8.0)
    assert np.isclose(harm.penalty_rho(), 2.0 * 2.0 * 6.0 / 8.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(rho_minus=-1.0, rho_plus=1.0)
    with pytest.raises(ValueError):
        ProblemSpec(rho_minus=1.0, rho_plus=1.0, gamma=0.0)
    with pytest.raises(ValueError):
        ProblemSpec(rho_minus=1.0, rho_plus=1.0, gamma_g_minus=-0.5)
    with pytest.raises(ValueError):
        ProblemSpec(rho_minus=1.0, rho_plus=1.0, weighting="midpoint")
    for name in ("rho_minus", "rho_plus", "gamma", "gamma_g_minus", "gamma_g_plus"):
        for value in (np.inf, np.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ProblemSpec(**{"rho_minus": 1.0, "rho_plus": 1.0, name: value})
    spec = ProblemSpec(rho_minus=3.0, rho_plus=4.0)
    assert spec.rho("minus") == 3.0 and spec.rho("plus") == 4.0
    assert not spec.has_exact()
