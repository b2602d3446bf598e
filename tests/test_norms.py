"""Error measures and convergence-order estimation."""
import numpy as np
import pytest

from cutnitsche.harness import RunConfig, make_problem, run_solve
from cutnitsche.norms import ErrorReport, eoc, error_report
from cutnitsche.problems import ProblemSpec, example_circle, patch_problem
from cutnitsche.space import FieldPair, interpolate_pair


def test_eoc_basic_examples():
    np.testing.assert_allclose(eoc([4.0, 1.0], [1.0, 0.5]), [2.0], atol=1e-14)
    # published convergence tables round the errors; the recomputed
    # order of the 1.9e-2 -> 6.2e-3 pair lands within 0.05 of 1.64
    order = eoc([1.9e-2, 6.2e-3], [1.0, 0.5])[0]
    assert abs(order - 1.64) <= 0.05


def test_eoc_edge_cases():
    assert eoc([1.0], [0.5]).size == 0
    np.testing.assert_array_equal(eoc([2.0, 2.0], [1.0, 0.5]), [0.0])
    out = eoc([1.0, 0.0, 3.0], [1.0, 0.5, 0.25])
    assert np.isnan(out[0]) and np.isnan(out[1])
    # equal, zero, negative or nonfinite mesh sizes leave the order undefined
    assert np.isnan(eoc([1e-2, 5e-3], [0.1, 0.1])).all()
    assert np.isnan(eoc([1e-2, 5e-3], [0.0, 0.05])).all()
    out = eoc([1.0, 0.5, 0.25, 0.125], [-0.5, 0.25, np.inf, 0.0625])
    assert np.isnan(out).all()
    with pytest.raises(ValueError):
        eoc([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        eoc([[1.0, 2.0]], [[1.0, 0.5]])


def test_interpolated_exact_linear_has_zero_error(circle_layout):
    layout = circle_layout(2)
    _, spec = patch_problem()
    u_h = interpolate_pair(layout, spec.exact_minus, spec.exact_plus)
    rep = error_report(spec, u_h)
    for name in ("e0", "einf", "eflux", "efluxinf", "esqrt", "vnorm", "vanorm"):
        assert getattr(rep, name) <= 1e-12, name


def test_error_report_requires_exact_solution(circle_layout):
    layout = circle_layout(1)
    spec = ProblemSpec(rho_minus=1.0, rho_plus=1.0)
    with pytest.raises(ValueError, match="exact"):
        error_report(spec, FieldPair.from_global(layout, np.zeros(layout.n_total)))


def hand_gradient_error_sq(spec, u_h, weight):
    """Independent route: loop over clipped quadrature, constant P1 grads."""
    layout = u_h.layout
    mesh, topo = layout.mesh, layout.topo
    total = 0.0
    for side in ("minus", "plus"):
        w = weight(spec.rho(side))
        ptr, points, weights = topo.quadrature(side, slice(None))
        elems = np.repeat(np.arange(mesh.n_elems), np.diff(ptr))
        coeffs = u_h.side(side)
        dofmap = layout.node_dof(side)
        for t, x, qw in zip(elems, points, weights):
            conn = mesh.elements(t)
            gh = coeffs[dofmap[conn]] @ mesh.grads(t)
            gx = spec.grad(side)(x[None, :])[0]
            total += w * qw * float(np.sum((gx - gh) ** 2))
    return total


def test_flux_error_two_routes(circle_layout):
    layout = circle_layout(1)
    _, spec = example_circle(1.0, 1e4)
    rng = np.random.default_rng(2)
    u_h = FieldPair(layout, rng.standard_normal(layout.n_minus) * 0.1,
                    rng.standard_normal(layout.n_plus) * 0.1)
    rep = error_report(spec, u_h)
    hand = hand_gradient_error_sq(spec, u_h, weight=lambda rho: rho * rho)
    assert abs(rep.eflux - np.sqrt(hand)) <= 1e-10 * rep.eflux
    # esqrt uses the same integrand weighted by rho instead of rho^2
    hand_sqrt = hand_gradient_error_sq(spec, u_h, weight=lambda rho: rho)
    assert abs(rep.esqrt - np.sqrt(hand_sqrt)) <= 1e-10 * rep.esqrt


def test_esqrt_between_coefficient_bounds(circle_layout):
    layout = circle_layout(1)
    _, spec = example_circle(1.0, 1e4)
    rng = np.random.default_rng(4)
    u_h = FieldPair(layout, rng.standard_normal(layout.n_minus),
                    rng.standard_normal(layout.n_plus))
    rep = error_report(spec, u_h)
    plain = hand_gradient_error_sq(spec, u_h, weight=lambda rho: 1.0)
    lo = min(spec.rho_minus, spec.rho_plus) * plain
    hi = max(spec.rho_minus, spec.rho_plus) * plain
    assert np.sqrt(lo) * (1 - 1e-12) <= rep.esqrt <= np.sqrt(hi) * (1 + 1e-12)


def test_esqrt_equals_scaled_flux_for_equal_coefficients(circle_layout):
    layout = circle_layout(1)
    _, spec = example_circle(4.0, 4.0)
    rng = np.random.default_rng(6)
    u_h = FieldPair(layout, rng.standard_normal(layout.n_minus),
                    rng.standard_normal(layout.n_plus))
    rep = error_report(spec, u_h)
    assert rep.esqrt == pytest.approx(rep.eflux / 2.0, rel=1e-13)


def test_energy_norm_dominates_esqrt(circle_layout):
    layout = circle_layout(1)
    _, spec = example_circle(1.0, 1e4)
    rng = np.random.default_rng(8)
    u_h = FieldPair(layout, rng.standard_normal(layout.n_minus),
                    rng.standard_normal(layout.n_plus))
    rep = error_report(spec, u_h)
    assert rep.vnorm >= rep.esqrt
    assert rep.vanorm >= rep.vnorm
    assert rep.e0 >= max(rep.e0_minus, rep.e0_plus)
    assert rep.e0 <= rep.e0_minus + rep.e0_plus + 1e-15


def test_nan_coefficient_makes_every_error_nan():
    # Python's max(0.0278, nan) keeps 0.0278: the sup norms once hid a NaN
    config = RunConfig(example="1", level=2)
    result = run_solve(config)
    _, spec = make_problem(config)
    assert np.isfinite(result.report.einf) and np.isfinite(result.report.efluxinf)
    result.field.minus[0] = np.nan
    rep = error_report(spec, result.field)
    for name in ("e0", "einf", "eflux", "efluxinf", "esqrt", "vnorm", "vanorm"):
        assert np.isnan(getattr(rep, name)), name


def test_as_dict_schema():
    rep = ErrorReport(level=1, h=0.5, e0=1.0, einf=2.0, eflux=3.0,
                      efluxinf=4.0, esqrt=5.0, vnorm=6.0, vanorm=7.0,
                      e0_minus=0.5, e0_plus=0.6, eflux_minus=0.7,
                      eflux_plus=0.8)
    d = rep.as_dict()
    assert list(d) == ["level", "h", "e0", "einf", "eflux", "efluxinf",
                       "esqrt", "vnorm", "vanorm", "e0_minus", "e0_plus",
                       "eflux_minus", "eflux_plus"]
    assert d["e0"] == 1.0 and d["level"] == 1
