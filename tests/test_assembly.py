"""Bilinear form assembly: structure, consistency, and oracle comparisons."""
import numpy as np
import pytest
import scipy.sparse as sp

from cutnitsche.assembly import (assemble_bilinear, assemble_load,
                                 assemble_parts, assemble_vnorm_gram,
                                 build_system, dump_matrix, expand_solution)
from cutnitsche.cutcell import classify
from cutnitsche.levelset import LevelSet, make_circle
from cutnitsche.mesh import build_mesh
from cutnitsche.problems import ProblemSpec, example_circle, patch_problem
from cutnitsche.solver import solve
from cutnitsche.space import build_spaces, interpolate_pair


def uncut_setup():
    mesh = build_mesh(1)
    ls = LevelSet(phi=lambda x: (x[..., 0] - 10.0) ** 2 + x[..., 1] ** 2 - 1.0)
    topo = classify(mesh, ls)
    layout = build_spaces(mesh, topo)
    return mesh, topo, layout


def test_uncut_matrix_is_standard_p1_stiffness():
    mesh, topo, layout = uncut_setup()
    spec = ProblemSpec(rho_minus=1.0, rho_plus=1.0)
    system = build_system(mesh, topo, layout, spec)

    # textbook reassembly straight from the vertex coordinates
    n = mesh.n_nodes
    K = np.zeros((n, n))
    for conn in mesh.elements:
        p = mesh.nodes[conn]
        d1, d2 = p[1] - p[0], p[2] - p[0]
        twice_a = d1[0] * d2[1] - d1[1] * d2[0]
        g = np.array([p[2] - p[1], p[0] - p[2], p[1] - p[0]])
        g = np.column_stack([-g[:, 1], g[:, 0]]) / twice_a
        K[np.ix_(conn, conn)] += 0.5 * twice_a * (g @ g.T)
    interior = ~mesh.boundary_node
    np.testing.assert_allclose(system.matrix.toarray(),
                               K[np.ix_(interior, interior)], atol=1e-12)


def test_penalty_part_matches_chord_mass_oracle():
    # straight vertical cut, gamma_g = 0: the penalty is the only
    # interface stabilisation and must equal (gamma rho^- / h_T) times
    # the chord mass matrix in jump variables
    mesh = build_mesh(1)
    c = -0.55 + mesh.h / 3.0
    topo = classify(mesh, LevelSet(phi=lambda x: x[..., 0] - c))
    layout = build_spaces(mesh, topo)
    spec = ProblemSpec(rho_minus=3.0, rho_plus=3.0, gamma=10.0,
                       gamma_g_minus=0.0, gamma_g_plus=0.0)
    parts = assemble_parts(mesh, topo, layout, spec)
    got = (spec.gamma * spec.penalty_rho() * parts["penalty_base"]).toarray()

    grams = np.zeros((layout.n_total, layout.n_total))
    for k, t in enumerate(topo.cut_ids):
        conn = mesh.elements[t]
        coords = mesh.nodes[conn]
        pq = np.stack([topo.chord_p[k],
                       0.5 * (topo.chord_p[k] + topo.chord_q[k]),
                       topo.chord_q[k]])
        # barycentric coordinates of endpoint/midpoint/endpoint
        lam = np.empty((3, 3))
        for r, x in enumerate(pq):
            d1 = coords[1] - coords[0]
            d2 = coords[2] - coords[0]
            det = d1[0] * d2[1] - d1[1] * d2[0]
            rr = x - coords[0]
            l1 = (rr[0] * d2[1] - rr[1] * d2[0]) / det
            l2 = (d1[0] * rr[1] - d1[1] * rr[0]) / det
            lam[r] = (1.0 - l1 - l2, l1, l2)
        L = topo.chord_len[k]
        # Simpson rule, exact for the quadratic integrand
        M = L / 6.0 * (np.outer(lam[0], lam[0]) + 4.0 * np.outer(lam[1], lam[1])
                       + np.outer(lam[2], lam[2]))
        dofs = np.concatenate([layout.global_dofs("minus", conn),
                               layout.global_dofs("plus", conn)])
        block = np.block([[M, -M], [-M, M]])
        grams[np.ix_(dofs, dofs)] += block
    want = spec.gamma * spec.penalty_rho() / mesh.h_elem * grams
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("weighting", ["minus_sided", "harmonic"])
def test_matrix_symmetry(weighting, circle_layout):
    mesh, topo, layout = circle_layout(3)
    _, spec = example_circle(1.0, 1e4, weighting=weighting)
    a = assemble_bilinear(mesh, topo, layout, spec)
    gap = abs(a - a.T).max()
    assert gap <= 1e-12 * abs(a).max()


@pytest.mark.parametrize("level", [1, 2])
def test_reduced_matrix_spd(level, circle_layout):
    mesh, topo, layout = circle_layout(level)
    _, spec = example_circle(1.0, 1e4)
    system = build_system(mesh, topo, layout, spec)
    eigs = np.linalg.eigvalsh(system.matrix.toarray())
    assert eigs.min() > 0.0


def test_vnorm_gram_positive(circle_layout):
    mesh, topo, layout = circle_layout(1)
    _, spec = example_circle(1.0, 1e4)
    g = assemble_vnorm_gram(mesh, topo, layout, spec)
    assert abs(g - g.T).max() <= 1e-12 * abs(g).max()
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = rng.standard_normal(layout.n_total)
        assert v @ (g @ v) >= 0.0


def test_scaling_invariance(circle_layout):
    # multiplying (rho, f, beta) by a common factor leaves u unchanged
    mesh, topo, layout = circle_layout(2)
    c = 7.0
    f0 = lambda x: np.sin(x[..., 0]) + x[..., 1]
    alpha = lambda x: 0.2 + x[..., 0]
    beta = lambda x: x[..., 0] * x[..., 1]
    g0 = lambda x: x[..., 0] - 0.5 * x[..., 1]
    spec1 = ProblemSpec(rho_minus=2.0, rho_plus=5.0, f_minus=f0, f_plus=f0,
                        jump_value=alpha, jump_flux=beta, dirichlet=g0)
    spec2 = ProblemSpec(rho_minus=2.0 * c, rho_plus=5.0 * c,
                        f_minus=lambda x: c * f0(x), f_plus=lambda x: c * f0(x),
                        jump_value=alpha, jump_flux=lambda x: c * beta(x),
                        dirichlet=g0)
    xs = []
    for spec in (spec1, spec2):
        system = build_system(mesh, topo, layout, spec)
        x, _ = solve(system)
        xs.append(x)
    np.testing.assert_allclose(xs[0], xs[1], atol=1e-10 * np.abs(xs[0]).max())


def test_zero_data_gives_zero_solution(circle_layout):
    mesh, topo, layout = circle_layout(1)
    spec = ProblemSpec(rho_minus=1.0, rho_plus=1e4)
    system = build_system(mesh, topo, layout, spec)
    assert np.all(system.rhs == 0.0)
    x, stats = solve(system)
    assert np.all(x == 0.0)


def test_patch_solution_is_exact_nodally(circle_layout):
    mesh, topo, layout = circle_layout(2)
    _, spec = patch_problem()
    system = build_system(mesh, topo, layout, spec)
    x, stats = solve(system)
    u_h = expand_solution(system, x)
    exact = interpolate_pair(layout, spec.exact_minus, spec.exact_plus)
    np.testing.assert_allclose(u_h.minus, exact.minus, atol=1e-10)
    np.testing.assert_allclose(u_h.plus, exact.plus, atol=1e-10)
    assert stats.relative_residual <= 1e-12


def test_load_jump_terms_enter_rhs(circle_layout):
    mesh, topo, layout = circle_layout(1)
    spec_plain = ProblemSpec(rho_minus=1.0, rho_plus=1.0)
    spec_jump = ProblemSpec(rho_minus=1.0, rho_plus=1.0,
                            jump_value=lambda x: np.ones(x.shape[:-1]))
    b0 = assemble_load(mesh, topo, layout, spec_plain)
    b1 = assemble_load(mesh, topo, layout, spec_jump)
    assert np.all(b0 == 0.0)
    assert np.any(b1 != 0.0)
    # the jump data only touches dofs of cut elements
    cut_dofs = np.zeros(layout.n_total, dtype=bool)
    for side in ("minus", "plus"):
        d = layout.global_dofs(side, mesh.elements[topo.cut_ids]).ravel()
        cut_dofs[d] = True
    assert np.all(b1[~cut_dofs] == 0.0)


def test_dump_matrix_round_trip(tmp_path):
    a = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    path = tmp_path / "matrix.txt"
    dump_matrix(a, path)
    lines = path.read_text().splitlines()
    head = lines[0].split()
    assert head[0] == "%"
    assert [int(v) for v in head[1:]] == [2, 2, 4]
    rebuilt = np.zeros((2, 2))
    for line in lines[1:]:
        r, c, v = line.split()
        rebuilt[int(r), int(c)] = float(v)
    np.testing.assert_allclose(rebuilt, a.toarray())
