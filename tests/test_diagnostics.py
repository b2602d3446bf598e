"""Tests of the structural diagnostics: patch areas, coercivity probe,
interpolation profile, and the discrete extension operator."""
import dataclasses
import os
import pathlib
import subprocess
import sys
from functools import partial

import numpy as np
import pytest
import scipy.sparse

import cutnitsche
from cutnitsche.assembly import _ghost_part, assemble_vnorm_gram, build_system, part_rows, stacked
from cutnitsche import mesh as mesh_module
from cutnitsche.cutcell import classify
from cutnitsche.diagnostics import (_EXTENSION_FIELDS, _EXTENSION_SEED, _cutoff,
                                    _extension_blocks, _h1_matrices, _pointwise,
                                    build_extension, coercivity_probe,
                                    interpolation_error_profile,
                                    patch_area_ratio, run_diagnostics)
from cutnitsche.harness import RunConfig, make_problem
from cutnitsche.levelset import _TUBE, GeometryError, LevelSet, make_circle, reflect_many
from cutnitsche.mesh import BLOCK, barycentric_many, build_mesh
from cutnitsche.norms import error_report
from cutnitsche.problems import example_circle, patch_problem
from cutnitsche.space import build_spaces, interpolate_pair, locate_on_side
from mesh_reference import assert_same_csr


# ---------------------------------------------------------------------------
# patch areas

def test_patch_ratio_uncut_mesh():
    # interface far away: every element is whole, best patch area is
    # h^2/2 against h_T^2 = 2 h^2
    mesh = build_mesh(2)
    all_minus = LevelSet(phi=lambda x: 1.0 - (x[..., 0] - 10.0) ** 2 - x[..., 1] ** 2)
    topo = classify(mesh, all_minus)
    res = patch_area_ratio(topo, "minus")
    assert np.isclose(res.ratio, 0.25, atol=1e-12)
    assert 0 <= res.node < mesh.n_nodes

    empty = patch_area_ratio(topo, "plus")
    assert empty.ratio == float("inf")
    assert empty.node == -1


def test_patch_ratio_circle(circle_classified):
    _, topo = circle_classified(2)
    for side in ("minus", "plus"):
        res = patch_area_ratio(topo, side)
        assert np.isclose(res.ratio, 0.25, atol=1e-12)
        assert topo.node_sign[res.node] * (-1 if side == "minus" else 1) >= 0


# ---------------------------------------------------------------------------
# coercivity probe

def test_import_loads_no_dense_or_sparse_linalg():
    # each branch of coercivity_probe imports its own eigensolver, so a
    # fresh import of the package and this module loads neither
    code = ("import sys, cutnitsche, cutnitsche.diagnostics; "
            "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cutnitsche.__file__).parent.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_coercivity_probe_diagonal_pencils():
    a = scipy.sparse.diags([2.0, 2.0, 2.0]).tocsr()
    gram = scipy.sparse.identity(3, format="csr")
    assert np.isclose(coercivity_probe(a, gram, dense=True), 2.0)
    assert np.isclose(coercivity_probe(a, gram, dense=False), 2.0)

    a2 = scipy.sparse.diags([1.0, 5.0]).tocsr()
    g2 = scipy.sparse.diags([2.0, 1.0]).tocsr()
    assert np.isclose(coercivity_probe(a2, g2, dense=True), 0.5)


@pytest.mark.parametrize("inclusion_side", ["minus", "plus"])
def test_arnoldi_probe_equals_dense(inclusion_side):
    config = RunConfig(example="1", level=3, inclusion_side=inclusion_side)
    ls, spec = make_problem(config)
    mesh = build_mesh(3)
    layout = build_spaces(classify(mesh, ls))
    a = build_system(layout, spec).matrix
    gram = assemble_vnorm_gram(layout, spec)
    exact = coercivity_probe(a, gram, dense=True)
    assert coercivity_probe(a, gram, dense=False) == pytest.approx(exact, rel=1e-6)


def test_system_coercivity_level_one():
    config = RunConfig(example="1", level=1)
    mesh = build_mesh(1)
    ls, spec = make_problem(config)
    topo = classify(mesh, ls)
    layout = build_spaces(topo)
    system = build_system(layout, spec)
    gram = assemble_vnorm_gram(layout, spec)
    q = coercivity_probe(system.matrix, gram, dense=True)
    assert 0.0 < q <= 1.0 + 1e-9
    assert np.isclose(q, 0.9999976, atol=1e-5)


# ---------------------------------------------------------------------------
# interpolation profile

def test_interpolation_profile_circle():
    ls, spec = example_circle(1.0, 1e4)
    table = interpolation_error_profile(ls, spec, levels=(1, 2))
    assert table.columns == ("level", "h", "vanorm", "scale", "ratio")
    ratios = [row[4] for row in table.rows]
    assert np.allclose(ratios, [0.8746, 0.8012], rtol=2e-3)
    assert all(row[3] > 0.0 for row in table.rows)


def test_interpolation_profile_linear_solution():
    # zero Hessian: the scale vanishes and the interpolation error is
    # solver-level noise
    ls, spec = patch_problem()
    table = interpolation_error_profile(ls, spec, levels=(2,))
    level, h, vanorm, scale, ratio = table.rows[0]
    assert scale == 0.0
    assert ratio == 0.0
    assert vanorm < 1e-9


def test_interpolation_profile_needs_second_derivatives():
    ls, spec = example_circle(1.0, 1e4)
    bare = dataclasses.replace(spec, hess_minus=None)
    with pytest.raises(ValueError, match="second derivatives"):
        interpolation_error_profile(ls, bare, levels=(1,))


def test_interpolation_profile_needs_exact_solution():
    ls, spec = example_circle(1.0, 1e4)
    bare = dataclasses.replace(spec, grad_plus=None)
    with pytest.raises(ValueError, match="exact solution"):
        interpolation_error_profile(ls, bare, levels=(1,))


@pytest.mark.parametrize("config, levels", [
    (RunConfig(example="1"), (1, 2, 3, 4)),
    (RunConfig(example="1", inclusion_side="plus"), (1, 2, 3, 4)),
    (RunConfig(example="2"), (1, 2, 3)),
])
def test_interpolation_profile_vanorm_is_the_error_report_vanorm(config, levels):
    # the profile sums only the energy-norm terms; the full report of the
    # interpolant is the reference, to the bit.  The flower has no exact
    # Hessian, and vanorm does not read it: any one passes the check.
    ls, spec = make_problem(config)
    if spec.hess_minus is None:
        def hess(x):
            return np.ones(x.shape[:-1])
        spec = dataclasses.replace(spec, hess_minus=hess, hess_plus=hess)
    table = interpolation_error_profile(ls, spec, levels)
    assert [row[0] for row in table.rows] == list(levels)
    for level, row in zip(levels, table.rows):
        layout = build_spaces(classify(build_mesh(level), ls))
        u_i = interpolate_pair(layout, spec.exact("minus"), spec.exact("plus"))
        report = error_report(spec, u_i)
        assert row[1] == report.h
        assert row[2] == report.vanorm


# ---------------------------------------------------------------------------
# discrete extension

@pytest.fixture(scope="module")
def plus_inclusion():
    mesh = build_mesh(2)
    return build_spaces(classify(mesh, make_circle(inclusion_side="plus")))


def test_extension_matrix_structure(plus_inclusion):
    layout = plus_inclusion
    mesh, ls = layout.mesh, layout.topo.levelset
    op = build_extension(layout)
    assert op.matrix.shape == (mesh.n_nodes, layout.n_plus)
    assert op.h1_reach.shape == (mesh.n_nodes, mesh.n_nodes)
    assert op.h1_plus.shape == (layout.n_plus, layout.n_plus)

    keep = layout.node_dof_plus >= 0
    dist = np.abs(ls.value(mesh.nodes))
    for z in np.flatnonzero(keep):
        row = op.matrix.getrow(z)
        assert row.nnz == 1
        assert row.data[0] == 1.0
        assert row.indices[0] == layout.node_dof_plus[z]
    # beyond the tube the extension is identically zero
    for z in np.flatnonzero(~keep & (dist > _TUBE)):
        assert op.matrix.getrow(z).nnz == 0
    # inside the tube each row is a damped average: weights in [0, 1]
    sums = np.asarray(op.matrix.sum(axis=1)).ravel()
    cand = ~keep & (dist <= _TUBE)
    assert np.all(sums[cand] >= -1e-12)
    assert np.all(sums[cand] <= 1.0 + 1e-12)


def ref_extension_matrix(layout):
    """The extension matrix built one node at a time, one reflection
    batch per node, as before its passes were vectorised."""
    mesh, topo = layout.mesh, layout.topo
    ls = topo.levelset
    keep = layout.node_dof_plus >= 0
    rows, cols, vals = [], [], []
    for z in np.flatnonzero(keep):
        rows.append(z)
        cols.append(layout.node_dof_plus[z])
        vals.append(1.0)
    dist_nodes = np.abs(np.asarray(ls.value(mesh.nodes), dtype=float))
    for z in np.flatnonzero(~keep & (dist_nodes <= _TUBE)):
        pts_z, wts_z = [], []
        for t in mesh.node_elems([z])[1]:
            _, points, weights = topo.quadrature("minus", [t])
            pts_z.append(points)
            wts_z.append(weights)
        pts_z = np.concatenate(pts_z)
        wts_z = np.concatenate(wts_z)
        total = float(np.sum(wts_z))
        eta = _cutoff(np.abs(np.asarray(ls.value(pts_z), dtype=float)), _TUBE)
        live = eta > 0.0
        if total <= 0.0 or not np.any(live):
            continue
        refl = reflect_many(ls, pts_z[live])
        elems, lams = locate_on_side(layout, "plus", refl)
        if np.any(elems < 0):
            bad = refl[np.argmax(elems < 0)]
            raise GeometryError(f"reflected point {bad.tolist()} lies outside the plus-side mesh")
        dofs = layout.node_dof_plus[mesh.elements(elems)]
        coef = (wts_z[live] * eta[live] / total)[:, None] * lams
        rows.extend([z] * dofs.size)
        cols.extend(dofs.ravel())
        vals.extend(coef.ravel())
    return scipy.sparse.coo_matrix(
        (vals, (rows, cols)), shape=(mesh.n_nodes, layout.n_plus)).tocsr()


@pytest.mark.parametrize("level", [2, 3, 4])
def test_extension_matches_per_node_reference(level):
    mesh = build_mesh(level)
    ls = make_circle(inclusion_side="plus")
    topo = classify(mesh, ls)
    layout = build_spaces(topo)
    got = build_extension(layout).matrix
    want = ref_extension_matrix(layout)
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("level", [2, 3, 4])
def test_extension_in_small_blocks_matches_the_whole_array(monkeypatch, level):
    # at BLOCK 7 each slab of rows holds one candidate node; with BLOCK
    # 18 times the nodes, one slab holds every candidate, as the
    # whole-array pass did.  The operator and its Grams keep their bytes
    layout = build_spaces(classify(build_mesh(level), make_circle(inclusion_side="plus")))
    monkeypatch.setattr(mesh_module, "BLOCK", 18 * layout.mesh.n_nodes)
    whole = build_extension(layout)
    monkeypatch.setattr(mesh_module, "BLOCK", 7)
    small = build_extension(layout)
    for name in ("matrix", "h1_reach", "h1_plus"):
        assert_same_csr(getattr(small, name), getattr(whole, name))
    if level <= 3:
        assert_same_csr(small.matrix, ref_extension_matrix(layout))


def ref_h1(mesh, elems):
    """Node-indexed H1 Gram of the elements, mass plus stiffness, each
    through scipy's COO conversion."""
    n = mesh.n_nodes
    conn = mesh.elements(elems)
    area = mesh.areas(elems)
    kloc = area[:, None, None] * np.einsum("kid,kjd->kij", mesh.grads(elems), mesh.grads(elems))
    mloc = area[:, None, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0)
    rows, cols = np.repeat(conn, 3, axis=1).ravel(), np.tile(conn, (1, 3)).ravel()
    mass = scipy.sparse.coo_matrix((mloc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    stiff = scipy.sparse.coo_matrix((kloc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return (mass + stiff).tocsr()


@pytest.mark.parametrize("level", [2, 3])
def test_h1_matrices_match_the_coo_reference(monkeypatch, level):
    mesh = build_mesh(level)
    layout = build_spaces(classify(mesh, make_circle(inclusion_side="plus")))
    nodes = np.arange(mesh.n_nodes)
    plus = layout.topo.in_side("plus")
    sub = layout.dof_node_plus
    for block in (7, 16384):   # windows of a few rows, and one window
        monkeypatch.setattr(mesh_module, "BLOCK", block)
        for chosen in (np.ones(mesh.n_elems, dtype=bool), plus):
            assert_same_csr(_h1_matrices(mesh, chosen, (nodes, nodes)),
                            ref_h1(mesh, np.flatnonzero(chosen)))
        # in plus-DOF indexing: the node-indexed Gram restricted to the plus nodes
        assert_same_csr(_h1_matrices(mesh, plus, (layout.node_dof_plus, sub)),
                        ref_h1(mesh, np.flatnonzero(plus))[sub][:, sub])


def whole_mesh_gram(mesh):
    nodes = np.arange(mesh.n_nodes)
    return _h1_matrices(mesh, np.ones(mesh.n_elems, dtype=bool), (nodes, nodes))


@pytest.mark.parametrize("level,block", [(2, BLOCK), (3, BLOCK), (4, BLOCK), (5, BLOCK),
                                         (2, 7), (3, 7)])
def test_extension_gram_is_the_whole_mesh_gram_where_e_reaches(monkeypatch, level, block):
    # the Gram of E v is built over the elements with a node that E can
    # make nonzero: its rows there are the whole mesh's, the other rows
    # meet only zeros of E v, so every ratio keeps its bits
    monkeypatch.setattr(mesh_module, "BLOCK", block)
    layout = build_spaces(classify(build_mesh(level), make_circle(inclusion_side="plus")))
    op = build_extension(layout)
    whole = whole_mesh_gram(layout.mesh)
    reach = np.flatnonzero(np.diff(op.matrix.indptr) > 0)
    assert reach.size
    assert_same_csr(op.h1_reach[reach], whole[reach])
    assert op.h1_reach.nnz < 0.25 * whole.nnz
    ref = dataclasses.replace(op, h1_reach=whole)
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(layout.n_plus)
        assert op.stability_ratio(v) == ref.stability_ratio(v)


def ref_extension_blocks(levels):
    """Rows of both extension tables, E v measured by the whole-mesh Gram
    and the physical plus-side H1 Gram from the rule over every element."""
    ext_rows, trace_rows = [], []
    for level in levels:
        ls = make_circle(inclusion_side="plus")
        _, spec = patch_problem(interface=ls)
        layout = build_spaces(classify(build_mesh(level), ls))
        mesh, topo, n_plus = layout.mesh, layout.topo, layout.n_plus
        op = dataclasses.replace(build_extension(layout), h1_reach=whole_mesh_gram(mesh))
        ptr, pts, wts = topo.quadrature("plus", slice(None))
        elems = np.repeat(np.arange(mesh.n_elems), np.diff(ptr))
        conn = mesh.elements(elems)
        lam = barycentric_many(np.take(mesh.nodes, conn, axis=0), pts)
        dofs, grads = layout.node_dof_plus[conn], mesh.grads(elems)
        basis_val, gx, gy = (_pointwise(dofs, vals, n_plus)
                             for vals in (lam, grads[:, :, 0], grads[:, :, 1]))
        wdiag = scipy.sparse.diags(wts)
        h1_phys = basis_val.T @ wdiag @ basis_val + gx.T @ wdiag @ gx + gy.T @ wdiag @ gy
        ghost = stacked(layout.n_total,
                        partial(part_rows, layout.n_total, _ghost_part(layout, spec, "plus")))
        rng = np.random.default_rng(_EXTENSION_SEED)
        best_ext = best_trace = 0.0
        for _ in range(_EXTENSION_FIELDS):
            v = rng.standard_normal(n_plus)
            best_ext = max(best_ext, op.stability_ratio(v))
            g = np.zeros(layout.n_total)
            g[layout.n_minus:] = v
            den = float(v @ (h1_phys @ v)) + float(g @ (ghost @ g))
            best_trace = max(best_trace, float(v @ (op.h1_plus @ v)) / den)
        ext_rows.append((level, _EXTENSION_FIELDS, best_ext))
        trace_rows.append((level, _EXTENSION_FIELDS, best_trace))
    return ext_rows, trace_rows


def test_extension_blocks_match_the_whole_mesh_reference():
    ext, trace = _extension_blocks((2, 3))
    assert (list(ext.rows), list(trace.rows)) == ref_extension_blocks((2, 3))


def test_pointwise_matches_the_coo_reference():
    rng = np.random.default_rng(0)
    dofs = rng.integers(0, 40, (100, 3))
    dofs[::7, 2] = dofs[::7, 0]   # a repeated column within a row is summed
    vals = rng.standard_normal((100, 3))
    want = scipy.sparse.coo_matrix(
        (vals.ravel(), (np.repeat(np.arange(100), 3), dofs.ravel())), shape=(100, 40)).tocsr()
    assert_same_csr(_pointwise(dofs, vals, 40), want)


def test_extension_reflection_off_the_plus_mesh(monkeypatch):
    # the plus side of a smaller circle than the one reflected through:
    # points outside the larger circle reflect to between the two circles;
    # the first node in node order names its point, in one slab of rows
    # or in one a node
    mesh = build_mesh(2)
    topo = classify(mesh, make_circle(radius=0.2, inclusion_side="plus"))
    ls = make_circle(radius=0.5, inclusion_side="plus")
    layout = build_spaces(dataclasses.replace(topo, levelset=ls))
    with pytest.raises(GeometryError) as want:
        ref_extension_matrix(layout)
    assert str(want.value).endswith("lies outside the plus-side mesh")
    for block in (BLOCK, 7):
        monkeypatch.setattr(mesh_module, "BLOCK", block)
        with pytest.raises(GeometryError) as got:
            build_extension(layout)
        assert str(got.value) == str(want.value)


def test_extension_of_plus_field(plus_inclusion):
    layout = plus_inclusion
    mesh = layout.mesh

    def f(x):
        return 1.0 + x[..., 0] + 2.0 * x[..., 1]

    op = build_extension(layout)
    v = interpolate_pair(layout, f, f).plus
    w = op.matrix @ v
    assert w.shape == (mesh.n_nodes,)
    keep = layout.node_dof_plus >= 0
    assert np.allclose(w[keep], f(mesh.nodes[keep]), atol=1e-12)
    assert 0.0 < op.stability_ratio(v) < 5.0

    zero = np.zeros(layout.n_plus)
    assert np.all(op.matrix @ zero == 0.0)
    assert op.stability_ratio(zero) == 0.0


# ---------------------------------------------------------------------------
# combined report

def _blocks(report):
    out = {}
    for chunk in report.strip("\n").split("\n\n"):
        lines = chunk.splitlines()
        name = lines[0].lstrip("# ")
        header = lines[1].split(",")
        rows = [line.split(",") for line in lines[2:]]
        out[name] = (header, rows)
    return out


def test_run_diagnostics_report():
    report = run_diagnostics(RunConfig(example="1"),
                             patch_levels=(1, 2),
                             coercivity_levels=(1,),
                             interpolation_levels=(1, 2),
                             extension_levels=(2,))
    blocks = _blocks(report)
    assert set(blocks) == {"patch_area_ratio", "coercivity", "interpolation",
                           "discrete_extension", "h1_plus_vs_physical"}

    header, rows = blocks["patch_area_ratio"]
    assert header == ["level", "side", "min_ratio", "argmin_node"]
    assert len(rows) == 4
    assert all(float(r[2]) > 0.1 for r in rows)
    level2 = [float(r[2]) for r in rows if r[0] == "2"]
    assert np.allclose(level2, 0.25, atol=1e-9)

    header, rows = blocks["coercivity"]
    assert rows[0][:3] == ["1", "143", "dense"]
    assert np.isclose(float(rows[0][3]), 0.9999976, atol=1e-5)

    header, rows = blocks["interpolation"]
    ratios = [float(r[4]) for r in rows]
    assert np.allclose(ratios, [0.8746, 0.8012], rtol=2e-3)

    header, rows = blocks["discrete_extension"]
    assert rows[0][:2] == ["2", "20"]
    assert np.isclose(float(rows[0][2]), 1.1733, rtol=2e-3)

    header, rows = blocks["h1_plus_vs_physical"]
    assert 0.0 < float(rows[0][2]) < 10.0


def test_run_diagnostics_rejects_flower():
    for example in ("2", "patch-flower"):
        with pytest.raises(ValueError, match="circle"):
            run_diagnostics(RunConfig(example=example))
