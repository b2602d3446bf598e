"""Blocked passes against their whole-array forms, bit for bit.

The ``ref_*`` functions are the whole-array volume assembly, load
vector, error report, side rules, side areas and interface rule that the
blocked passes and the closed-form cut-topology accessors replaced, and
the COO assembly of the five matrix parts that the in-place CSR fill
replaced; ``tests/test_mesh.py`` holds the mesh accessors to
``mesh_reference``.  The blocked passes run with ``BLOCK``
patched to 7, so blocks hold a few elements and may hold no point of a
side; every output must equal its reference in dtype, shape and bytes.
Tracemalloc tests bound the extra memory of the blocked stages and of
the assembly, and the memory classify's output keeps, at level 5.
"""
import tracemalloc
from functools import partial
from math import sqrt
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from cutnitsche import cutcell, mesh as mesh_module
from cutnitsche.assembly import (SparseSystem, _cut_blocks, _stiffness, assemble_load,
                                 assemble_parts, assemble_vnorm_gram, build_system,
                                 element_rows, expand_solution, part_rows, stacked)
from cutnitsche.cutcell import GAUSS2_OFFSET, _fan_rule, _polygon_area, classify
from cutnitsche.harness import RunConfig, make_problem
from cutnitsche.levelset import LevelSet
from cutnitsche.mesh import barycentric_many, build_mesh, edge_frame
from cutnitsche.norms import PairwiseSum, _ghost_error_sq, error_report
from cutnitsche.problems import patch_problem
from cutnitsche.solver import MaxIterationsError, SolveStats, _stats, solve
from cutnitsche.space import FieldPair, build_spaces, interpolate_pair
from mesh_reference import assert_same, assert_same_csr, side_rule

CASES = {
    "circle-minus": RunConfig(example="1", rho_minus=1.0, rho_plus=1e4),
    "circle-plus": RunConfig(example="1", inclusion_side="plus", rho_minus=1.0, rho_plus=1e9),
    "flower": RunConfig(example="2"),
}
# the linear patch problem, with Dirichlet data, for case_setup alone
PATCH = RunConfig(example="patch")
# weights (w_-, w_+) of the one-sided fluxes in the Nitsche average: the
# references keep the weighted sum, an independent form of the minus
# side's flux, whose zero plus block comes from a product
MINUS_SIDED = (1.0, 0.0)


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(mesh_module, "BLOCK", 7)


_SETUPS = {}


def case_setup(case, level):
    """Space layout and problem of one case, cached."""
    key = (case, level)
    if key not in _SETUPS:
        ls, spec = make_problem(PATCH if case == "patch" else CASES[case])
        mesh = build_mesh(level)
        _SETUPS[key] = build_spaces(classify(mesh, ls)), spec
    return _SETUPS[key]


# -- whole-array references ---------------------------------------------------

def ref_volume(layout, spec):
    mesh, topo = layout.mesh, layout.topo
    rows, cols, vals = [], [], []
    for side in ("minus", "plus"):
        elems = np.flatnonzero(topo.in_side(side))
        area = topo.area(side, elems)
        grads = mesh.grads(elems)
        local = spec.rho(side) * area[:, None, None] * np.einsum("kid,kjd->kij", grads, grads)
        dofs = layout.global_dofs(side, mesh.elements(elems))
        rows.append(np.repeat(dofs, 3, axis=1).ravel())
        cols.append(np.tile(dofs, (1, 3)).ravel())
        vals.append(local.ravel())
    coo = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(layout.n_total, layout.n_total))
    return coo.tocsr()


class _Entries:
    """COO entries of dense local matrices, element-major and row-major
    within an element; ``tocsr`` is scipy's COO to CSR conversion."""

    def __init__(self, n_local, m):
        size = n_local * m * m
        self.rows = np.empty(size, dtype=np.int32)
        self.cols = np.empty(size, dtype=np.int32)
        self.vals = np.empty(size)
        self.end = 0

    def add(self, dofs, local):
        k, m = dofs.shape
        span = slice(self.end, self.end + k * m * m)
        self.rows[span].reshape(k, m, m)[...] = dofs[:, :, None]
        self.cols[span].reshape(k, m, m)[...] = dofs[:, None, :]
        self.vals[span] = local.reshape(-1)
        self.end = span.stop

    def tocsr(self, n):
        return sp.coo_matrix((self.vals, (self.rows, self.cols)), shape=(n, n)).tocsr()


def ref_assemble_parts(layout, spec):
    """The five parts of ``assemble_parts``, each through ``_Entries``."""
    mesh, topo = layout.mesh, layout.topo
    n = layout.n_total
    sides = [(side, np.flatnonzero(topo.in_side(side))) for side in ("minus", "plus")]
    entries = _Entries(sum(elems.size for _, elems in sides), 3)
    for side, elems in sides:
        grads = mesh.grads(elems)
        local = (spec.rho(side) * topo.area(side, elems)[:, None, None]
                 * np.einsum("kid,kjd->kij", grads, grads))
        entries.add(layout.global_dofs(side, mesh.elements(elems)), local)
    parts = {"volume": entries.tocsr(n)}

    nit, pen = _Entries(topo.n_cut, 6), _Entries(topo.n_cut, 6)
    if topo.n_cut:
        _, gn, wts, _, jump, dofs, _ = _cut_blocks(layout)
        w_minus, w_plus = MINUS_SIDED
        flux = np.concatenate(
            [w_minus * spec.rho_minus * gn, w_plus * spec.rho_plus * gn], axis=1)
        local = np.einsum("kq,kqi,kj->kij", wts, jump, flux)
        nit.add(dofs, local + local.transpose(0, 2, 1))
        pen.add(dofs, np.einsum("kq,kqi,kqj->kij", wts, jump, jump) / mesh.h_elem)
    parts["nitsche"], parts["penalty_base"] = nit.tocsr(n), pen.tocsr(n)

    for side in ("minus", "plus"):
        dofs, local = ref_ghost_locals(layout, spec, side)
        entries = _Entries(dofs.shape[0], 6)
        entries.add(dofs, local)
        parts[f"ghost_{side}"] = entries.tocsr(n)
    return parts


def ref_ghost_locals(layout, spec, side):
    """DOFs (k, 6) and local matrices (k, 6, 6) of the ghost edges of a
    side, in edge order."""
    mesh, topo = layout.mesh, layout.topo
    edges = topo.ghost_minus if side == "minus" else topo.ghost_plus
    if not edges.size:
        return np.empty((0, 6), dtype=np.int64), np.empty((0, 6, 6))
    e1, e2, elen, ne = edge_frame(mesh, edges)
    jmp = np.concatenate([np.einsum("kid,kd->ki", mesh.grads(e1), ne),
                          -np.einsum("kid,kd->ki", mesh.grads(e2), ne)], axis=1)
    coeff = spec.rho(side) * elen ** 2
    dofs = np.concatenate([layout.global_dofs(side, mesh.elements(e1)),
                           layout.global_dofs(side, mesh.elements(e2))], axis=1)
    return dofs, coeff[:, None, None] * jmp[:, :, None] * jmp[:, None, :]


def ref_assemble_load(layout, spec):
    mesh, topo = layout.mesh, layout.topo
    b = np.zeros(layout.n_total)
    for side in ("minus", "plus"):
        f = spec.f_minus if side == "minus" else spec.f_plus
        if f is None:
            continue
        elems, points, weights = side_rule(topo, side)
        if not weights.size:
            continue
        conn = mesh.elements(elems)
        lam = barycentric_many(mesh.nodes[conn], points)
        contrib = (weights * np.asarray(f(points), dtype=float))[:, None] * lam
        dofs = layout.global_dofs(side, conn)
        np.add.at(b, dofs.ravel(), contrib.ravel())

    if topo.n_cut and (spec.jump_value is not None or spec.jump_flux is not None):
        conn, gn, wts, lam, jump, dofs, pts = _cut_blocks(layout)
        w_minus, w_plus = MINUS_SIDED
        if spec.jump_flux is not None:
            beta = np.stack([np.asarray(spec.jump_flux(pts[:, q, :]), dtype=float)
                             for q in range(2)], axis=1)
            loc = np.einsum("kq,kqi->ki", wts * beta, lam)
            np.add.at(b, layout.global_dofs("plus", conn).ravel(), (w_minus * loc).ravel())
            np.add.at(b, layout.global_dofs("minus", conn).ravel(), (w_plus * loc).ravel())
        if spec.jump_value is not None:
            alpha = np.stack([np.asarray(spec.jump_value(pts[:, q, :]), dtype=float)
                              for q in range(2)], axis=1)
            wa = wts * alpha
            flux = np.concatenate(
                [w_minus * spec.rho_minus * gn, w_plus * spec.rho_plus * gn], axis=1)
            loc = np.sum(wa, axis=1)[:, None] * flux
            loc += (spec.gamma * spec.rho_minus / mesh.h_elem) * np.einsum(
                "kq,kqi->ki", wa, jump)
            np.add.at(b, dofs.ravel(), loc.ravel())
    return b


def ref_error_report(spec, u_h):
    layout = u_h.layout
    mesh, topo = layout.mesh, layout.topo
    e0_sq, eflux_sq = {}, {}
    esqrt_sq = einf = efluxinf = 0.0
    for side in ("minus", "plus"):
        rho = spec.rho(side)
        q_elems, points, weights = side_rule(topo, side)
        coeffs = u_h.side(side)
        dofmap = layout.node_dof(side)
        conn = mesh.elements(q_elems)
        lam = barycentric_many(mesh.nodes[conn], points)
        vals_h = np.einsum("ki,ki->k", lam, coeffs[dofmap[conn]])
        vals = np.asarray(spec.exact(side)(points), dtype=float)
        diff = vals - vals_h
        e0_sq[side] = float(np.sum(weights * diff * diff))
        grad_h = np.einsum("ki,kid->kd", coeffs[dofmap[conn]], mesh.grads(q_elems))
        grad = np.asarray(spec.grad(side)(points), dtype=float)
        gdiff_sq = np.sum((grad - grad_h) ** 2, axis=1)
        eflux_sq[side] = float(rho * rho * np.sum(weights * gdiff_sq))
        esqrt_sq += float(rho * np.sum(weights * gdiff_sq))
        einf = np.maximum(einf, np.max(np.abs(diff), initial=0.0))
        efluxinf = np.maximum(efluxinf, rho * np.sqrt(np.max(gdiff_sq, initial=0.0)))

        want = -1 if side == "minus" else 1
        elems = np.flatnonzero(topo.in_side(side))
        conn_e = mesh.elements(elems)
        vmask = topo.node_sign[conn_e] * want >= 0
        if np.any(vmask):
            coords = mesh.nodes[conn_e]
            uex = np.asarray(spec.exact(side)(coords), dtype=float)
            uh = coeffs[dofmap[conn_e]]
            einf = np.maximum(einf, np.max(np.abs(uex - uh)[vmask]))
            gex = np.asarray(spec.grad(side)(coords), dtype=float)
            gh = np.einsum("ki,kid->kd", coeffs[dofmap[conn_e]], mesh.grads(elems))
            gd = np.sqrt(np.sum((gex - gh[:, None, :]) ** 2, axis=2))
            efluxinf = np.maximum(efluxinf, rho * np.max(gd[vmask]))

    pen_sq = flux_sq = 0.0
    ghost_sq = _ghost_error_sq(spec, u_h)
    if topo.n_cut:
        iq = ref_interface_quadrature(topo.cut_ids, topo.chord_p, topo.chord_q,
                                      topo.chord_len, topo.chord_normal)
        conn = mesh.elements(iq.elems)
        lam = barycentric_many(mesh.nodes[conn], iq.points)
        jump_h = (np.einsum("ki,ki->k", lam, u_h.plus[layout.node_dof_plus[conn]])
                  - np.einsum("ki,ki->k", lam, u_h.minus[layout.node_dof_minus[conn]]))
        alpha = (np.asarray(spec.jump_value(iq.points), dtype=float)
                 if spec.jump_value is not None else 0.0)
        jd = alpha - jump_h
        h_t = mesh.h_elem
        pen_sq = float(spec.rho_minus / h_t * np.sum(iq.weights * jd * jd))
        gh_minus = np.einsum("ki,kid->kd", u_h.minus[layout.node_dof_minus[conn]],
                             mesh.grads(iq.elems))
        gex = np.asarray(spec.grad_minus(iq.points), dtype=float)
        fd = np.sum((gex - gh_minus) * iq.normals, axis=1)
        flux_sq = float(spec.rho_minus * h_t * np.sum(iq.weights * fd * fd))

    vnorm_sq = esqrt_sq + pen_sq + ghost_sq
    return dict(
        level=mesh.level, h=mesh.h,
        e0=float(np.sqrt(e0_sq["minus"] + e0_sq["plus"])),
        einf=float(einf),
        eflux=float(np.sqrt(eflux_sq["minus"] + eflux_sq["plus"])),
        efluxinf=float(efluxinf),
        esqrt=float(np.sqrt(esqrt_sq)),
        vnorm=float(np.sqrt(vnorm_sq)),
        vanorm=float(np.sqrt(vnorm_sq + flux_sq)),
        e0_minus=float(np.sqrt(e0_sq["minus"])),
        e0_plus=float(np.sqrt(e0_sq["plus"])),
        eflux_minus=float(np.sqrt(eflux_sq["minus"])),
        eflux_plus=float(np.sqrt(eflux_sq["plus"])),
    )


def ref_interface_quadrature(cut_ids, chord_p, chord_q, chord_len, chord_normal):
    """Flattened two-point chord rule over all cut elements, as classify
    stored it: owning element, point, weight and normal of each point."""
    d = chord_q - chord_p
    mid = 0.5 * (chord_p + chord_q)
    pts = np.empty((2 * cut_ids.shape[0], 2))
    pts[0::2] = mid - GAUSS2_OFFSET * d
    pts[1::2] = mid + GAUSS2_OFFSET * d
    wts = np.repeat(0.5 * chord_len, 2)
    elems = np.repeat(cut_ids, 2)
    normals = np.repeat(chord_normal, 2, axis=0)
    return SimpleNamespace(elems=elems, points=pts, weights=wts, normals=normals)


def ref_side_quadrature(mesh, elem_side, cut_ids, poly, k, want):
    """Whole-mesh rule of side ``want`` (-1 minus, +1 plus), as classify
    stored it, from the side's cut polygons."""
    full = np.flatnonzero(elem_side == want)
    coords = mesh.nodes[mesh.elements(full)]
    mids = 0.5 * (coords + np.roll(coords, -1, axis=1))
    rule = _fan_rule(np.zeros(k.size), poly, k)
    owner = np.repeat(np.arange(k.size), np.diff(rule.ptr))
    elems = np.concatenate([np.repeat(full, 3), cut_ids[owner]])
    points = np.vstack([mids.reshape(-1, 2), rule.points])
    weights = np.concatenate([np.repeat(mesh.areas(full) / 3.0, 3), rule.weights])
    order = np.argsort(elems, kind="stable")
    return elems[order], points[order], weights[order]


def ref_areas(mesh, elem_side, cut_ids, poly, k, want):
    """Whole-mesh areas of side ``want``, as classify stored them."""
    areas = np.empty(mesh.n_elems)
    for block in mesh_module.blocks(mesh.n_elems):
        areas[block] = np.where(elem_side[block] == want, mesh.areas(block), 0.0)
    areas[cut_ids] = _polygon_area(poly, k)
    return areas


# -- bit identity -------------------------------------------------------------

@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_side_quadrature_matches_reference(small_blocks, monkeypatch, case, level):
    # the cut polygons of each side, minus first, as classify hands them
    # to the fan rule
    polygons = []

    def spy(area, poly, k):
        polygons.append((poly, k))
        return fan_rule(area, poly, k)

    fan_rule = cutcell._fan_rule
    monkeypatch.setattr(cutcell, "_fan_rule", spy)
    ls, _ = make_problem(CASES[case])
    mesh = build_mesh(level)
    topo = cutcell.classify(mesh, ls)
    assert len(polygons) == 2
    for (side, want), (poly, k) in zip((("minus", -1), ("plus", 1)), polygons):
        args = (mesh, topo.elem_side, topo.cut_ids, poly, k, want)
        ref = ref_side_quadrature(*args)
        blocked = [(np.repeat(elems, counts), points, weights)
                   for elems, counts, points, weights in topo.quadrature_blocks(side)]
        blocked = list(zip(*blocked))
        assert sum(w.size for w in blocked[2]) == topo.n_points(side)
        for name, a, b in zip(("elems", "points", "weights"), blocked, ref):
            assert_same(np.concatenate(a), b, name)
        for name, a, b in zip(("elems", "points", "weights"), side_rule(topo, side), ref):
            assert_same(a, b, name)
        assert_same(topo.area(side, slice(None)), ref_areas(*args), f"area_{side}")


def side_blocks(topo, side, width):
    """Element ids and point counts of each block ``quadrature_blocks``
    yields."""
    return [(elems, counts) for elems, counts, _, _ in topo.quadrature_blocks(side, width)]


@pytest.mark.parametrize("block", [7, 16384])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("level", [1, 2, 3])
def test_side_blocks_hold_every_element_of_the_side(monkeypatch, case, level, block):
    # every element of the side comes in its block, a cut part whose fan
    # holds no point with count 0, as the error report's vertex samples
    # read every element of the side; a block without one is skipped
    monkeypatch.setattr(mesh_module, "BLOCK", block)
    topo = case_setup(case, level)[0].topo
    for side in ("minus", "plus"):
        for width in (3, 9):
            got = side_blocks(topo, side, width)
            assert all(0 < elems.size <= max(block // width, 1) for elems, _ in got)
            ids, counts = (np.concatenate(a) for a in zip(*got))
            assert_same(ids, np.flatnonzero(topo.in_side(side)), "ids")
            assert np.all(np.diff(ids) > 0)
            assert counts.sum() == topo.n_points(side)
            assert_same(np.repeat(ids, counts), side_rule(topo, side)[0], "point elements")


def test_error_report_samples_the_vertices_of_cut_parts_without_points(small_blocks):
    # a line a hair right of a node column: the minus parts of the cut
    # elements beside it are slivers, and some of their fans hold no point
    mesh = build_mesh(1)
    x0 = mesh.nodes[3, 0] + 1e-11 * mesh.h
    ls = LevelSet(phi=lambda x: x[..., 0] - x0,
                  grad=lambda x: np.broadcast_to([1.0, 0.0], x.shape),
                  inclusion_side="minus", grad_bound=lambda x, radius: 1.0)
    _, spec = patch_problem(interface=ls)
    layout = build_spaces(classify(mesh, ls))
    topo = layout.topo
    empty = topo.cut_ids[np.diff(topo.cut_minus.ptr) == 0]
    assert empty.size
    ids, counts = (np.concatenate(a) for a in zip(*side_blocks(topo, "minus", 9)))
    assert_same(ids, np.flatnonzero(topo.in_side("minus")), "ids")
    assert np.all(counts[np.isin(ids, empty)] == 0)
    # node 4 lies on the plus side, and its one cut element holds no minus
    # point: only that element's vertex samples see its minus value
    node = 4
    touching = topo.cut_ids[np.any(mesh.elements(topo.cut_ids) == node, axis=1)]
    assert touching.size and np.all(np.isin(touching, empty))
    u_h = interpolate_pair(layout, spec.exact_minus, spec.exact_plus)
    u_h.minus[layout.node_dof_minus[node]] += 1.0
    report = error_report(spec, u_h)
    assert report.efluxinf > 1.0
    assert repr(report.as_dict()) == repr(ref_error_report(spec, u_h))


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_interface_rule_matches_reference(case, level):
    topo = case_setup(case, level)[0].topo
    ref = ref_interface_quadrature(topo.cut_ids, topo.chord_p, topo.chord_q,
                                   topo.chord_len, topo.chord_normal)
    points, weights = topo.interface_rule()
    assert_same(points.reshape(-1, 2), ref.points, "points")
    assert_same(weights.reshape(-1), ref.weights, "weights")


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_blocked_volume_and_load_match_reference(small_blocks, case, level):
    layout, spec = case_setup(case, level)
    assert_same_csr(assemble_parts(layout, spec)["volume"], ref_volume(layout, spec))
    assert_same(assemble_load(layout, spec), ref_assemble_load(layout, spec))


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_parts_match_the_coo_reference(small_blocks, case, level):
    layout, spec = case_setup(case, level)
    parts, ref = assemble_parts(layout, spec), ref_assemble_parts(layout, spec)
    assert parts.keys() == ref.keys()
    for name in ref:
        assert_same_csr(parts[name], ref[name])


@pytest.mark.parametrize("side", ["minus", "plus"])
def test_parts_without_entries_match_the_coo_reference(small_blocks, side):
    # a line outside the domain: nothing is cut and one side is empty
    ls = LevelSet(phi=lambda x: x[..., 0] - 5.0,
                  grad=lambda x: np.broadcast_to([1.0, 0.0], x.shape),
                  inclusion_side=side, grad_bound=lambda x, radius: 1.0)
    _, spec = patch_problem(interface=ls)
    mesh = build_mesh(2)
    layout = build_spaces(classify(mesh, ls))
    parts, ref = assemble_parts(layout, spec), ref_assemble_parts(layout, spec)
    assert [name for name, part in parts.items() if part.nnz] == ["volume"]
    for name in ref:
        assert_same_csr(parts[name], ref[name])


def test_fill_without_entries_is_the_empty_coo_conversion():
    for m in (3, 6):
        part = (np.empty((0, m), dtype=np.int64), np.empty((0, m, m)).__getitem__)
        ref = _Entries(0, m).tocsr(11)
        assert_same_csr(stacked(11, partial(part_rows, 11, part)), ref)
        assert_same_csr(part_rows(11, part, 3, 8), ref[3:8])
    assert_same_csr(element_rows(11, 0, 11, []), _Entries(0, 3).tocsr(11))


@given(seed=st.integers(0, 2 ** 32 - 1),
       n_rows=st.sampled_from([1, 9, 65_535, 65_536, 70_000, 300_000]),
       m=st.integers(1, 4), n_elems=st.integers(0, 200), n_groups=st.integers(1, 4),
       block=st.sampled_from([3, 7, 30, 16384]), window=st.booleans())
def test_fill_matches_the_coo_conversion_however_split(seed, n_rows, m, n_elems, n_groups,
                                                       block, window):
    # random local matrices at few distinct DOFs, so rows repeat within
    # and across elements, groups and passes (BLOCK // 3 elements each)
    # and columns repeat within rows.  Windows of fewer than 2**16 rows rank
    # by uint16 keys, whose largest, 65_535 rows, is the spare bucket's; the
    # others by int64 keys.  A window [lo, hi) ends at drawn rows, so rows
    # lie inside it and on both sides of it
    rng = np.random.default_rng(seed)
    dofs = rng.choice(rng.integers(0, n_rows, 1 + n_elems // 4), (n_elems, m))
    local = rng.standard_normal((n_elems, m, m))
    lo, hi = np.sort(rng.choice(np.append(dofs, [0, n_rows]), 2)) if window else (0, n_rows)
    groups = [(ids, dofs.__getitem__, local.__getitem__) for ids in
              np.split(np.arange(n_elems), np.sort(rng.integers(0, n_elems + 1, n_groups - 1)))]
    saved = mesh_module.BLOCK
    mesh_module.BLOCK = block
    try:
        rows = element_rows(n_rows, lo, hi, groups)
    finally:
        mesh_module.BLOCK = saved
    entries = _Entries(n_elems, m)
    entries.add(dofs, local)
    assert_same_csr(rows, entries.tocsr(n_rows)[lo:hi])


@pytest.mark.parametrize("rows", [65_535, 65_536])
def test_fill_windows_on_both_sides_of_the_key_switch(monkeypatch, rows):
    # a window of 65_535 rows ranks by uint16 keys, the spare bucket's the
    # largest; one of 65_536 by int64 keys.  Elements hold the window's
    # first and last rows and the rows around it, in passes of 1 and of all
    n, lo = rows + 4, 2
    hi = lo + rows
    rng = np.random.default_rng(rows)
    dofs = rng.choice([0, lo - 1, lo, lo + 1, hi - 2, hi - 1, hi, n - 1], (40, 3))
    local = rng.standard_normal((40, 3, 3))
    entries = _Entries(40, 3)
    entries.add(dofs, local)
    for block in (3, 16384):
        monkeypatch.setattr(mesh_module, "BLOCK", block)
        window = element_rows(n, lo, hi, [(np.arange(40), dofs.__getitem__, local.__getitem__)])
        assert_same_csr(window, entries.tocsr(n)[lo:hi])


def assert_windows_match_the_whole_fill(n, dofs, local, rng):
    """``element_rows`` over windows of 200 and 5,000 rows against the
    rows of the COO conversion of all elements: each window gets the
    elements with a DOF in it and a few with none, in the order of
    ``dofs``."""
    entries = _Entries(*dofs.shape)
    entries.add(dofs, local)
    whole = entries.tocsr(n)
    for width in (200, 5000):
        for lo in range(0, n, width):
            hi = min(lo + width, n)
            ids = np.flatnonzero(((dofs >= lo) & (dofs < hi)).any(axis=1)
                                 | (rng.random(dofs.shape[0]) < 0.02))
            rows = element_rows(n, lo, hi, [(ids, lambda t: dofs[t], lambda t: local[t])])
            assert_same_csr(rows, whole[lo:hi])


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("level", [2, 3, 4])
def test_element_rows_match_the_whole_fill_in_any_element_order(small_blocks, case, level):
    # passes of 2 elements; the volume elements of a side shuffled, and the
    # ghost edges, whose lowest and highest DOFs go up and down
    layout, spec = case_setup(case, level)
    mesh, topo = layout.mesh, layout.topo
    rng = np.random.default_rng(level)
    for side in ("minus", "plus"):
        elems = rng.permutation(np.flatnonzero(topo.in_side(side)))
        local = _stiffness(spec.rho(side) * topo.area(side, elems), mesh.grads(elems))
        dofs = layout.global_dofs(side, mesh.elements(elems))
        assert_windows_match_the_whole_fill(layout.n_total, dofs, local, rng)
        assert_windows_match_the_whole_fill(layout.n_total,
                                            *ref_ghost_locals(layout, spec, side), rng)


@pytest.mark.parametrize("nan", [False, True])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_blocked_error_report_matches_reference(small_blocks, case, level, nan):
    layout, spec = case_setup(case, level)
    rng = np.random.default_rng(level)
    exact = interpolate_pair(layout, spec.exact_minus, spec.exact_plus)
    # a field with error everywhere, so every max and sum is exercised
    u_h = FieldPair(layout, exact.minus + 1e-3 * rng.standard_normal(layout.n_minus),
                    exact.plus + 1e-3 * rng.standard_normal(layout.n_plus))
    if nan:  # every measure, the sup norms too, turns NaN
        u_h.minus[layout.n_minus // 2] = np.nan
    report = error_report(spec, u_h).as_dict()
    # repr tells NaNs and signed zeros apart
    assert repr(report) == repr(ref_error_report(spec, u_h))


def ref_full_matrix(layout, spec):
    """The stabilised matrix over all DOFs, Dirichlet rows included, as
    one sum of the five whole parts of the COO reference, which
    ``test_parts_match_the_coo_reference`` holds ``assemble_parts`` to."""
    parts = ref_assemble_parts(layout, spec)
    a = (parts["volume"] + parts["nitsche"]
         + spec.gamma * spec.rho_minus * parts["penalty_base"]
         + spec.gamma_g * parts["ghost_minus"]
         + spec.gamma_g * parts["ghost_plus"])
    return a.tocsr()


def ref_build_system(layout, spec):
    """The system from the whole matrix, sliced to the free rows and
    columns, and its lift of the Dirichlet data."""
    a_full = ref_full_matrix(layout, spec)
    b_full = assemble_load(layout, spec)
    lifting = np.zeros(layout.n_total)
    dir_dofs = np.flatnonzero(layout.dirichlet)
    if dir_dofs.size and spec.dirichlet is not None:
        outer = "plus" if layout.topo.levelset.inclusion_side == "minus" else "minus"
        offset = 0 if outer == "minus" else layout.n_minus
        coords = layout.mesh.nodes[layout.dof_node(outer)[dir_dofs - offset]]
        lifting[dir_dofs] = np.asarray(spec.dirichlet(coords), dtype=float)
    free = layout.free_dofs
    a_rows = a_full[free]
    b_red = b_full[free]
    if dir_dofs.size:
        b_red = b_red - a_rows[:, dir_dofs] @ lifting[dir_dofs]
    return SparseSystem(matrix=a_rows[:, free].tocsr(), rhs=b_red, lifting=lifting,
                        layout=layout)


def assert_same_system(a, b):
    assert_same_csr(a.matrix, b.matrix)
    assert_same(a.rhs, b.rhs, "rhs")
    assert_same(a.lifting, b.lifting, "lifting")


@pytest.mark.parametrize("case", sorted(CASES))
def test_build_system_slices_like_the_full_matrix(case):
    layout, spec = case_setup(case, 3)
    assert_same_system(build_system(layout, spec), ref_build_system(layout, spec))


@pytest.mark.parametrize("case, level", [(case, level) for case in sorted(CASES)
                                         for level in (1, 2, 3, 4)] + [("patch", 3)])
def test_windowed_build_system_matches_the_whole_matrix(small_blocks, case, level):
    # windows of 7 rows: most elements straddle a window edge
    layout, spec = case_setup(case, level)
    assert_same_system(build_system(layout, spec), ref_build_system(layout, spec))


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_free_gram_is_the_sliced_whole_sum(small_blocks, case, level):
    layout, spec = case_setup(case, level)
    parts = ref_assemble_parts(layout, spec)
    whole = (parts["volume"] + spec.rho_minus * parts["penalty_base"]
             + parts["ghost_minus"] + parts["ghost_plus"]).tocsr()
    free = layout.free_dofs
    assert_same_csr(assemble_vnorm_gram(layout, spec), whole[free][:, free])


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
def test_element_dof_bounds_never_decrease(case, level):
    # _volume finds a window's elements by elems_near(node[first],
    # node[last]), which needs each side's DOFs in node order
    ls, _ = make_problem(CASES[case])
    layout = build_spaces(classify(build_mesh(level), ls))
    mesh, topo = layout.mesh, layout.topo
    for side in ("minus", "plus"):
        dofs = layout.global_dofs(side, mesh.elements(np.flatnonzero(topo.in_side(side))))
        assert dofs.min() >= 0
        for bound in (dofs.min(axis=1), dofs.max(axis=1)):
            assert np.all(np.diff(bound) >= 0), side


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), block=st.sampled_from([7, 128, 200, 16384]),
       size=st.one_of(st.sampled_from([0, 1, 7, 8, 9, 127, 128, 129, 136, 300_000]),
                      st.tuples(st.integers(1, 5), st.integers(-9, 9)),
                      st.integers(0, 300_000)),
       specials=st.lists(st.sampled_from([np.nan, np.inf, -np.inf, -0.0]), max_size=4),
       all_negative_zero=st.booleans(), n_pieces=st.integers(1, 5))
def test_pairwise_sum_is_np_sum(seed, block, size, specials, all_negative_zero, n_pieces):
    # size: a length, or (k, d) for k leaves of max(block, 128) items plus d
    saved = mesh_module.BLOCK
    mesh_module.BLOCK = block
    try:
        n = size if isinstance(size, int) else max(0, size[0] * max(block, 128) + size[1])
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) * np.exp(rng.uniform(-30.0, 30.0, n))
        if all_negative_zero:
            x[:] = -0.0
        if n:
            x[rng.integers(0, n, len(specials))] = specials
        # the drawn infinities may meet as inf - inf: the NaN is checked below,
        # so its "invalid value" warning is noise
        with np.errstate(invalid="ignore"):
            total = PairwiseSum(n)
            for piece in np.split(x, np.sort(rng.integers(0, n + 1, n_pieces - 1))):
                total.add(piece)
            got, want = total.total(), np.sum(x)
    finally:
        mesh_module.BLOCK = saved
    assert type(got) is type(want)
    # where two NaNs meet, np.sum's compiled code keeps either's sign and payload
    assert np.isnan(want) if np.isnan(got) else got.tobytes() == want.tobytes()


# -- memory -------------------------------------------------------------------

def extra_mb(fn):
    """Traced peak of fn above the traced memory before it, in MB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 1024.0 ** 2
    finally:
        tracemalloc.stop()


def ref_stats(it, a, b, x, r, bnorm):
    """solver._stats with each inf-norm one whole-array pass."""
    a_norm = np.add.reduceat(np.abs(a.data), a.indptr[:-1]).max()
    den = float(a_norm) * float(np.abs(x).max()) + float(np.abs(b).max())
    return SolveStats(it, sqrt(r @ r) / bnorm, "cg_jacobi", float(np.abs(r).max()) / den)


@pytest.mark.parametrize("case", ["circle-minus", "circle-plus"])
@pytest.mark.parametrize("nan_at", [None, 3, -1])
def test_solve_stats_match_the_whole_array_norms(small_blocks, case, nan_at):
    # a NaN in the first or the last 7-row block of the iterate, and so
    # of its residual, must give NaN norms as the whole-array max does
    layout, spec = case_setup(case, 3)
    system = build_system(layout, spec)
    a, b = system.matrix, system.rhs
    x = spla.spsolve(a.tocsc(), b)
    if nan_at is not None:
        x[nan_at] = np.nan
    r = b - a @ x
    bnorm = sqrt(b @ b)
    stats, ref = _stats(17, a, b, x, r, bnorm), ref_stats(17, a, b, x, r, bnorm)
    assert stats.backward_error > 0.0 if nan_at is None else np.isnan(stats.backward_error)
    assert (stats.iterations, stats.method) == (ref.iterations, ref.method)
    assert (np.array([stats.relative_residual, stats.backward_error]).tobytes()
            == np.array([ref.relative_residual, ref.backward_error]).tobytes())


def test_blocked_stages_stay_within_memory_bounds():
    layout, spec = case_setup("circle-plus", 5)
    system = build_system(layout, spec)
    u_h = expand_solution(system, np.zeros(system.n))
    assert extra_mb(lambda: assemble_load(layout, spec)) <= 8.0
    # 2.0 MB: no full-length integrand vector (7.9 MB with two), and
    # u_h's gradient taken per element (2.4 MB with it per point)
    assert extra_mb(lambda: error_report(spec, u_h)) <= 2.2
    # a window of BLOCK rows at a time: 8.5 and 10.4 MB, where one
    # unsummed CSR of the whole volume part set both at 11.3 MB
    assert extra_mb(lambda: assemble_parts(layout, spec)) <= 9.5
    assert extra_mb(lambda: build_system(layout, spec)) <= 11.5

    def thirty_iterations():
        with pytest.raises(MaxIterationsError):
            solve(system, max_iter=30)
    # 3.0 MB: CG's vectors, 0.25 MB each, and one row window of |A|; a
    # whole |A| copy and the kept diagonal took 4.1 MB
    assert extra_mb(thirty_iterations) <= 3.3


def test_classify_keeps_only_the_cut_elements():
    # per element only the side (1 B) is kept: 0.27 MB at level 5, where
    # whole-mesh side areas and side rules kept 7.3 MB
    ls, _ = make_problem(CASES["circle-plus"])
    mesh = build_mesh(5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        topo = classify(mesh, ls)
        retained = (tracemalloc.get_traced_memory()[0] - base) / 1024.0 ** 2
    finally:
        tracemalloc.stop()
    assert topo.n_cut > 0
    assert retained <= 1.0
