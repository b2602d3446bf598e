"""Cut-cell geometry: chord clipping, quadrature, and ghost edge sets."""
import dataclasses
import logging
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cutnitsche import mesh as mesh_module
from cutnitsche.cutcell import (BISECTION_STEPS, DEGENERATE_CHORD_FACTOR, GAUSS2_OFFSET,
                                MULTI_ROOT_SAMPLES, ROOT_PHI_TOL, ROOT_WIDTH_TOL,
                                _bisect, _fan_rule, _polygon_area, _scan_edges, _split,
                                classify)
from cutnitsche.levelset import (CoarseMeshError, GeometryError, LevelSet,
                                 make_circle, make_flower)
from cutnitsche.mesh import BLOCK, build_mesh, elem_any
from cutnitsche.space import build_spaces
from mesh_reference import side_rule


def plane(c, axis=0, scale=1.0, simple=True):
    """Level set of the straight line x[axis] = c."""
    return LevelSet(phi=lambda x, c=c, a=axis: scale * (x[..., a] - c),
                    grad=lambda x, a=axis: np.stack(
                        [np.full(x.shape[:-1], scale if k == a else 0.0)
                         for k in (0, 1)], axis=-1),
                    simple=simple, name=f"plane[{c}]")


def poly_linear_integral(poly, a, b, c):
    """Exact integral of a + b*x + c*y over a polygon (shoelace moments)."""
    x = poly[:, 0]
    y = poly[:, 1]
    xn = np.roll(x, -1)
    yn = np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * np.sum(cross)
    sx = np.sum((x + xn) * cross) / 6.0
    sy = np.sum((y + yn) * cross) / 6.0
    return a * area + b * sx + c * sy


# -- scalar reference ---------------------------------------------------------
# One edge and one element at a time, as classify worked before its passes
# were vectorised; the vectorised classify must match it bit for bit.

def ref_bisect(f, ta, tb, fa, fb, a, b):
    scale = float(np.hypot(*(b - a)))
    width_tol = ROOT_WIDTH_TOL / max(scale, 1e-300)
    for _ in range(BISECTION_STEPS):
        tm = 0.5 * (ta + tb)
        fm = f(tm)
        if fm == 0.0 or (abs(fm) <= ROOT_PHI_TOL and (tb - ta) * scale <= ROOT_WIDTH_TOL):
            return a + tm * (b - a)
        if fa * fm < 0.0:
            tb, fb = tm, fm
        else:
            ta, fa = tm, fm
        if tb - ta <= width_tol and tb - ta <= np.finfo(float).eps:
            break
    tm = 0.5 * (ta + tb)
    fm = f(tm)
    if abs(fm) <= ROOT_PHI_TOL:
        return a + tm * (b - a)
    raise GeometryError(
        f"bisection did not converge on edge {a.tolist()} -> {b.tolist()}: "
        f"bracket width {(tb - ta) * scale:.3e}, |phi| = {abs(fm):.3e}"
    )


def ref_split_element(coords, signs, local_roots):
    """(p, q, poly_minus, poly_plus, normal) of one CCW triangle, or None."""
    poly_m, poly_p, iface_m = [], [], []
    for i in range(3):
        v = coords[i]
        s = int(signs[i])
        if s <= 0:
            if s == 0:
                iface_m.append(len(poly_m))
            poly_m.append(v)
        if s >= 0:
            poly_p.append(v)
        r = local_roots[i]
        if r is not None:
            iface_m.append(len(poly_m))
            poly_m.append(r)
            poly_p.append(r)
    if len(iface_m) != 2:
        return None
    k = len(poly_m)
    i1, i2 = iface_m
    if (i1 + 1) % k == i2:
        p, q = poly_m[i1], poly_m[i2]
    elif (i2 + 1) % k == i1:
        p, q = poly_m[i2], poly_m[i1]
    else:
        return None
    d = q - p
    length = np.hypot(*d)
    normal = np.array([d[1], -d[0]]) / length if length > 0.0 else np.array([1.0, 0.0])
    return p, q, np.asarray(poly_m), np.asarray(poly_p), normal


def ref_polygon_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def ref_polygon_rule(poly):
    """Mid-edge rule on the fan triangulation of a convex CCW polygon."""
    pts, wts = [np.zeros((0, 2))], [np.zeros(0)]
    for i in range(1, poly.shape[0] - 1):
        tri = np.array([poly[0], poly[i], poly[i + 1]])
        a = ref_polygon_area(tri)
        if a <= 0.0:
            continue
        pts.append(0.5 * (tri + np.roll(tri, -1, axis=0)))
        wts.append(np.full(3, a / 3.0))
    return np.vstack(pts), np.concatenate(wts)


def ref_scan_edges(mesh, ls):
    """Multi-root flag of every edge, sampling all edges of the mesh."""
    ts = np.linspace(0.0, 1.0, MULTI_ROOT_SAMPLES + 2)
    multi = np.empty(mesh.n_edges, dtype=bool)
    for lo in range(0, multi.size, BLOCK):
        ends = mesh.edges(slice(lo, lo + BLOCK))
        a, b = mesh.nodes[ends[:, 0]], mesh.nodes[ends[:, 1]]
        s = np.sign(ls.value(a[:, None, :] + ts[None, :, None] * (b - a)[:, None, :]))
        multi[lo:lo + BLOCK] = np.sum(s[:, 1:] * s[:, :-1] < 0, axis=1) > 1
    return multi


def ref_coarse_mesh_check(mesh, ls):
    """Full-scan multi-root flags; raises on a simple level set if any."""
    multi_edge = ref_scan_edges(mesh, ls)
    if np.any(multi_edge) and ls.simple:
        a, b = mesh.nodes[mesh.edges(np.argmax(multi_edge))]
        raise CoarseMeshError(
            f"h too coarse for this interface: multiple crossings on edge "
            f"{a.tolist()} -> {b.tolist()}"
        )
    return multi_edge


def ref_ghost_edges(mesh, elem_side, want):
    """Ghost edges of one side by a pass over every edge."""
    e1, e2 = mesh.edge_elems(slice(None)).T
    interior = e2 >= 0
    e2 = np.where(interior, e2, 0)
    in_side = elem_side * want >= 0
    cut = elem_side == 0
    return np.flatnonzero(interior & in_side[e1] & in_side[e2] & (cut[e1] | cut[e2]))


def ref_classify(mesh, ls):
    """Every CutTopology array, computed one edge and one element at a time."""
    psi = np.asarray(ls.side_sign(mesh.nodes), dtype=float)
    sign = np.where(np.abs(psi) <= 1e-12 * mesh.h, 0, np.sign(psi)).astype(np.int8)
    esign = sign[mesh.elements(slice(None))]
    has_neg = np.any(esign < 0, axis=1)
    has_pos = np.any(esign > 0, axis=1)
    multi_edge = ref_coarse_mesh_check(mesh, ls)

    roots, flagged = {}, set()
    for e, (ia, ib) in enumerate(mesh.edges(slice(None)).tolist()):
        if sign[ia] * sign[ib] >= 0:
            continue
        pa, pb = mesh.nodes[ia], mesh.nodes[ib]
        fa, fb = float(psi[ia]), float(psi[ib])
        if not multi_edge[e]:
            try:
                roots[e] = ref_bisect(
                    lambda t_, pa=pa, pb=pb: float(ls.side_sign(pa + t_ * (pb - pa))),
                    0.0, 1.0, fa, fb, pa, pb)
                continue
            except GeometryError:
                if ls.simple:
                    raise
        roots[e] = pa + fa / (fa - fb) * (pb - pa)
        flagged.add(e)

    elem_side = np.where(has_pos, 1, -1).astype(np.int8)
    elem_side[has_neg & has_pos] = 0
    area_minus = np.where(elem_side < 0, mesh.areas(slice(None)), 0.0)
    area_plus = np.where(elem_side > 0, mesh.areas(slice(None)), 0.0)
    cut_ids, chords, polys, ambiguous, degenerate = [], [], [], [], []
    for t in np.flatnonzero(has_neg & has_pos):
        local_edges = mesh.elem_edges(t).tolist()
        if not flagged.isdisjoint(local_edges):
            ambiguous.append(t)
        p, q, pm, pp, normal = ref_split_element(
            mesh.nodes[mesh.elements(t)], esign[t], [roots.get(e) for e in local_edges])
        if np.hypot(*(q - p)) < DEGENERATE_CHORD_FACTOR * mesh.h_elem:
            side = -1 if ref_polygon_area(pm) >= 0.5 * mesh.areas(t) else 1
            elem_side[t] = side
            area_minus[t] = mesh.areas(t) if side < 0 else 0.0
            area_plus[t] = mesh.areas(t) if side > 0 else 0.0
            degenerate.append(t)
            continue
        cut_ids.append(t)
        chords.append((p, q, normal))
        polys.append((pm, pp))
        area_minus[t] = ref_polygon_area(pm)
        area_plus[t] = ref_polygon_area(pp)

    cut_ids = np.asarray(cut_ids, dtype=np.int64)
    chord_p, chord_q, chord_normal = (np.array([c[k] for c in chords]).reshape(-1, 2)
                                      for k in range(3))
    chord_len = np.hypot(*(chord_q - chord_p).T)
    out = dict(node_sign=sign, elem_side=elem_side, area_minus=area_minus,
               area_plus=area_plus, cut_ids=cut_ids, chord_p=chord_p,
               chord_q=chord_q, chord_len=chord_len, chord_normal=chord_normal,
               ghost_minus=ref_ghost_edges(mesh, elem_side, -1),
               ghost_plus=ref_ghost_edges(mesh, elem_side, 1),
               ambiguous_elements=np.asarray(ambiguous, dtype=np.int64),
               degenerate_elements=np.asarray(degenerate, dtype=np.int64))
    # two-point Gauss rule on each chord, one chord at a time
    points = []
    for p, q, _ in chords:
        mid, d = 0.5 * (p + q), q - p
        points += [mid - GAUSS2_OFFSET * d, mid + GAUSS2_OFFSET * d]
    out.update({"iface.elems": np.repeat(cut_ids, 2),
                "iface.points": np.array(points).reshape(-1, 2),
                "iface.weights": np.repeat(0.5 * chord_len, 2),
                "iface.normals": np.repeat(chord_normal, 2, axis=0)})
    for j, (side, want) in enumerate((("minus", -1), ("plus", 1))):
        full = np.flatnonzero(elem_side == want)
        coords = mesh.nodes[mesh.elements(full)]
        pts = [(0.5 * (coords + np.roll(coords, -1, axis=1))).reshape(-1, 2)]
        wts = [np.repeat(mesh.areas(full) / 3.0, 3)]
        owners = [np.repeat(full, 3)]
        for t, poly in zip(cut_ids, polys):
            rp, rw = ref_polygon_rule(poly[j])
            pts.append(rp)
            wts.append(rw)
            owners.append(np.full(rw.size, t, dtype=np.int64))
        elems = np.concatenate(owners)
        order = np.argsort(elems, kind="stable")
        out[f"quad_{side}.elems"] = elems[order]
        out[f"quad_{side}.points"] = np.vstack(pts)[order]
        out[f"quad_{side}.weights"] = np.concatenate(wts)[order]
    return out


def topology_arrays(topo):
    """The topology's arrays, with whole-mesh side areas and side rules
    and the flattened interface rule from the accessors under the names of
    the arrays they replaced."""
    out = {}
    for name, value in vars(topo).items():
        if name in ("cut_minus", "cut_plus"):
            side = name[4:]
            out[f"area_{side}"] = topo.area(side, slice(None))
            rule = dict(zip(("elems", "points", "weights"), side_rule(topo, side)))
            out.update({f"quad_{side}.{k}": v for k, v in rule.items()})
        elif isinstance(value, np.ndarray):
            out[name] = value
    points, weights = topo.interface_rule()
    out.update({"iface.elems": np.repeat(topo.cut_ids, 2),
                "iface.points": points.reshape(-1, 2),
                "iface.weights": weights.reshape(-1),
                "iface.normals": np.repeat(topo.chord_normal, 2, axis=0)})
    return out


REFERENCE_CASES = (
    [(lv, make_circle(inclusion_side=side)) for side in ("minus", "plus")
     for lv in (1, 2, 3, 4)]
    + [(lv, make_flower()) for lv in (1, 2, 3, 4)]
    + [(1, plane(-0.55 + 1.0 / 18.0)), (3, plane(-0.55 + 1.0 / 18.0))]
    # steep plane a hair left of the grid line x = 0: bisection fails and
    # falls back to the linear root, and the chords next to the line collapse
    + [(1, plane(-1e-16, scale=1e6, simple=False))]
    # one ulp right of a grid line: roots round onto vertices, so some fan
    # triangles have zero area and are skipped
    + [(1, plane(np.nextafter(build_mesh(1).nodes[1, 0], 0.0), scale=1e6, simple=False))]
)


@pytest.mark.parametrize("level,ls", REFERENCE_CASES,
                         ids=[f"{ls.name}-{ls.inclusion_side}-L{lv}"
                              for lv, ls in REFERENCE_CASES])
def test_classify_matches_scalar_reference(level, ls):
    mesh = build_mesh(level)
    got = topology_arrays(classify(mesh, ls))
    want = ref_classify(mesh, ls)
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert got[name].dtype == value.dtype, name
        assert np.array_equal(got[name], value), name


def test_degenerate_chords_and_failed_bisections_are_logged(caplog):
    mesh = build_mesh(1)
    with caplog.at_level(logging.WARNING, logger="cutnitsche"):
        topo = classify(mesh, plane(-1e-16, scale=1e6, simple=False))
    degenerate = [r for r in caplog.records if r.msg.startswith("element %d: degenerate chord")]
    flagged = [r for r in caplog.records if r.msg.startswith("%d elements flagged")]
    assert len(degenerate) > 0
    assert flagged[0].args[0] == topo.ambiguous_elements.size > 0
    # reclassified elements hold their whole area on one side
    gone = [r.args[0] for r in degenerate]
    assert topo.degenerate_elements.tolist() == gone
    assert np.all(topo.elem_side[gone] != 0)
    np.testing.assert_array_equal(topo.area("minus", gone) + topo.area("plus", gone),
                                  mesh.areas(gone))


def test_failed_bisection_raises_on_simple_level_set():
    mesh = build_mesh(1)
    ls = plane(-1e-16, scale=1e6)
    with pytest.raises(GeometryError) as got:
        classify(mesh, ls)
    with pytest.raises(GeometryError) as want:
        ref_classify(mesh, ls)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("bisection did not converge on edge")


# the circle on both sides and the flower (level 5 is the tables'); then
# radii at which the circle grazes grid edges at levels 5, 6 and 1
# (r = 0.3341 flags none, the others flag edges with two roots and raise
# CoarseMeshError)
SCAN_CASES = (
    [(lv, make_circle(inclusion_side=side)) for side in ("minus", "plus")
     for lv in (1, 2, 3, 4, 5, 6)]
    + [(lv, make_flower()) for lv in (1, 2, 3, 4, 5)]
    + [(5, make_circle(radius=r, inclusion_side=side))
       for r in (0.3341, 0.33413, 0.33417) for side in ("minus", "plus")]
    + [(6, make_circle(radius=0.33334)), (1, make_circle(radius=0.356))]
)


@pytest.mark.parametrize("level,ls", SCAN_CASES,
                         ids=[f"{ls.name}-{ls.inclusion_side}-L{lv}"
                              for lv, ls in SCAN_CASES])
def test_banded_scan_matches_full_scan(level, ls):
    mesh = build_mesh(level)
    psi = np.asarray(ls.side_sign(mesh.nodes), dtype=float)
    want = ref_scan_edges(mesh, ls)
    assert np.array_equal(_scan_edges(mesh, ls, psi), np.flatnonzero(want))
    if ls.simple and np.any(want):
        with pytest.raises(CoarseMeshError) as got:
            classify(mesh, ls)
        with pytest.raises(CoarseMeshError) as expected:
            ref_coarse_mesh_check(mesh, ls)
        assert str(got.value) == str(expected.value)


# BLOCK 75: the band is selected 75 edges at a time and sampled two edges
# at a time, so blocks and their sampling sub-blocks end inside the band
# (every edge of the flower, a few of the circle's); the grazing circle
# flags edges
SMALL_BLOCK_CASES = ((4, make_flower()), (4, make_circle(inclusion_side="plus")),
                     (5, make_circle(radius=0.33417)))


@pytest.mark.parametrize("level,ls", SMALL_BLOCK_CASES,
                         ids=[f"{ls.name}-L{lv}" for lv, ls in SMALL_BLOCK_CASES])
def test_scan_matches_full_scan_across_small_blocks(monkeypatch, level, ls):
    monkeypatch.setattr(mesh_module, "BLOCK", 75)
    mesh = build_mesh(level)
    psi = np.asarray(ls.side_sign(mesh.nodes), dtype=float)
    assert np.array_equal(_scan_edges(mesh, ls, psi), np.flatnonzero(ref_scan_edges(mesh, ls)))


@pytest.mark.parametrize("block", [7, BLOCK])
@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_flower_band_matches_the_unbounded_scan(monkeypatch, level, block):
    # the flower's band, from its gradient bound about each node, holds
    # every edge with a root: the scan flags the edges that sampling every
    # edge flags, and classify flags the same elements.  From level 3 on
    # it samples under a fifth of the points the unbounded scan does
    sampled, radii = [], []

    def phi(x):
        sampled.append(x.size // 2)
        return make_flower().phi(x)

    def grad_bound(x, radius):   # about each node, within its longest edge
        radii.append(radius)
        return make_flower().grad_bound(x, radius)

    flower = dataclasses.replace(make_flower(), phi=phi, grad_bound=grad_bound)
    unbounded = dataclasses.replace(flower, grad_bound=None)
    mesh = build_mesh(level)
    psi = np.asarray(flower.side_sign(mesh.nodes), dtype=float)
    want_ambiguous = classify(mesh, unbounded).ambiguous_elements
    sampled.clear()
    want = _scan_edges(mesh, unbounded, psi)
    every_edge = sum(sampled)
    monkeypatch.setattr(mesh_module, "BLOCK", block)
    sampled.clear()
    assert np.array_equal(_scan_edges(mesh, flower, psi), want)
    if level >= 3:
        assert sum(sampled) < 0.2 * every_edge
    assert np.array_equal(classify(mesh, flower).ambiguous_elements, want_ambiguous)
    assert radii == [mesh.h_elem, mesh.h_elem]


def test_band_margin_covers_an_understated_lipschitz():
    # phi = min(|x - a| - h/5, |x - m| - 3h/20), |grad phi| = 1: a circle
    # about node a and a small one below the middle of the edge a -> b =
    # a + (h, 0), which it crosses twice.  That edge crosses three times,
    # the only edge with more than one crossing, and its ends sum |phi|
    # to h/5 + 0.36h = 0.56h.  Declared L = 0.3 understates |grad phi|:
    # a band of L h_elem = 0.42h would drop the edge, so classify would
    # bisect it to one root; the band of 2 L h_elem = 0.85h keeps it
    mesh = build_mesh(2)
    a = mesh.nodes[np.argmin(np.hypot(*(mesh.nodes - [0.1, 0.2]).T))]
    m = a + [0.5 * mesh.h, -0.1 * mesh.h]

    def phi(x):
        return np.minimum(np.hypot(x[..., 0] - a[0], x[..., 1] - a[1]) - 0.2 * mesh.h,
                          np.hypot(x[..., 0] - m[0], x[..., 1] - m[1]) - 0.15 * mesh.h)

    found = {}
    for bound in (0.3, None):
        ls = LevelSet(phi=phi, simple=False, name="two-circles",
                      grad_bound=None if bound is None else lambda x, radius: bound)
        psi = np.asarray(ls.side_sign(mesh.nodes), dtype=float)
        found[bound] = _scan_edges(mesh, ls, psi), classify(mesh, ls).ambiguous_elements
    (multi, ambiguous), (want_multi, want_ambiguous) = found[0.3], found[None]
    ends = np.abs(psi[mesh.edges(multi)]).sum(axis=1)
    assert multi.size == 1 and 0.3 * mesh.h_elem < ends[0] <= 0.6 * mesh.h_elem
    assert np.array_equal(multi, want_multi)
    assert ambiguous.size == 2 and np.array_equal(ambiguous, want_ambiguous)


@pytest.mark.parametrize("level", [5, 6])
@pytest.mark.parametrize("case", ["flower", "circle"])
def test_flower_scan_memory(case, level):
    # sampling all of a BLOCK of the flower's edges at once took 31.5 /
    # 34.4 MiB at levels 5 / 6, when its band was every edge.  Its band
    # test keeps a gradient bound per node, 0.27 / 1.06 MB.  The circle's
    # bound is one float, so the pass is its band test: about 0.8 MiB
    # with the ends of BLOCK // 2 edges at a time, 1.24 / 1.28 MiB at
    # levels 5 / 6 with those of BLOCK edges
    ls = make_flower() if case == "flower" else make_circle()
    mesh = build_mesh(level)
    psi = np.asarray(ls.side_sign(mesh.nodes), dtype=float)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        multi = _scan_edges(mesh, ls, psi)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    if case == "flower":
        assert multi.size
        assert peak <= 2 * 1024 ** 2
    else:
        assert not multi.size
        assert peak <= 1024 ** 2


def test_non_finite_level_set_is_refused():
    # NaN at the node next to the origin and inf at a later one: the first
    # is named before any pass, where a cast would give that node a side
    mesh = build_mesh(2)
    circle = make_circle(radius=0.5)
    nan_node = int(np.argmin(np.hypot(*mesh.nodes.T)))
    inf_node = nan_node + 5
    calls = []

    def phi(x):
        calls.append(x.shape)
        v = circle.phi(x)
        v = np.where(np.all(x == mesh.nodes[nan_node], axis=-1), np.nan, v)
        return np.where(np.all(x == mesh.nodes[inf_node], axis=-1), np.inf, v)

    ls = LevelSet(phi=phi, grad=circle.grad, name="circle-nan", grad_bound=circle.grad_bound)
    with pytest.raises(GeometryError, match=f"level set is nan at node {nan_node} "):
        classify(mesh, ls)
    assert calls == [mesh.nodes.shape]
    inf_only = LevelSet(phi=lambda x: np.where(np.isnan(phi(x)), 0.25, phi(x)),
                        grad=circle.grad, name="circle-inf")
    with pytest.raises(GeometryError, match=f"level set is inf at node {inf_node} "):
        classify(mesh, inf_only)


# -- grid slices against gathers ----------------------------------------------
# The element flags, the crossing mask and the nodes of each side were
# gathered per element and per edge through ``mesh.elements`` and
# ``mesh.edges``; these are those loops.

def ref_elem_flags(mesh, sign):
    esign = np.empty((mesh.n_elems, 3), dtype=np.int8)
    for lo in range(0, mesh.n_elems, BLOCK):
        esign[lo:lo + BLOCK] = sign[mesh.elements(slice(lo, lo + BLOCK))]
    return np.any(esign < 0, axis=1), np.any(esign > 0, axis=1)


def ref_crossing(mesh, sign):
    ends = sign[mesh.edges(slice(None))]
    return ends[:, 0] * ends[:, 1] < 0


def ref_side_nodes(topo, side):
    has = np.zeros(topo.mesh.n_nodes, dtype=bool)
    has[topo.mesh.elements(np.flatnonzero(topo.in_side(side)))] = True
    return np.flatnonzero(has)


def off_centre_circle(cx, cy, r):
    return LevelSet(phi=lambda x: np.hypot(x[..., 0] - cx, x[..., 1] - cy) - r,
                    simple=True, name=f"circle[{cx},{cy},{r}]",
                    grad_bound=lambda x, radius: 1.0)


def line_through_node(node, a, b):
    """Line through a grid node: the nodes on it get phi exactly 0 when
    (a, b) is axis-aligned, and within the snap otherwise."""
    x0, y0 = node
    return LevelSet(phi=lambda x: a * (x[..., 0] - x0) + b * (x[..., 1] - y0),
                    simple=False, name=f"line[{a},{b}]",
                    grad_bound=lambda x, radius: float(np.hypot(a, b)))


@st.composite
def level_sets(draw, level):
    kind = draw(st.sampled_from(["circle", "line", "flower"]))
    if kind == "flower":
        return make_flower(draw(st.sampled_from(["minus", "plus"])))
    if kind == "circle":
        cx, cy = (draw(st.floats(-0.5, 0.5)) for _ in range(2))
        return off_centre_circle(cx, cy, draw(st.floats(0.05, 0.9)))
    mesh = build_mesh(level)
    node = mesh.nodes[draw(st.integers(0, mesh.n_nodes - 1))]
    a, b = draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0),
                                 (2.0, 1.0), (0.5, -3.0)]))
    return line_through_node(node, a, b)


@settings(max_examples=150)
@given(st.data(), st.integers(1, 4), st.sampled_from([7, 75, BLOCK]))
def test_grid_slices_match_gathers(data, level, block):
    ls = data.draw(level_sets(level))
    mesh = build_mesh(level)
    n = mesh.n_cells
    psi = np.asarray(ls.side_sign(mesh.nodes), dtype=float)
    sign = np.where(np.abs(psi) <= 1e-12 * mesh.h, 0, np.sign(psi)).astype(np.int8)
    has_neg, has_pos = ref_elem_flags(mesh, sign)
    try:
        mesh_module.BLOCK = block
        grid = sign.reshape(n + 1, n + 1)
        assert np.array_equal(elem_any(grid < 0), has_neg)
        assert np.array_equal(elem_any(grid > 0), has_pos)
        multi = _scan_edges(mesh, ls, psi)
    finally:
        mesh_module.BLOCK = BLOCK
    assert np.array_equal(multi, np.flatnonzero(ref_scan_edges(mesh, ls)))
    # every crossing edge is an edge of an element with nodes on both
    # sides, where classify takes its roots, as the scalar reference does
    cand_edges = mesh.elem_edges(np.flatnonzero(has_neg & has_pos))
    assert np.isin(np.flatnonzero(ref_crossing(mesh, sign)), cand_edges).all()
    try:
        want = ref_classify(mesh, ls)
    except CoarseMeshError as exc:
        with pytest.raises(CoarseMeshError, match=re.escape(str(exc))):
            classify(mesh, ls)
    else:
        got = topology_arrays(classify(mesh, ls))
        for name, value in want.items():
            assert np.array_equal(got[name], value), name
    # the nodes of each side, on the element sides of this interface
    elem_side = np.where(has_pos, 1, -1).astype(np.int8)
    elem_side[has_neg & has_pos] = 0
    topo = dataclasses.replace(classify(mesh, make_circle()), elem_side=elem_side)
    layout = build_spaces(topo)
    for side in ("minus", "plus"):
        assert np.array_equal(layout.dof_node(side), ref_side_nodes(topo, side))


def ref_bisect_compacting(ls, pa, pb, fa):
    """``_bisect`` as it compacted the live segments every step."""
    d = pb - pa
    scale = np.hypot(d[:, 0], d[:, 1])
    width_tol = ROOT_WIDTH_TOL / np.maximum(scale, 1e-300)
    eps = np.finfo(float).eps
    ta, tb = np.zeros(fa.shape[0]), np.ones(fa.shape[0])
    fa = fa.copy()
    t = np.full(fa.shape[0], np.nan)

    def side_sign(i, tm):
        return np.asarray(ls.side_sign(pa[i] + tm[:, None] * d[i]), dtype=float)

    live = np.arange(fa.shape[0])
    for _ in range(BISECTION_STEPS):
        if not live.size:
            break
        tm = 0.5 * (ta[live] + tb[live])
        fm = side_sign(live, tm)
        hit = (fm == 0.0) | ((np.abs(fm) <= ROOT_PHI_TOL)
                             & ((tb[live] - ta[live]) * scale[live] <= ROOT_WIDTH_TOL))
        t[live[hit]] = tm[hit]
        live, tm, fm = live[~hit], tm[~hit], fm[~hit]
        lower = fa[live] * fm < 0.0
        tb[live[lower]] = tm[lower]
        ta[live[~lower]] = tm[~lower]
        fa[live[~lower]] = fm[~lower]
        width = tb[live] - ta[live]
        live = live[(width > width_tol[live]) | (width > eps)]
    rest = np.flatnonzero(np.isnan(t))
    tm = 0.5 * (ta[rest] + tb[rest])
    ok = np.abs(side_sign(rest, tm)) <= ROOT_PHI_TOL
    t[rest[ok]] = tm[ok]
    return t


BISECT_CASES = ([(lv, make_circle(inclusion_side=side)) for side in ("minus", "plus")
                 for lv in (1, 3, 5)]
                + [(lv, make_flower()) for lv in (2, 4, 5)]
                + [(1, plane(-1e-16, scale=1e6, simple=False))])


@pytest.mark.parametrize("level,ls", BISECT_CASES,
                         ids=[f"{ls.name}-{ls.inclusion_side}-L{lv}" for lv, ls in BISECT_CASES])
def test_lockstep_bisection_matches_compacting_loop(level, ls):
    mesh = build_mesh(level)
    psi = np.asarray(ls.side_sign(mesh.nodes), dtype=float)
    ends = mesh.edges(slice(None))
    cross = np.flatnonzero(psi[ends[:, 0]] * psi[ends[:, 1]] < 0)
    pa, pb = mesh.nodes[ends[cross, 0]], mesh.nodes[ends[cross, 1]]
    got = _bisect(ls, pa, pb, psi[ends[cross, 0]])
    want = ref_bisect_compacting(ls, pa, pb, psi[ends[cross, 0]])
    assert cross.size and got.tobytes() == want.tobytes()
    # the flower's segments through its pinch and the steep plane's fail:
    # NaN in both, where the compacting loop dropped them early
    assert np.isnan(got).any() == (not ls.simple)


def split_one(coords, signs, roots):
    """The vectorised split of a single triangle; None marks a missing root."""
    has_root = np.array([r is not None for r in roots])
    r = np.array([[np.nan, np.nan] if x is None else x for x in roots], dtype=float)
    p, q, pm, km, pp, kp = _split(coords[None], np.asarray(signs)[None],
                                  has_root[None], r[None])
    return p[0], q[0], pm[0, :km[0]], pp[0, :kp[0]]


def fan_rule(poly):
    rule = _fan_rule(np.zeros(1), np.asarray(poly)[None], np.array([len(poly)]))
    assert rule.ptr.tolist() == [0, rule.weights.size]
    return rule.points, rule.weights


def area(poly):
    return _polygon_area(np.asarray(poly)[None], np.array([len(poly)]))[0]


def test_reference_triangle_split():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    signs = np.array([-1, 1, -1])  # phi = x - 0.5
    roots = [np.array([0.5, 0.0]), np.array([0.5, 0.5]), None]
    p, q, poly_m, poly_p = split_one(coords, signs, roots)
    # the CCW minus polygon (v0, r0, r1, v2) runs from r0 to r1, so the
    # clockwise perpendicular of q - p, (1, 0), points out of it
    np.testing.assert_array_equal(p, [0.5, 0.0])
    np.testing.assert_array_equal(q, [0.5, 0.5])
    assert np.isclose(area(poly_m), 0.375, atol=1e-15)
    assert np.isclose(area(poly_p), 0.125, atol=1e-15)
    for got, want in zip((p, q, poly_m, poly_p), ref_split_element(coords, signs, roots)):
        np.testing.assert_array_equal(got, want)


def test_polygon_rule_reference_triangle():
    _, weights = fan_rule([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.isclose(weights.sum(), 0.5, atol=1e-15)


@given(st.floats(min_value=-0.8, max_value=0.8),
       st.floats(min_value=0.1, max_value=2 * np.pi - 0.1))
def test_polygon_rule_linear_exact(c, theta):
    # clip a fixed triangle by a rotated line and integrate a linear field
    coords = np.array([[-1.0, -1.0], [1.0, -0.8], [0.1, 1.0]])
    n = np.array([np.cos(theta), np.sin(theta)])
    signs = np.sign(coords @ n - c).astype(int)
    if 0 in signs or len(set(signs)) == 1:
        return  # degenerate configuration, nothing to clip
    roots = []
    for i in range(3):
        a, b = coords[i], coords[(i + 1) % 3]
        fa, fb = a @ n - c, b @ n - c
        roots.append(a + (b - a) * (fa / (fa - fb)) if fa * fb < 0 else None)
    _, _, poly_m, poly_p = split_one(coords, signs, roots)
    for poly in (poly_m, poly_p):
        points, weights = fan_rule(poly)
        approx = np.sum(weights * (0.3 + 1.7 * points[:, 0] - 0.9 * points[:, 1]))
        exact = poly_linear_integral(poly, 0.3, 1.7, -0.9)
        assert abs(approx - exact) <= 1e-12


@pytest.mark.parametrize("level", [1, 2, 3])
def test_area_partition(level, circle_classified):
    mesh, topo = circle_classified(level)
    area_minus, area_plus = topo.area("minus", slice(None)), topo.area("plus", slice(None))
    np.testing.assert_allclose(area_minus + area_plus, mesh.areas(slice(None)), atol=1e-12)
    assert abs(area_minus.sum() + area_plus.sum() - 4.0) <= 1e-10


def test_side_quadrature_matches_clipped_areas(circle_classified):
    mesh, topo = circle_classified(2)
    for side in ("minus", "plus"):
        elems, _, weights = side_rule(topo, side)
        sums = np.zeros(mesh.n_elems)
        np.add.at(sums, elems, weights)
        covered = np.flatnonzero(topo.in_side(side))
        np.testing.assert_allclose(sums[covered], topo.area(side, covered),
                                   atol=1e-12)


def test_interface_weights_sum_to_chord_length(circle_classified):
    _, topo = circle_classified(2)
    points, weights = topo.interface_rule()
    assert points.shape == (topo.n_cut, 2, 2) and weights.shape == (topo.n_cut, 2)
    per_chord = weights.sum(axis=1)
    np.testing.assert_allclose(per_chord, topo.chord_len, atol=1e-14)
    assert np.all(topo.chord_len > 0.0)


def test_chord_endpoints_on_interface(circle_classified):
    _, topo = circle_classified(2)
    ls = topo.levelset
    assert np.max(np.abs(ls.value(topo.chord_p))) <= 1e-12
    assert np.max(np.abs(ls.value(topo.chord_q))) <= 1e-12


def test_normals_point_out_of_minus(circle_classified):
    for side, want in (("minus", 1.0), ("plus", -1.0)):
        _, topo = circle_classified(2, inclusion_side=side)
        mid = 0.5 * (topo.chord_p + topo.chord_q)
        radial = mid / np.hypot(mid[:, 0], mid[:, 1])[:, None]
        dots = want * np.sum(topo.chord_normal * radial, axis=1)
        assert np.min(dots) > 0.999


def test_circle_area_and_length_convergence():
    errs_area, errs_len, hs = [], [], []
    ls = make_circle()
    for level in range(1, 6):
        mesh = build_mesh(level)
        topo = classify(mesh, ls)
        errs_area.append(abs(topo.area("minus", slice(None)).sum() - np.pi / 9.0))
        errs_len.append(abs(topo.chord_len.sum() - 2.0 * np.pi / 3.0))
        hs.append(mesh.h)
    slope_area = np.polyfit(np.log(hs), np.log(errs_area), 1)[0]
    slope_len = np.polyfit(np.log(hs), np.log(errs_len), 1)[0]
    assert slope_area >= 1.8
    assert slope_len >= 1.8


def test_flower_area_against_polar_oracle():
    # independent oracle: area enclosed by r = max(1/18 + 0.2 sin 5s, 0)
    s = np.linspace(0.0, 2.0 * np.pi, 200_001)
    r = np.maximum(1.0 / 18.0 + 0.2 * np.sin(5.0 * s), 0.0)
    oracle = np.trapezoid(0.5 * r * r, s)
    ls = make_flower()
    rel = []
    for level in (2, 3, 4):
        mesh = build_mesh(level)
        topo = classify(mesh, ls)
        rel.append(abs(topo.area("minus", slice(None)).sum() - oracle) / oracle)
    assert rel[1] < 5e-2
    assert rel[2] < 5e-3
    assert rel[0] > rel[1] > rel[2]


def test_flower_flags_ambiguous_elements():
    mesh = build_mesh(3)
    topo = classify(mesh, make_flower())
    # pinch points at the origin leave a few unresolved elements
    assert topo.ambiguous_elements.size > 0
    assert topo.ambiguous_elements.size < 10


def test_ghost_edges_brute_force(circle_classified):
    mesh, topo = circle_classified(2)
    cut = np.zeros(mesh.n_elems, dtype=bool)
    cut[topo.cut_ids] = True
    for side, got in (("minus", topo.ghost_minus), ("plus", topo.ghost_plus)):
        in_side = topo.in_side(side)
        expected = []
        for e, (t1, t2) in enumerate(mesh.edge_elems(slice(None))):
            if t2 < 0:
                continue
            if in_side[t1] and in_side[t2] and (cut[t1] or cut[t2]):
                expected.append(e)
        assert np.array_equal(np.sort(got), np.array(expected))
        # in particular every interior edge between two cut elements is there
        both_cut = [e for e, (t1, t2) in enumerate(mesh.edge_elems(slice(None)))
                    if t2 >= 0 and cut[t1] and cut[t2]]
        assert np.all(np.isin(both_cut, got))


def test_uncut_side_sets():
    mesh = build_mesh(2)
    all_plus = LevelSet(phi=lambda x: (x[..., 0] - 10.0) ** 2 + x[..., 1] ** 2 - 1.0)
    topo = classify(mesh, all_plus)
    assert topo.cut_ids.size == 0
    assert topo.ghost_minus.size == 0
    assert topo.ghost_plus.size == 0
    assert not topo.in_side("minus").any()
    assert topo.in_side("plus").all()
    assert np.isclose(topo.area("plus", slice(None)).sum(), 4.0, atol=1e-12)

    all_minus = LevelSet(phi=lambda x: 1.0 - (x[..., 0] - 10.0) ** 2 - x[..., 1] ** 2)
    topo = classify(mesh, all_minus)
    assert topo.cut_ids.size == 0
    assert not topo.in_side("plus").any()
    assert np.isclose(topo.area("minus", slice(None)).sum(), 4.0, atol=1e-12)


def test_plane_cut_chords_vertical():
    # line x = -0.55 + h/3 crosses every cell column off the grid lines
    mesh = build_mesh(1)
    c = -0.55 + mesh.h / 3.0
    topo = classify(mesh, plane(c))
    assert topo.cut_ids.size > 0
    np.testing.assert_allclose(topo.chord_p[:, 0], c, atol=1e-12)
    np.testing.assert_allclose(topo.chord_q[:, 0], c, atol=1e-12)
    np.testing.assert_allclose(topo.chord_normal, [[1.0, 0.0]] * topo.n_cut,
                               atol=1e-12)
    # clipped areas against the exact trapezoid split of each triangle
    total_minus = topo.area("minus", slice(None)).sum()
    assert np.isclose(total_minus, 2.0 * (c + 1.0), atol=1e-12)


def test_vertex_touch_at_level1():
    # at level 1 the circle passes exactly through four grid nodes
    mesh = build_mesh(1)
    topo = classify(mesh, make_circle())
    assert (topo.node_sign == 0).sum() == 4
    total = topo.area("minus", slice(None)) + topo.area("plus", slice(None))
    np.testing.assert_allclose(total, mesh.areas(slice(None)), atol=1e-12)


def test_cut_sets_are_consistent(circle_classified):
    mesh, topo = circle_classified(3)
    cut = set(topo.cut_ids)
    minus = set(np.flatnonzero(topo.in_side("minus")))
    plus = set(np.flatnonzero(topo.in_side("plus")))
    assert cut <= minus & plus
    uncut = set(range(mesh.n_elems)) - cut
    for t in uncut:
        assert (t in minus) != (t in plus)


def test_cut_quadrature_points_inside_elements(circle_classified):
    mesh, topo = circle_classified(2)
    for side in ("minus", "plus"):
        elems, points, weights = side_rule(topo, side)
        lo = mesh.nodes[mesh.elements(elems)].min(axis=1)
        hi = mesh.nodes[mesh.elements(elems)].max(axis=1)
        assert np.all(points >= lo - 1e-12)
        assert np.all(points <= hi + 1e-12)
        assert np.all(weights > 0.0)
        assert np.all(np.diff(elems) >= 0)  # sorted by element
