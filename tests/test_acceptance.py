"""Acceptance suite: one test per shipping criterion.

Each test prints a single ``[acceptance] <name>: PASS|FAIL`` line (visible
with ``pytest -s`` or in the captured output of a failure) and asserts the
collected violations, so a red test names every gate it missed.  The level
studies are shared module-wide because the level-5 solves dominate the
runtime.
"""
import dataclasses

import numpy as np
import pytest

from cutnitsche.assembly import assemble_vnorm_gram, build_system
from cutnitsche.cutcell import classify
from cutnitsche.diagnostics import coercivity_probe, run_diagnostics
from cutnitsche.harness import (RunConfig, make_problem, run_contrast_sweep,
                                run_convergence, run_solve)
from cutnitsche.levelset import make_circle
from cutnitsche.mesh import build_mesh
from cutnitsche.space import build_spaces


def _col(table, name):
    i = table.columns.index(name)
    return [row[i] for row in table.rows]


def _require(failures, cond, message):
    if not cond:
        failures.append(message)


def _verdict(label, failures):
    print(f"[acceptance] {label}: {'FAIL' if failures else 'PASS'}")
    assert not failures, f"{label}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def conv_minus():
    config = RunConfig(example="1", rho_minus=1.0, rho_plus=1e4,
                       inclusion_side="minus")
    return run_convergence(config)


@pytest.fixture(scope="module")
def conv_plus():
    config = RunConfig(example="1", rho_minus=1.0, rho_plus=1e4,
                       inclusion_side="plus")
    return run_convergence(config)


@pytest.fixture(scope="module")
def sweeps_level5():
    tables = {}
    for side in ("minus", "plus"):
        config = RunConfig(example="1", inclusion_side=side)
        tables[side] = run_contrast_sweep(dataclasses.replace(config, level=5))
    return tables


@pytest.fixture(scope="module")
def flower_conv():
    return run_convergence(RunConfig(example="2", rho_minus=1.0, rho_plus=1e5))


@pytest.fixture(scope="module")
def flower_sweep():
    return run_contrast_sweep(RunConfig(example="2", level=5))


@pytest.fixture(scope="module")
def diag_report():
    return run_diagnostics(RunConfig(example="1"))


def _check_circle_convergence(table, failures):
    eoc0 = _col(table, "eoc0")[-2:]
    eocflux = _col(table, "eocflux")[-2:]
    eflux5 = _col(table, "eflux")[-1]
    _require(failures, all(v >= 1.5 for v in eoc0),
             f"L2 orders at the last two levels {eoc0} not all >= 1.5")
    _require(failures, all(0.8 <= v <= 1.2 for v in eocflux),
             f"flux orders at the last two levels {eocflux} not in 1.0 +/- 0.2")
    _require(failures, 1.3e-2 / 2.0 <= eflux5 <= 1.3e-2 * 2.0,
             f"level-5 flux error {eflux5:.3e} not within x2 of 1.3e-2")


def test_criterion_1_convergence_minus_inclusion(conv_minus):
    failures = []
    _check_circle_convergence(conv_minus, failures)
    _verdict("1 circle convergence, minus inclusion", failures)


def test_criterion_2_convergence_plus_inclusion(conv_plus):
    failures = []
    _check_circle_convergence(conv_plus, failures)
    _verdict("2 circle convergence, plus inclusion", failures)


def test_criterion_3_contrast_robustness(sweeps_level5):
    failures = []
    for side, table in sweeps_level5.items():
        eflux = _col(table, "eflux")
        e0 = _col(table, "e0")
        esqrt = _col(table, "esqrt")
        spread = max(eflux) / min(eflux)
        _require(failures, spread <= 1.25,
                 f"{side}: flux-error spread {spread:.4f} > 1.25")
        _require(failures, all(b > a for a, b in zip(e0, e0[1:])),
                 f"{side}: e0 not monotonically increasing: {e0}")
        _require(failures, all(b > a for a, b in zip(esqrt, esqrt[1:])),
                 f"{side}: esqrt not monotonically increasing: {esqrt}")
    _verdict("3 contrast robustness at level 5", failures)


def test_criterion_4_nonhomogeneous_jumps(flower_conv, flower_sweep):
    failures = []
    last = _col(flower_conv, "eocflux")[-1]
    _require(failures, last >= 0.9,
             f"final flux order {last:.3f} < 0.9")
    eflux = _col(flower_sweep, "eflux")
    spread = max(eflux) / min(eflux)
    _require(failures, spread <= 1.25,
             f"sweep flux-error spread {spread:.4f} > 1.25")
    _require(failures,
             all(1.4e-2 / 2.0 <= v <= 1.4e-2 * 2.0 for v in eflux),
             f"sweep flux errors {eflux} not within x2 of 1.4e-2")
    _verdict("4 nonhomogeneous jumps, flower interface", failures)


def test_criterion_5_patch_test():
    failures = []
    report = run_solve(RunConfig(example="patch", level=2)).report
    for name, value in report.as_dict().items():
        if name in ("level", "h"):
            continue
        _require(failures, value <= 1e-10,
                 f"{name} = {value:.3e} > 1e-10")
    _verdict("5 linear patch test", failures)


def test_criterion_6_structural_properties():
    failures = []

    config = RunConfig(example="1", level=2)
    mesh = build_mesh(2)
    ls, spec = make_problem(config)
    topo = classify(mesh, ls)
    layout = build_spaces(topo)
    system = build_system(layout, spec)

    a = system.matrix
    asym = np.abs((a - a.T).toarray()).max() / np.abs(a.toarray()).max()
    _require(failures, asym <= 1e-12,
             f"matrix asymmetry {asym:.3e} > 1e-12 relative")

    q = coercivity_probe(a, assemble_vnorm_gram(layout, spec), dense=True)
    _require(failures, q > 0.0, f"coercivity quotient {q:.3e} not positive")

    # quadrature partition and geometric convergence of the cut circle
    hs, area_err, chord_err = [], [], []
    for level in (1, 2, 3, 4, 5):
        m = build_mesh(level)
        t = classify(m, make_circle())
        area_minus, area_plus = t.area("minus", slice(None)), t.area("plus", slice(None))
        total = area_minus.sum() + area_plus.sum()
        if level == 2:
            _require(failures, abs(total - 4.0) <= 1e-10,
                     f"area partition off by {abs(total - 4.0):.3e}")
        hs.append(m.h)
        area_err.append(abs(area_minus.sum() - np.pi / 9.0))
        chord_err.append(abs(t.chord_len.sum() - 2.0 * np.pi / 3.0))
    slope_area = np.polyfit(np.log(hs), np.log(area_err), 1)[0]
    slope_chord = np.polyfit(np.log(hs), np.log(chord_err), 1)[0]
    _require(failures, slope_area >= 1.8,
             f"cut-area order {slope_area:.3f} < 1.8")
    _require(failures, slope_chord >= 1.8,
             f"chord-sum order {slope_chord:.3f} < 1.8")

    stats = run_solve(config).stats
    _require(failures, stats.relative_residual <= 1e-12,
             f"solve residual {stats.relative_residual:.3e} > 1e-12")

    _verdict("6 structural properties", failures)


def _blocks(report):
    out = {}
    for chunk in report.strip("\n").split("\n\n"):
        lines = chunk.splitlines()
        header = lines[1].split(",")
        out[lines[0].lstrip("# ")] = [dict(zip(header, line.split(",")))
                                      for line in lines[2:]]
    return out


def test_criterion_7_diagnostic_profiles(diag_report):
    failures = []
    blocks = _blocks(diag_report)

    ratios = [float(r["min_ratio"]) for r in blocks["patch_area_ratio"]
              if int(r["level"]) >= 2]
    _require(failures, min(ratios) > 0.0, "patch-area ratio not bounded below")
    _require(failures, max(ratios) / min(ratios) <= 2.0,
             f"patch-area ratio varies by {max(ratios) / min(ratios):.3f} > x2 "
             "over levels 2..5")

    ext = [float(r["max_ratio"]) for r in blocks["discrete_extension"]]
    growth = [b / a for a, b in zip(ext, ext[1:])]
    _require(failures, all(g <= 2.0 for g in growth),
             f"extension stability ratio grows by {growth} (> x2 per level)")

    interp = [float(r["ratio"]) for r in blocks["interpolation"]]
    _require(failures, max(interp) / min(interp) <= 3.0,
             f"interpolation ratio varies by {max(interp) / min(interp):.3f} "
             "> x3 over levels 1..5")

    _verdict("7 diagnostic profiles", failures)
