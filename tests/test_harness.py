"""Batch harness: configs, tables, and the backward-error acceptance of
stagnated solves."""
import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from cutnitsche import harness
from cutnitsche.assembly import build_system, expand_solution
from cutnitsche.cutcell import classify
from cutnitsche.harness import (CONTRAST_COLUMNS, CONTRAST_PAIRS,
                                CONVERGENCE_COLUMNS, ConfigError, RunConfig,
                                Table, make_problem,
                                run_contrast_sweep, run_convergence,
                                run_solve, solve_table)
from cutnitsche.levelset import make_flower
from cutnitsche.mesh import build_mesh
from cutnitsche.norms import error_report
from cutnitsche.problems import ProblemSpec, example_flower
from cutnitsche.solver import BACKWARD_ERROR_TOL, StagnationError, solve
from cutnitsche.space import build_spaces


def test_config_validation():
    for kwargs in (dict(example="3"), dict(inclusion_side="left"),
                   dict(format="json"), dict(rho_minus=-1.0),
                   dict(rho_plus=0.0)):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)


def test_config_resolution():
    # the example-dependent rho_plus is concrete from construction on,
    # and a replaced config that names it keeps the named value
    for example, rho_plus in (("1", 1e4), ("2", 1e4), ("patch", 3.0)):
        config = RunConfig(example=example, rho_minus=3.0)
        assert config.rho_plus == rho_plus
        assert dataclasses.replace(config, level=2).rho_plus == rho_plus
        assert dataclasses.replace(config, rho_minus=5.0, rho_plus=5.0).rho_plus == 5.0
    assert RunConfig(example="patch").rho_plus == 1.0
    assert RunConfig(example="1", rho_plus=25.0).rho_plus == 25.0
    with pytest.raises(ConfigError, match="equal coefficients"):
        RunConfig(example="patch", rho_plus=2.0)
    with pytest.raises(ConfigError, match="equal coefficients"):
        dataclasses.replace(RunConfig(example="patch"), rho_plus=2.0)


def test_study_levels(monkeypatch):
    # the levels rule of run_convergence: the argument, else config.levels,
    # whose default is 1..5; non-empty and ascending
    solved = []

    def fake_solve(config, level):
        solved.append(level)
        report = SimpleNamespace(h=0.5 ** level, e0=1.0, einf=1.0, eflux=1.0, efluxinf=1.0)
        return SimpleNamespace(report=report)

    monkeypatch.setattr(harness, "run_solve", fake_solve)
    for config, levels, want in ((RunConfig(), None, [1, 2, 3, 4, 5]),
                                 (RunConfig(levels=(2, 3)), None, [2, 3]),
                                 (RunConfig(levels=(2, 3)), (1, 4), [1, 4])):
        solved.clear()
        assert [r[0] for r in run_convergence(config, levels).rows] == want
        assert solved == want
    # refused before anything is solved; a level given twice too
    solved.clear()
    for config, levels in ((RunConfig(), ()), (RunConfig(), (3, 2)),
                           (RunConfig(levels=(3, 2)), None), (RunConfig(), (2, 2)),
                           (RunConfig(), (1, 2, 2, 3)), (RunConfig(levels=(2, 2)), None)):
        with pytest.raises(ConfigError, match="non-empty and ascending"):
            run_convergence(config, levels)
    assert solved == []


def test_make_problem_example_constraints():
    with pytest.raises(ConfigError, match="minus"):
        make_problem(RunConfig(example="2", inclusion_side="plus"))
    ls, spec = make_problem(RunConfig(example="patch-flower"))
    assert ls.name == "flower"
    ls, _ = make_problem(RunConfig(example="1", circle_radius=0.25))
    assert "0.25" in ls.name


def test_table_rendering():
    table = Table(columns=("level", "h", "e0", "eoc0"),
                  rows=((1, 0.5, 1.25e-3, None), (2, 0.25, 3.1e-4, 2.012345)))
    csv = table.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "level,h,e0,eoc0"
    assert lines[1] == "1,5.000000e-01,1.250000e-03,"  # empty eoc cell
    assert lines[2].endswith(",2.012")
    md = table.to_markdown()
    assert "| -" in md.splitlines()[2]  # empty cell renders as a dash
    assert table.render("markdown") == md
    assert table.render() == csv


def test_run_solve_patch_is_exact():
    result = run_solve(RunConfig(example="patch", level=1))
    assert result.report.e0 <= 1e-10
    assert result.report.vanorm <= 1e-10
    assert result.stats.relative_residual <= 1e-12
    assert result.config.rho_plus == 1.0  # resolution happened


@pytest.mark.parametrize("side", ["minus", "plus"])
def test_flower_patch_test_takes_the_inclusion_side(side):
    result = run_solve(RunConfig(example="patch-flower", inclusion_side=side, level=2))
    assert result.topo.levelset.name == "flower"
    assert result.topo.levelset.inclusion_side == side
    assert result.layout.outer_side() == ("plus" if side == "minus" else "minus")
    assert result.report.e0 <= 1e-10
    assert result.report.eflux <= 1e-10


def test_convergence_table_shape():
    table = run_convergence(RunConfig(example="1"), levels=(1, 2))
    assert table.columns == CONVERGENCE_COLUMNS
    assert len(table.rows) == 2
    assert table.rows[0][3] is None           # no order at the first level
    assert table.rows[1][3] is not None
    single = run_convergence(RunConfig(example="1"), levels=(2,))
    assert single.rows[0][3] is None
    csv = single.to_csv()
    assert csv.splitlines()[1].endswith(",")  # trailing empty order columns


def test_convergence_rejects_descending_levels():
    with pytest.raises(ConfigError):
        run_convergence(RunConfig(example="1"), levels=(3, 1))


def test_contrast_sweep_schema():
    pairs = ((1.0, 10.0), (0.5, 20.0))
    table = run_contrast_sweep(RunConfig(example="1", level=1), pairs=pairs)
    assert table.columns == CONTRAST_COLUMNS
    assert [tuple(r[:2]) for r in table.rows] == list(pairs)
    assert all(r[3] > 0.0 for r in table.rows)
    assert CONTRAST_PAIRS[0] == (1.0, 1e1) and len(CONTRAST_PAIRS) == 5


@pytest.mark.parametrize("config", [RunConfig(example="1", inclusion_side="plus"),
                                    RunConfig(example="2")], ids=["circle-plus", "flower"])
def test_contrast_sweep_shares_geometry(config, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "classify",
                        lambda *args: calls.append(args) or classify(*args))
    pairs = ((1.0, 10.0), (1e-3, 1e4), (1e-4, 1e5))
    table = run_contrast_sweep(dataclasses.replace(config, level=2), pairs=pairs)
    assert len(calls) == 1
    monkeypatch.undo()
    for row, (rho_minus, rho_plus) in zip(table.rows, pairs):
        cfg = dataclasses.replace(config, rho_minus=rho_minus, rho_plus=rho_plus)
        rep = run_solve(cfg, level=2).report
        assert row == (rho_minus, rho_plus, rep.e0, rep.eflux, rep.esqrt)


def _lu_eflux(problems, level=4):
    """eflux of each (level set, spec) of ``problems`` on the first one's
    geometry at ``level``, each system solved by sparse LU."""
    layout, eflux = None, []
    for ls, spec in problems:
        if layout is None:
            layout = build_spaces(classify(build_mesh(level), ls))
        system = build_system(layout, spec)
        x = splu(system.matrix.tocsc()).solve(system.rhs)
        eflux.append(error_report(spec, expand_solution(system, x)).eflux)
    return eflux


def _spread(eflux):
    return max(eflux) / min(eflux)


def _lu_flux_spread(inclusion_side, swap):
    """max / min of eflux over CONTRAST_PAIRS for the circle at level 4,
    each system solved by sparse LU.  With ``swap`` the side labels of
    the same physical problem are exchanged (inclusion side flipped, rho-
    and rho+ exchanged), so the Nitsche flux and penalty come from the
    high-coefficient side; the manufactured solution then moves by a
    global constant, which the method reproduces exactly."""
    side = {"minus": "plus", "plus": "minus"}[inclusion_side] if swap else inclusion_side
    return _spread(_lu_eflux(
        make_problem(RunConfig(example="1", inclusion_side=side,
                               rho_minus=high if swap else low, rho_plus=low if swap else high))
        for low, high in CONTRAST_PAIRS))


@pytest.mark.parametrize("inclusion_side", ["minus", "plus"])
def test_swapped_labels_fail_the_spread_bound(inclusion_side):
    # negative control of the acceptance gates' spread bound of 1.25:
    # the flux from the high-coefficient side depends on the contrast
    assert _lu_flux_spread(inclusion_side, swap=True) > 1.25
    assert _lu_flux_spread(inclusion_side, swap=False) <= 1.25


def _swapped_flower(rho_petal, rho_outer):
    """Example 2 with its side labels exchanged: the petals are the plus
    side and the outer region the minus side, whose flux and penalty the
    Nitsche terms then take.  Solutions, gradients and sources trade
    sides, and the jumps are taken plus minus minus, as ProblemSpec
    defines them."""
    ls = make_flower(inclusion_side="plus")
    _, paper = example_flower(rho_petal, rho_outer)

    def jump_flux(x):
        d = rho_outer * paper.grad_plus(x) - rho_petal * paper.grad_minus(x)
        return np.sum(d * ls.normal_minus(x), axis=-1)

    return ls, ProblemSpec(
        rho_minus=rho_outer, rho_plus=rho_petal,
        f_minus=paper.f_plus, f_plus=paper.f_minus,
        jump_value=lambda x: paper.exact_minus(x) - paper.exact_plus(x),
        jump_flux=jump_flux, dirichlet=paper.dirichlet,
        exact_minus=paper.exact_plus, exact_plus=paper.exact_minus,
        grad_minus=paper.grad_plus, grad_plus=paper.grad_minus)


def test_swapped_flower_labels_fail_the_spread_bound():
    # the negative control on the non-simple interface: contrast 1, where
    # the two labellings differ only by the discretisation, then the pairs
    pairs = ((1.0, 1.0),) + CONTRAST_PAIRS
    swapped = _lu_eflux(_swapped_flower(low, high) for low, high in pairs)
    paper = _lu_eflux(make_problem(RunConfig(example="2", rho_minus=low, rho_plus=high))
                      for low, high in pairs)
    # the swapped spec poses example 2's physical problem
    assert swapped[0] == pytest.approx(paper[0], rel=0.01)
    assert _spread(swapped[1:]) > 1.25
    assert _spread(paper[1:]) <= 1.25


def test_floor_acceptance_at_extreme_contrast():
    # contrast 1e9 with the inclusion on the large-coefficient side hits
    # the double-precision residual floor; the harness accepts the iterate
    # on its backward error and tags it
    config = RunConfig(example="1", level=1, rho_minus=1e-4, rho_plus=1e5,
                       inclusion_side="plus")
    result = run_solve(config)
    assert result.stats.method == "cg_jacobi+floor"
    assert result.stats.relative_residual > 1e-12
    assert result.stats.backward_error <= BACKWARD_ERROR_TOL
    # the exact solution scales like 1/rho^-; the error stays a few
    # percent of it even on the coarsest mesh
    assert result.report.e0 * config.rho_minus < 0.2


def test_stagnated_iterate_above_backward_error_bound_is_refused(monkeypatch):
    config = RunConfig(example="1", level=1, rho_minus=1e-4, rho_plus=1e5,
                       inclusion_side="plus")
    raised = []

    def perturbed_solve(system, *args, **kwargs):
        with pytest.raises(StagnationError) as err:
            solve(system, *args, **kwargs)
        x = err.value.x.copy()
        x[::2] *= 1.0 + 1e-8
        r = system.rhs - system.matrix @ x
        a_norm = np.abs(system.matrix.toarray()).sum(axis=1).max()
        be = np.abs(r).max() / (a_norm * np.abs(x).max() + np.abs(system.rhs).max())
        stats = dataclasses.replace(err.value.stats, backward_error=be)
        raised.append(stats)
        raise StagnationError("perturbed iterate", stats, x)

    monkeypatch.setattr(harness, "solve", perturbed_solve)
    with pytest.raises(StagnationError, match="perturbed"):
        run_solve(config)
    assert raised[0].backward_error > BACKWARD_ERROR_TOL


def test_determinism_bitwise():
    a = run_solve(RunConfig(example="1", level=2))
    b = run_solve(RunConfig(example="1", level=2))
    assert a.report == b.report
    assert a.stats == b.stats
    ta = run_convergence(RunConfig(example="1"), levels=(1, 2)).to_csv()
    tb = run_convergence(RunConfig(example="1"), levels=(1, 2)).to_csv()
    assert ta == tb


def test_solve_table_includes_stats():
    result = run_solve(RunConfig(example="patch", level=1))
    table = solve_table(result)
    assert table.columns[-3:] == ("iterations", "residual", "method")
    assert table.rows[0][-1] == "cg_jacobi"
    assert "e0" in table.columns


def test_result_geometry_is_the_system_layout():
    result = run_solve(RunConfig(example="1", level=1))
    layout = result.system.layout
    assert result.field.layout is layout
    assert result.layout is layout
    assert result.mesh is layout.mesh
    assert result.topo is layout.topo
    assert result.report.level == result.mesh.level == 1


def test_result_config_carries_the_solved_level():
    result = run_solve(RunConfig(example="1"), level=1)
    assert result.config.level == 1 == result.report.level == result.mesh.level
    assert run_solve(RunConfig(example="1", level=1)).config.level == 1


def test_contrast_sweep_solves_at_the_given_level(monkeypatch):
    levels = []
    real = harness._solve_on
    monkeypatch.setattr(harness, "_solve_on", lambda config, spec, layout: levels.append(
        (config.level, layout.mesh.level)) or real(config, spec, layout))
    run_contrast_sweep(RunConfig(example="1", level=1), pairs=((1.0, 10.0),))
    assert levels == [(1, 1)]


def test_config_is_frozen():
    config = RunConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.level = 4
