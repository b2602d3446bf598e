"""Batch harness: configs, tables, and the backward-error acceptance of
stagnated solves."""
import dataclasses

import numpy as np
import pytest

from cutnitsche import harness
from cutnitsche.cutcell import classify
from cutnitsche.harness import (CONTRAST_COLUMNS, CONTRAST_PAIRS,
                                CONVERGENCE_COLUMNS, ConfigError, RunConfig,
                                Table, dump_solution, make_problem,
                                run_contrast_sweep, run_convergence,
                                run_solve, solve_table)
from cutnitsche.solver import BACKWARD_ERROR_TOL, StagnationError, solve


def test_config_validation():
    for kwargs in (dict(example="3"), dict(interface="square"),
                   dict(inclusion_side="left"),
                   dict(format="json"), dict(rho_minus=-1.0),
                   dict(rho_plus=0.0)):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)


def test_config_resolution():
    assert RunConfig(example="1").resolve().rho_plus == 1e4
    assert RunConfig(example="patch").resolve().rho_plus == 1.0
    assert RunConfig(example="patch", rho_minus=3.0).resolve().rho_plus == 3.0
    explicit = RunConfig(example="1", rho_plus=25.0).resolve()
    assert explicit.rho_plus == 25.0
    with pytest.raises(ConfigError, match="equal coefficients"):
        RunConfig(example="patch", rho_plus=2.0).resolve()


def test_study_levels():
    assert RunConfig().study_levels() == (1, 2, 3, 4, 5)
    assert RunConfig(levels=(2, 3)).study_levels() == (2, 3)
    with pytest.raises(ConfigError):
        RunConfig(levels=(3, 2)).study_levels()


def test_make_problem_example_constraints():
    with pytest.raises(ConfigError, match="circle"):
        make_problem(RunConfig(example="1", interface="flower"))
    with pytest.raises(ConfigError, match="flower"):
        make_problem(RunConfig(example="2", interface="circle"))
    with pytest.raises(ConfigError, match="minus"):
        make_problem(RunConfig(example="2", inclusion_side="plus"))
    ls, spec = make_problem(RunConfig(example="patch", interface="flower"))
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
    table = run_contrast_sweep(RunConfig(example="1"), pairs=pairs, level=1)
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
    table = run_contrast_sweep(config, pairs=pairs, level=2)
    assert len(calls) == 1
    monkeypatch.undo()
    for row, (rho_minus, rho_plus) in zip(table.rows, pairs):
        cfg = dataclasses.replace(config, rho_minus=rho_minus, rho_plus=rho_plus)
        rep = run_solve(cfg, level=2).report
        assert row == (rho_minus, rho_plus, rep.e0, rep.eflux, rep.esqrt)


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


def test_dump_solution(tmp_path):
    result = run_solve(RunConfig(example="patch", level=1))
    path = tmp_path / "solution.csv"
    dump_solution(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "side,node,x,y,value"
    assert len(lines) == 1 + result.layout.n_total
    side, node, x, y, value = lines[1].split(",")
    assert side == "minus"
    # patch solution: value = 1 + x + 2y at every node of either side
    assert float(value) == pytest.approx(1.0 + float(x) + 2.0 * float(y),
                                         abs=1e-10)


def test_config_is_frozen():
    config = RunConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.level = 4
