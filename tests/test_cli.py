"""End-to-end checks of the command-line front end.

Everything runs through ``main(argv)`` so the exit-code contract and the
stdout/stderr split are exercised exactly as a shell user sees them.
"""
import tracemalloc

import numpy as np
import pytest

from cutnitsche import cli
from cutnitsche.cli import main, parse_config_file, parse_levels
from cutnitsche.harness import ConfigError, RunConfig, Table, run_solve
from cutnitsche.mesh import build_mesh


SOLVE_HEADER = ("level,h,e0,einf,eflux,efluxinf,esqrt,vnorm,vanorm,"
                "e0_minus,e0_plus,eflux_minus,eflux_plus,"
                "iterations,residual,method")


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv(text):
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _col(header, rows, name):
    i = header.index(name)
    return [row[i] for row in rows]


def test_solve_default_case(capsys):
    code, out, err = _run(capsys, ["solve", "--example", "1", "--level", "1"])
    assert code == 0
    assert err == ""
    header, rows = _csv(out)
    assert ",".join(header) == SOLVE_HEADER
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["level"] == "1"
    assert row["method"] == "cg_jacobi"
    assert int(row["iterations"]) > 0
    assert float(row["residual"]) < 1e-10
    # regression values for the default rho = (1, 1e4) circle case
    assert np.isclose(float(row["e0"]), 2.506655e-2, rtol=1e-4)
    assert np.isclose(float(row["einf"]), 7.067632e-2, rtol=1e-4)
    assert np.isclose(float(row["eflux"]), 4.285178e-1, rtol=1e-4)
    assert np.isclose(float(row["esqrt"]), 2.247656e-1, rtol=1e-4)
    assert np.isclose(float(row["vnorm"]), 2.297490e-1, rtol=1e-4)
    assert np.isclose(float(row["vanorm"]), 4.534580e-1, rtol=1e-4)
    assert float(row["e0_plus"]) < 1e-5


def test_solve_markdown_format(capsys):
    code, out, err = _run(capsys, ["solve", "--example", "1", "--level", "1",
                                   "--format", "markdown"])
    assert code == 0
    lines = out.strip("\n").split("\n")
    assert lines[0].startswith("| level ")
    assert set(lines[1]) <= {"|", "-", " "}
    assert "cg_jacobi" in lines[2]


def test_output_file_matches_stdout(capsys, tmp_path):
    argv = ["solve", "--example", "1", "--level", "1"]
    _, out, _ = _run(capsys, argv)
    path = tmp_path / "table.csv"
    code, out2, _ = _run(capsys, argv + ["--output", str(path)])
    assert code == 0
    assert out2 == ""
    assert path.read_text() == out


def test_convergence_study(capsys):
    code, out, err = _run(capsys, ["convergence", "--example", "1",
                                   "--levels", "1..3"])
    assert code == 0
    header, rows = _csv(out)
    assert header == ["level", "h", "e0", "eoc0", "einf", "eocinf",
                      "eflux", "eocflux", "efluxinf", "eocfluxinf"]
    assert _col(header, rows, "level") == ["1", "2", "3"]
    # first row has no order estimates
    assert rows[0][header.index("eoc0")] == ""
    assert rows[0][header.index("eocflux")] == ""
    e0 = [float(v) for v in _col(header, rows, "e0")]
    eflux = [float(v) for v in _col(header, rows, "eflux")]
    assert np.allclose(e0, [2.506655e-2, 1.150081e-2, 2.616817e-3], rtol=1e-4)
    assert np.allclose(eflux, [4.285178e-1, 2.188532e-1, 8.353619e-2], rtol=1e-4)
    # levels 1 -> 2 refine by 23/12, not 2; the order column accounts for it
    eoc0 = [float(v) for v in _col(header, rows, "eoc0")[1:]]
    eocflux = [float(v) for v in _col(header, rows, "eocflux")[1:]]
    assert np.allclose(eoc0, [1.198, 2.136], atol=2e-3)
    assert np.allclose(eocflux, [1.033, 1.389], atol=2e-3)


def test_levels_comma_and_range_agree(capsys):
    _, out_range, _ = _run(capsys, ["convergence", "--example", "1",
                                    "--levels", "1..2"])
    _, out_comma, _ = _run(capsys, ["convergence", "--example", "1",
                                    "--levels", "1,2"])
    assert out_range == out_comma


def test_parse_levels():
    assert parse_levels("2..4") == (2, 3, 4)
    assert parse_levels(" 1, 3,5 ") == (1, 3, 5)
    with pytest.raises(ValueError):
        parse_levels("1..x")
    # empty and descending lists, and a level given twice, are refused,
    # not read as the default or solved twice
    for text in ("5..1", "", " , ", "3,1", "2,2", "1,2,2,3"):
        with pytest.raises(ConfigError, match="non-empty and ascending"):
            parse_levels(text)
    assert parse_levels("3..3") == (3,)


def test_config_file_with_comments(capsys, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# circle benchmark, moderate contrast\n"
        "example = 1\n"
        "level = 2\n"
        "rho_plus = 1e4  # inclusion coefficient\n"
        "\n"
        "format = csv\n")
    values = parse_config_file(str(path))
    assert values == {"example": "1", "level": 2, "rho_plus": 1e4,
                      "format": "csv"}
    code, out, _ = _run(capsys, ["solve", "--config", str(path)])
    assert code == 0
    header, rows = _csv(out)
    assert rows[0][header.index("level")] == "2"


def test_flag_overrides_config(capsys, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("example = 1\nlevel = 2\n")
    _, with_cfg, _ = _run(capsys, ["solve", "--config", str(path),
                                   "--level", "1"])
    _, plain, _ = _run(capsys, ["solve", "--example", "1", "--level", "1"])
    assert with_cfg == plain


@pytest.mark.parametrize("content,fragment", [
    ("bogus = 3\n", "unknown key 'bogus'"),
    ("level = abc\n", "bad value for level"),
    ("just some words\n", "expected key = value"),
    ("solver = cg\n", "unknown key 'solver'"),
    ("tol = 1e-10\n", "unknown key 'tol'"),
    # the Nitsche flux is the minus side's: there is no weighting to choose
    ("weighting = harmonic\n", "unknown key 'weighting'"),
])
def test_config_errors_carry_line_numbers(capsys, tmp_path, content, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text(content)
    code, out, err = _run(capsys, ["solve", "--config", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("cutnitsche: config error:")
    assert f"{path}:1:" in err
    assert fragment in err


def test_missing_config_file(capsys):
    code, _, err = _run(capsys, ["solve", "--config", "/no/such/file.cfg"])
    assert code == 1
    assert "cannot read config" in err


def test_bad_flag_exits_one(capsys):
    # CG is the only solver and the minus-sided flux the only Nitsche
    # method: --solver, --tol and --weighting are not options
    for argv in (["solve", "--no-such-flag"], ["solve", "--solver", "cg"],
                 ["solve", "--tol", "1e-10"], ["solve", "--weighting", "harmonic"],
                 ["convergence", "--levels", "5..1"], ["convergence", "--levels", ""]):
        code, out, err = _run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("cutnitsche: config error:")


def test_unknown_command_exits_one(capsys):
    code, _, err = _run(capsys, ["frobnicate"])
    assert code == 1
    assert "cutnitsche: config error:" in err


def test_invalid_parameters_exit_one(capsys):
    code, _, err = _run(capsys, ["solve", "--example", "1", "--level", "1",
                                 "--gamma", "-1"])
    assert code == 1
    assert "gamma" in err

    code, _, err = _run(capsys, ["solve", "--example", "patch", "--level", "1",
                                 "--rho-minus", "1", "--rho-plus", "10"])
    assert code == 1
    assert "equal coefficients" in err

    # non-finite parameters are config errors, not a CG run on NaN
    for flag, value in (("--rho-plus", "inf"), ("--gamma", "nan"), ("--gamma", "inf"),
                        ("--gamma-g-minus", "nan")):
        code, out, err = _run(capsys, ["solve", "--example", "1", "--level", "1", flag, value])
        assert code == 1
        assert out == ""
        assert err.startswith("cutnitsche: config error:") and "must be finite" in err

    # a subnormal coefficient is a config error, not a zero solve reported
    # as a pass or a solver failure blamed on CG
    for args in (["--example", "patch", "--level", "2", "--rho-minus", "1e-320"],
                 ["--example", "1", "--level", "2", "--rho-minus", "1e-320",
                  "--inclusion-side", "plus"]):
        code, out, err = _run(capsys, ["solve", *args])
        assert code == 1
        assert out == ""
        assert err.startswith("cutnitsche: config error:") and "diffusion coefficients" in err


def test_numerical_failure_exits_two(capsys):
    # an underweighted interface penalty loses coercivity
    code, out, err = _run(capsys, ["solve", "--example", "1", "--level", "1",
                                   "--gamma", "0.05"])
    assert code == 2
    assert out == ""
    assert err.startswith("cutnitsche: numerical failure:")


def test_dump_files(capsys, tmp_path):
    sol = tmp_path / "solution.csv"
    mesh = tmp_path / "mesh.txt"
    cells = tmp_path / "cells.csv"
    matrix = tmp_path / "matrix.txt"
    code, _, _ = _run(capsys, ["solve", "--example", "1", "--level", "1",
                               "--dump-solution", str(sol),
                               "--dump-mesh", str(mesh),
                               "--dump-cutcells", str(cells),
                               "--dump-matrix", str(matrix)])
    assert code == 0
    assert sol.read_text().splitlines()[0] == "side,node,x,y,value"
    assert mesh.read_text().splitlines()[0] == "v -1 -1"
    assert cells.read_text().splitlines()[0] == \
        "elem,px,py,qx,qy,area_minus,area_plus"
    head = matrix.read_text().splitlines()[0].split()
    assert head[0] == "%"
    n, m, nnz = (int(v) for v in head[1:])
    assert n == m and nnz > 0


def _dumped(capsys, tmp_path, flag, example="1"):
    """The lines ``solve --example <example> --level 1 <flag> <file>``
    writes to the file, and the result of the same solve."""
    path = tmp_path / flag.lstrip("-")
    code, _, _ = _run(capsys, ["solve", "--example", example, "--level", "1", flag, str(path)])
    assert code == 0
    return path.read_text().splitlines(), run_solve(RunConfig(example=example, level=1))


def test_dump_mesh_format(capsys, tmp_path):
    lines, result = _dumped(capsys, tmp_path, "--dump-mesh")
    mesh = result.mesh
    vlines = [l for l in lines if l.startswith("v ")]
    tlines = [l for l in lines if l.startswith("t ")]
    assert len(vlines) == mesh.n_nodes
    assert len(tlines) == mesh.n_elems
    assert lines[0] == "v -1 -1"
    first_t = tuple(int(s) for s in tlines[0].split()[1:])
    assert first_t == tuple(mesh.elements(0))


def test_dump_matrix_round_trip(capsys, tmp_path):
    lines, result = _dumped(capsys, tmp_path, "--dump-matrix")
    matrix = result.system.matrix
    head = lines[0].split()
    assert head[0] == "%"
    assert [int(v) for v in head[1:]] == [*matrix.shape, matrix.nnz]
    assert len(lines) == 1 + matrix.nnz
    rebuilt = np.zeros(matrix.shape)
    for line in lines[1:]:
        r, c, v = line.split()
        rebuilt[int(r), int(c)] = float(v)
    # 17 significant digits read back as the same doubles
    assert np.array_equal(rebuilt, matrix.toarray())


def test_dump_cut_cells(capsys, tmp_path):
    lines, result = _dumped(capsys, tmp_path, "--dump-cutcells")
    topo = result.topo
    assert lines[0] == "elem,px,py,qx,qy,area_minus,area_plus"
    assert len(lines) == 1 + topo.n_cut
    first = lines[1].split(",")
    assert int(first[0]) == topo.cut_ids[0]
    assert np.isclose(float(first[1]), topo.chord_p[0, 0])


def test_dump_solution(capsys, tmp_path):
    lines, result = _dumped(capsys, tmp_path, "--dump-solution", example="patch")
    assert lines[0] == "side,node,x,y,value"
    assert len(lines) == 1 + result.layout.n_total
    side, node, x, y, value = lines[1].split(",")
    assert side == "minus"
    # patch solution: value = 1 + x + 2y at every node of either side
    assert float(value) == pytest.approx(1.0 + float(x) + 2.0 * float(y),
                                         abs=1e-10)


def test_mesh_dump_is_written_a_line_at_a_time(tmp_path):
    # the level-5 dump has about 100k lines, some 3 MB of text, and about
    # 10 MB as a list of strings: a writer that built it first fails here
    mesh = build_mesh(5)
    path = tmp_path / "mesh.txt"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cli._write(path, cli._mesh_lines(mesh))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 1024 ** 2
    assert len(path.read_text().splitlines()) == mesh.n_nodes + mesh.n_elems


def test_unwritable_output_exits_one(capsys, tmp_path):
    for flag, name in (("--output", "out.csv"), ("--dump-mesh", "mesh.txt")):
        path = tmp_path / "missing" / name
        code, _, err = _run(capsys, ["solve", "--example", "1", "--level", "1",
                                     flag, str(path)])
        assert code == 1
        assert "Traceback" not in err
        assert err.splitlines() == [
            f"cutnitsche: cannot write {path}: No such file or directory"]


def test_flower_patch_test_on_either_side(capsys):
    # the side flag reaches the flower: both sides solve at round-off, and
    # they are different problems
    outs = []
    for side in ("minus", "plus"):
        code, out, err = _run(capsys, ["solve", "--example", "patch", "--interface",
                                       "flower", "--inclusion-side", side, "--level", "2"])
        assert code == 0 and err == ""
        header, rows = _csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["e0"]) <= 1e-10 and float(row["eflux"]) <= 1e-10
        outs.append(out)
    assert outs[0] != outs[1]


def test_contrast_sweep_at_explicit_level(capsys, tmp_path):
    code, out, _ = _run(capsys, ["contrast", "--example", "1", "--level", "2"])
    assert code == 0
    header, rows = _csv(out)
    assert header == ["rho_minus", "rho_plus", "e0", "eflux", "esqrt"]
    assert len(rows) == 5
    assert _col(header, rows, "rho_minus")[0] == "1.000000e+00"
    assert _col(header, rows, "rho_plus")[-1] == "1.000000e+05"
    # a config-file level means the same thing as the flag
    path = tmp_path / "run.cfg"
    path.write_text("example = 1\nlevel = 2\n")
    _, out_cfg, _ = _run(capsys, ["contrast", "--config", str(path)])
    assert out_cfg == out


def test_contrast_sweep_level_defaults_to_five(capsys, tmp_path, monkeypatch):
    # the sweep's own default level yields to a config-file level and a flag
    levels = []

    def sweep(config):
        levels.append(config.level)
        return Table(columns=("level",), rows=())

    monkeypatch.setattr(cli, "run_contrast_sweep", sweep)
    bare = tmp_path / "bare.cfg"
    bare.write_text("example = 1\n")
    leveled = tmp_path / "leveled.cfg"
    leveled.write_text("example = 1\nlevel = 2\n")
    for argv in (["contrast"], ["contrast", "--config", str(bare)],
                 ["contrast", "--config", str(leveled)],
                 ["contrast", "--config", str(leveled), "--level", "3"]):
        assert _run(capsys, argv)[0] == 0
    assert levels == [5, 5, 2, 3]


@pytest.mark.parametrize("argv", [
    ["solve", "--levels", "1..2"],
    ["convergence", "--level", "1"],
    ["contrast", "--levels", "1..2"],
    ["diagnostics", "--level", "1"],
    ["diagnostics", "--levels", "1..2"],
    ["diagnostics", "--format", "markdown"],
])
def test_flags_a_command_does_not_read_exit_one(capsys, argv):
    code, out, err = _run(capsys, argv + ["--example", "1"])
    assert code == 1
    assert out == ""
    assert err.startswith("cutnitsche: config error: unrecognized arguments")


@pytest.mark.parametrize("command,key", [
    ("solve", "levels = 1..2"),
    ("convergence", "level = 1"),
    ("contrast", "levels = 1..2"),
    ("diagnostics", "level = 1"),
    ("diagnostics", "levels = 1..2"),
    ("diagnostics", "format = markdown"),
])
def test_config_keys_a_command_does_not_read_exit_one(capsys, tmp_path, command, key):
    # a config-file key is read by the same subcommands as its flag
    path = tmp_path / "run.cfg"
    path.write_text(f"example = 1\n{key}\n")
    code, out, err = _run(capsys, [command, "--config", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("cutnitsche: config error:")
    assert f"{path}:2: unknown key {key.split()[0]!r}" in err


def test_diagnostics_command(capsys):
    code, out, _ = _run(capsys, ["diagnostics", "--example", "1"])
    assert code == 0
    for block in ("# patch_area_ratio", "# coercivity",
                  "# interpolation", "# discrete_extension"):
        assert block in out


def test_repeated_runs_are_identical(capsys):
    argv = ["convergence", "--example", "1", "--levels", "1..2"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second
