"""Checks of the measurement scripts under ``scripts/``."""
import json
import os
import pathlib
import shutil
import subprocess
import sys

import cutnitsche
from cutnitsche.diagnostics import run_diagnostics
from cutnitsche.harness import RunConfig, run_solve, solve_table
from cutnitsche.solver import BACKWARD_ERROR_TOL

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_stage_memory_refuses_a_package_outside_git(tmp_path):
    # a copy of the package where ``git describe`` fails: the script must
    # stop before its first stage and leave the record alone
    shutil.copytree(pathlib.Path(cutnitsche.__file__).parent, tmp_path / "cutnitsche",
                    ignore=shutil.ignore_patterns("__pycache__"))
    record = SCRIPTS.parent / "BENCH_memory.json"
    before = record.read_bytes() if record.exists() else None
    env = dict(os.environ, PYTHONPATH=str(tmp_path), GIT_CEILING_DIRECTORIES=str(tmp_path.parent))
    run = subprocess.run([sys.executable, str(SCRIPTS / "stage_memory.py"), "--levels", "1"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1
    assert "not in a git checkout" in run.stderr
    assert run.stdout == ""
    assert (record.read_bytes() if record.exists() else None) == before


def scripts_repo(tmp_path):
    """A git repository holding copies of the script and the package, and
    an empty record of each kind, which the script writes beside its own
    copy; committed.  Its ``git`` runner."""
    repo = tmp_path / "repo"
    shutil.copytree(pathlib.Path(cutnitsche.__file__).parent, repo / "src" / "cutnitsche",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (repo / "scripts").mkdir()
    shutil.copy(SCRIPTS / "stage_memory.py", repo / "scripts")
    (repo / "perfbench").mkdir()   # the script reads the machine's speed with it
    shutil.copy(SCRIPTS.parent / "perfbench" / "calibrate.py", repo / "perfbench")
    (repo / ".gitignore").write_text("__pycache__/\n")
    for name in ("BENCH_memory.json", "BENCH_stages.json"):
        (repo / name).write_text("{}\n")

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                               *args], check=True, capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "record")
    return repo, git


def run_stage_memory(repo, tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    run = subprocess.run([sys.executable, str(repo / "scripts" / "stage_memory.py"), *args],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_stage_memory_stamps_dirty_only_for_package_changes(tmp_path):
    repo, git = scripts_repo(tmp_path)
    record = repo / "BENCH_memory.json"
    own_record = SCRIPTS.parent / "BENCH_memory.json"
    own_before = own_record.read_bytes() if own_record.exists() else None

    def stamps(column):
        run_stage_memory(repo, tmp_path, "--levels", "1", "--column", column)
        cases = json.loads(record.read_text())["cases"].values()
        for level in (level for case in cases
                      for level in case["columns"][column]["levels"].values()):
            # every level carries the machine's speed, sampled during its timed runs
            assert level["speed"] > 0
            for stage in (rec for rec in level.values() if isinstance(rec, dict)):
                # the sampler's time is taken out of the wall time, never more
                assert stage["seconds"] >= 0
                # seconds and speed are rounded to 3 places, nominal_s is
                # rounded from their unrounded product
                assert (abs(stage["nominal_s"] - stage["seconds"] * level["speed"])
                        <= 5e-4 * (1.0 + stage["seconds"]) + 1e-9)
        return {case["columns"][column]["commit"] for case in cases}

    head = git("describe", "--always")
    record.write_text('{"edited": true}\n')
    assert stamps("parent") == {head}
    with open(repo / "src" / "cutnitsche" / "__init__.py", "a") as fh:
        fh.write("# edited\n")
    assert stamps("change") == {head + "-dirty"}
    assert (own_record.read_bytes() if own_record.exists() else None) == own_before


def test_stage_record_times_the_solve_of_five_cases(tmp_path):
    # the stage record: five cases, each level timed through the solve,
    # whose stats it keeps; the memory record is left alone
    repo, _ = scripts_repo(tmp_path)
    run_stage_memory(repo, tmp_path, "--record", "stages", "--levels", "1..2")
    assert (repo / "BENCH_memory.json").read_text() == "{}\n"
    cases = json.loads((repo / "BENCH_stages.json").read_text())["cases"]
    assert sorted(cases) == ["circle-minus-1e4", "circle-minus-1e9", "circle-plus-1e4",
                             "circle-plus-1e9", "flower-1e5"]
    for key, case in cases.items():
        levels = case["columns"]["change"]["levels"]
        assert sorted(levels) == ["L1", "L2"]
        for level in levels.values():
            assert level["timed_runs"] == 3 and level["speed"] > 0
            assert [name for name in level if isinstance(level[name], dict)] == [
                "mesh", "classify", "spaces", "build_system", "solve", "error_report"]
            assert level["solve"]["iterations"] > 0
            assert level["solve"]["method"].startswith("cg_jacobi")
            assert level["solve"]["backward_error"] <= BACKWARD_ERROR_TOL
            assert level["solve"]["maxrss_mb"] >= level["mesh"]["maxrss_mb"] > 0


def run_tables(outdir, only):
    """``reproduce_tables.py --only`` into ``outdir``, with this package on the path."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cutnitsche.__file__).parent.parent))
    return subprocess.run([sys.executable, str(SCRIPTS / "reproduce_tables.py"),
                           "--outdir", str(outdir), "--only", only],
                          env=env, capture_output=True, text=True, timeout=300)


def test_reproduce_tables_runs_the_patch_test_by_its_csv_name(tmp_path):
    run = run_tables(tmp_path, "patch_test")
    assert run.returncode == 0, run.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["patch_test.csv"]
    table = solve_table(run_solve(RunConfig(example="patch", level=3)))
    assert (tmp_path / "patch_test.csv").read_text() == table.to_csv()


def test_reproduce_tables_refuses_a_prefix_that_matches_nothing(tmp_path):
    run = run_tables(tmp_path / "out", "table9,patches")
    assert run.returncode == 2
    assert "no table name starts with it" in run.stderr
    assert run.stdout == ""
    assert not (tmp_path / "out").exists()


def run_diagnostics_report(*args):
    """``diagnostics_report.py`` with this package on the path."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cutnitsche.__file__).parent.parent))
    return subprocess.run([sys.executable, str(SCRIPTS / "diagnostics_report.py"), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_diagnostics_report_passes_its_levels_and_flags_on(tmp_path):
    args = ["--inclusion-side", "plus", "--patch-levels", "1..2", "--coercivity-levels", "1",
            "--interpolation-levels", "1,2", "--extension-levels", "2..3"]
    report = run_diagnostics(RunConfig(example="1", inclusion_side="plus"),
                             patch_levels=(1, 2), coercivity_levels=(1,),
                             interpolation_levels=(1, 2), extension_levels=(2, 3))
    run = run_diagnostics_report(*args)
    assert run.returncode == 0, run.stderr
    assert run.stdout == report
    path = tmp_path / "diagnostics.txt"
    run = run_diagnostics_report(*args, "--output", str(path))
    assert run.returncode == 0, run.stderr
    assert run.stdout == f"-> {path}\n"
    assert path.read_text() == report
