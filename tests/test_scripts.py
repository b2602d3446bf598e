"""Checks of the measurement scripts under ``scripts/``."""
import json
import os
import pathlib
import shutil
import subprocess
import sys

import cutnitsche
from cutnitsche.harness import RunConfig, run_solve, solve_table

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


def test_stage_memory_stamps_dirty_only_for_package_changes(tmp_path):
    # a git repository holding copies of the script, the package and a
    # record: the script writes that record, beside its own copy
    repo = tmp_path / "repo"
    shutil.copytree(pathlib.Path(cutnitsche.__file__).parent, repo / "src" / "cutnitsche",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (repo / "scripts").mkdir()
    shutil.copy(SCRIPTS / "stage_memory.py", repo / "scripts")
    (repo / ".gitignore").write_text("__pycache__/\n")
    record = repo / "BENCH_memory.json"
    record.write_text("{}\n")
    own_record = SCRIPTS.parent / "BENCH_memory.json"
    own_before = own_record.read_bytes() if own_record.exists() else None

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                               *args], check=True, capture_output=True, text=True).stdout.strip()

    def stamps(column):
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        run = subprocess.run([sys.executable, str(repo / "scripts" / "stage_memory.py"),
                              "--levels", "1", "--column", column],
                             cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        cases = json.loads(record.read_text())["cases"].values()
        return {case["columns"][column]["commit"] for case in cases}

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "record")
    head = git("describe", "--always")
    record.write_text('{"edited": true}\n')
    assert stamps("parent") == {head}
    with open(repo / "src" / "cutnitsche" / "__init__.py", "a") as fh:
        fh.write("# edited\n")
    assert stamps("change") == {head + "-dirty"}
    assert (own_record.read_bytes() if own_record.exists() else None) == own_before


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
