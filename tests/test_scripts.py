"""Checks of the measurement scripts under ``scripts/``."""
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys

import cutnitsche
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


# stand-ins for the processes the end-to-end record times: each leaves a
# trace the test reads, and the suite has one failing test
E2E_STUBS = {
    "src/cutnitsche/__main__.py": (
        "import sys\n"
        "with open('solve_args.txt', 'a') as fh:\n"
        "    fh.write(' '.join(sys.argv[1:]) + '\\n')\n"),
    "scripts/reproduce_tables.py": (
        "import os, sys\n"
        "outdir = sys.argv[sys.argv.index('--outdir') + 1]\n"
        "sys.exit(0 if os.listdir(outdir) == [] else 3)\n"),
    "tests/test_stub.py": (
        "def test_one():\n    pass\n\n\n"
        "def test_two():\n    pass\n\n\n"
        "def test_three():\n    assert False\n"),
}


def test_e2e_record_times_whole_processes(tmp_path):
    # the end-to-end record, each of its processes stubbed: every row holds
    # its runs, each stamped with the machine's speed, and their medians;
    # the suite's failure is counted, not fatal; the other records stay
    repo, git = scripts_repo(tmp_path)
    for name, text in E2E_STUBS.items():
        (repo / name).parent.mkdir(exist_ok=True)
        (repo / name).write_text(text)
    git("add", "-A")
    git("commit", "-q", "-m", "stubs")
    run_stage_memory(repo, tmp_path, "--record", "e2e")
    assert (repo / "BENCH_memory.json").read_text() == "{}\n"
    assert (repo / "BENCH_stages.json").read_text() == "{}\n"
    cases = json.loads((repo / "BENCH_e2e.json").read_text())["cases"]
    assert list(cases) == ["solve-L6", "solve-L7", "reproduce_tables", "tier1"]
    for key, case in cases.items():
        column = case["columns"]["change"]
        assert column["commit"] == git("describe", "--always")
        assert sorted(column["versions"]) == ["numpy", "python", "scipy"]
        runs = column["runs"]
        assert len(runs) == column["timed_runs"] == {"solve-L6": 3, "solve-L7": 1,
                                                     "reproduce_tables": 3, "tier1": 1}[key]
        for run in runs:
            assert run["seconds"] >= 0 and run["maxrss_mb"] > 0
            # one speed reading before and one after the process
            assert len(run["speeds"]) == 2 and min(run["speeds"]) > 0
            # each of seconds, speeds and nominal_s is rounded to 3 places
            speed = statistics.fmean(run["speeds"])
            assert (abs(run["nominal_s"] - run["seconds"] * speed)
                    <= 5e-4 * (1.0 + speed + run["seconds"]) + 1e-6)
        for name in ("seconds", "nominal_s", "maxrss_mb"):
            assert column[name] == statistics.median(run[name] for run in runs)
    tier1 = cases["tier1"]["columns"]["change"]
    assert (tier1["passed"], tier1["failed"], tier1["exit_code"]) == (2, 1, 1)
    prefix = "solve --example 1 --inclusion-side plus --rho-minus 1 --rho-plus 1e9 --level "
    assert (repo / "solve_args.txt").read_text().splitlines() == [prefix + "6"] * 3 + [prefix + "7"]


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
