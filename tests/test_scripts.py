"""Checks of the measurement scripts under ``scripts/``."""
import os
import pathlib
import shutil
import subprocess
import sys

import cutnitsche

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
