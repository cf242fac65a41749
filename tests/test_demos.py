"""Smoke test: every demo script runs to completion against src/, with
every warning an error, as the test suite runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo, tmp_path):
    run_demo(demo, tmp_path)


def test_continuous_demo_prints_the_same_twice(tmp_path):
    demo = ROOT / "demos" / "02_continuous_interventions.py"
    assert run_demo(demo, tmp_path) == run_demo(demo, tmp_path)
