"""Each demo script runs to completion and prints something.

The demos call the public API (``fuse``, ``ring_mul``, ``burau``,
``estimate_growth`` ...) directly, so they are run here as subprocesses
with the package taken from this checkout's ``src``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 5


def run_demo(demo: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    assert run_demo(demo).strip()


def test_mass_automaton_demo_reports_closed_paths():
    # s1 s1 s2 s2 at n=5 is recognised, but not by a closed path; its
    # conjugate is
    lines = run_demo(ROOT / "demos" / "03_mass_automaton.py").splitlines()
    assert "recognised by a closed path? False" in lines
    assert "conjugate recognised by a closed path? True" in lines
