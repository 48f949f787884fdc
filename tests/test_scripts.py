"""Every study script in scripts/ still imports and parses its arguments, and the cutoff
sweep runs end to end."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def run(script, *args):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_help(script):
    assert run(script, "--help").startswith("usage:")


def test_cutoff_sweep_runs():
    # h1_identity on a solved stride-1 trajectory: one finite residual per cutoff
    header, *rows = run(ROOT / "scripts" / "cutoff_sweep.py", "--n", "64", "--steps", "50"
                        ).splitlines()
    assert header.split() == ["m", "/", "nyquist", "terminal", "residual"]
    assert [float(r.split()[0]) for r in rows] == [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]
    assert all(math.isfinite(float(r.split()[1])) for r in rows)
