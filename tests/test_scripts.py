"""Every study script in scripts/ still imports and parses its arguments, and the cutoff
sweep, the output digests and the convergence digests run end to end."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from snls.cli import main

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


SMALL_CFG = """
[problem]
d = 1
n = 32
L = 16.0
alpha = 3.0
lambda = -1
T = 0.02
dt = 1e-3
scheme = direct
initial = gaussian

[noise.1]
mu_re = 1.0
mu_im = 0.0
profile = gaussian
width = 3.0

[run]
m = 4
seed = 3
stride = 10
out = out

[verify]
levels = 1
paths = 2
"""


def test_output_digests_runs(tmp_path):
    # per command an exit line, then one sha256 per output file, stdout and stderr included
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CFG)
    lines = [line.split() for line in run(ROOT / "scripts" / "output_digests.py", str(cfg)
                                          ).splitlines()]
    assert all(len(fields) == 4 and fields[0] == "small.cfg" for fields in lines)
    assert [(c, code) for _, c, f, code in lines if f == "exit"] == [
        ("simulate", "0"), ("ensemble", "0"), ("verify-identities", "0"), ("convergence", "0"),
        ("blowup-scan", "0")]
    digests = {(c, f): h for _, c, f, h in lines if f != "exit"}
    assert all(len(h) == 64 for h in digests.values())
    assert {f for c, f in digests if c == "verify-identities"} == {
        "<stdout>", "<stderr>", "summary.txt", "identity_mass.csv", "identity_hamiltonian.csv",
        "identity_lp.csv", "identity_h1.csv"}
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    for name in ("diagnostics_direct.csv", "snapshot_direct_000010.bin"):
        data = (tmp_path / "out" / name).read_bytes()
        assert digests["simulate", name] == hashlib.sha256(data).hexdigest()


def test_convergence_digests_runs():
    # 4 problems x 2 schemes x horizon/sup x widths 1 and 2, one line each; a case's
    # line does not depend on its width, and only the capped problem leaves a path out
    lines = [line.split() for line in run(ROOT / "scripts" / "convergence_digests.py"
                                          ).splitlines()]
    assert len(lines) == 32 and all(len(fields) == 8 for fields in lines)
    assert {tuple(fields[:3]) for fields in lines} == {
        (p, s, e) for p in ("real", "complex", "zero-mode", "one-unfinished")
        for s in ("direct", "rescaled") for e in ("horizon", "sup")}
    for narrow, wide in zip(lines[::2], lines[1::2]):
        assert (narrow[3], wide[3]) == ("width=1", "width=2")
        assert narrow[:3] + narrow[4:] == wide[:3] + wide[4:]
        errors = [float.fromhex(e) for e in narrow[4].removeprefix("errors=").split(",")]
        assert len(errors) == 2 and all(math.isfinite(e) and e > 0 for e in errors)
        assert narrow[6] == f"unfinished={int(narrow[0] == 'one-unfinished')}"
