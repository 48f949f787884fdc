"""The benchmark's checks can fail, and its answers do not depend on the
pool width.  Run from the repository root:

    python3 -m pytest bench/tests -q

The tests run full workload passes, about three minutes on two cores.
"""

import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import workloads
from snls.dynamics import StepFlags

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(BENCH, "run.py")


def test_ensemble_outputs_identical_at_width_1_and_2(tmp_path):
    wl = workloads.Ensemble1D(workloads.Ensemble1D.default_seed)
    one = wl.run_pass(str(tmp_path), width=1)
    two = wl.run_pass(str(tmp_path), width=2)
    assert one.problems == [] and two.problems == []
    assert one.digest == two.digest


def test_martingale_check_rejects_omitted_mu_tilde(tmp_path):
    wl = workloads.Ensemble1D(workloads.Ensemble1D.default_seed,
                              flags=StepFlags(omit_mu_tilde=True))
    res = wl.run_pass(str(tmp_path))
    assert any(p.startswith("martingale") for p in res.problems), res.details


def test_schemes_check_rejects_y_without_rescaling(tmp_path):
    wl = workloads.Schemes2D(workloads.Schemes2D.default_seed)
    res = wl.run_pass(str(tmp_path), rescale=False)
    assert res.problems, res.details


def test_identity_check_rejects_y_trajectory():
    wl = workloads.Identities1D(workloads.Identities1D.default_seed)
    ladder = workloads.identity_ladder(wl.problem, workloads.PassResult(),
                                         rescaled=True)
    assert workloads.ladder_check(ladder)


def test_exact_check_rejects_residual_above_roundoff():
    residual = {name: np.zeros((2, 1)) for name in workloads.IDENTITY_NAMES}
    assert workloads.exact_check(residual) == []
    residual["lp"][1, 0] = 2e-10
    assert workloads.exact_check(residual)


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "schemes-2d", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def _children(pid: int) -> set:
    kids = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            kids.add(int(entry))
    return kids


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_interrupt_stops_pool_workers():
    # the traced ensemble run starts its pool after two width-1 passes
    proc = subprocess.Popen([sys.executable, RUN, "--workload", "ensemble-1d",
                             "--seed", "1", "--seconds", "1", "--trace", "1"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        deadline = time.monotonic() + 150
        workers = set()
        while len(workers) < 2 and time.monotonic() < deadline:
            time.sleep(0.2)
            workers = _children(proc.pid)
        assert workers, "no pool workers seen"
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode != 0
    assert out.strip() == ""
    deadline = time.monotonic() + 10
    while any(os.path.exists(f"/proc/{w}") for w in workers):
        assert time.monotonic() < deadline, "pool workers outlived the run"
        time.sleep(0.1)
