import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import snls.cli
from snls.cli import main
from snls.config import build_initial, build_problem, parse_config, read_snapshot
from snls.dynamics import SolveOptions, rescaled_to_X, solve_rescaled
from snls.noise import sample_path
from snls.spectral import boundary_ratio

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SOLITON_CFG = """
[problem]
d = 1
n = 512
L = 40.0
alpha = 3.0
lambda = 1
T = 0.25
dt = 1e-3
scheme = direct
initial = soliton

[run]
seed = 1
stride = 125
out = {out}
"""

NOISY_CFG = """
[problem]
d = 1
n = 64
L = 16.0
alpha = 3.0
lambda = -1
T = 0.25
dt = 2e-3
scheme = direct
initial = gaussian

[noise.1]
mu_re = 1.0
mu_im = 0.0
profile = gaussian
width = 3.0

[run]
m = {m}
seed = 4
out = {out}

[verify]
levels = {levels}
paths = {paths}
"""

BLOWUP_CFG = """
[problem]
d = 1
n = 512
L = 32.0
alpha = 5.0
lambda = 1
T = 1.0
dt = 4e-4
scheme = direct
initial = gaussian
amplitude = 3.0

[run]
seed = 0
stride = 2500
out = {out}
h1_blowup_factor = 10.0

[verify]
levels = 2
"""


def write_cfg(tmp_path, text, **kw):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text.format(out=tmp_path / "out", **kw))
    return str(cfg)


def read_summary(tmp_path):
    out = {}
    for line in (tmp_path / "out" / "summary.txt").read_text().splitlines():
        k, _, v = line.partition("=")
        out[k] = v
    return out


class TestSimulate:
    def test_soliton_run_exit_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, SOLITON_CFG)
        assert main(["simulate", "--config", cfg]) == 0
        summary = read_summary(tmp_path)
        assert summary["direct_status"] == "finished"
        assert float(summary["direct_hamiltonian_drift_rel"]) <= 1e-6
        # diagnostics CSV: hamiltonian column constant to 1e-6
        csv = (tmp_path / "out" / "diagnostics_direct.csv").read_text().splitlines()
        assert csv[0] == "t,mass,hamiltonian,h1,l_alpha_plus_1"
        H = np.array([float(r.split(",")[2]) for r in csv[1:]])
        assert np.max(np.abs(H - H[0])) / abs(H[0]) <= 1e-6
        snaps = sorted((tmp_path / "out").glob("snapshot_direct_*.bin"))
        assert len(snaps) == 3   # t = 0, 0.125, 0.25
        fld, t = read_snapshot(snaps[-1])
        assert t == pytest.approx(0.25)
        assert fld.grid.n == 512

    def test_blowup_run_exit_two(self, tmp_path):
        cfg = write_cfg(tmp_path, BLOWUP_CFG)
        assert main(["simulate", "--config", cfg]) == 2
        summary = read_summary(tmp_path)
        assert summary["direct_status"] == "blowup"
        assert float(summary["direct_blowup_time"]) < 1.0

    def test_bad_config_exit_one(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[problem]\nd = 3\nn = 64\nL = 16\nalpha = 7\n"
                       "lambda = 1\nT = 1\ndt = 1e-3\n")
        assert main(["simulate", "--config", str(cfg)]) == 1

    def test_boundary_trust_rule(self, tmp_path):
        # a width-3 gaussian on a 16-wide box is about 3e-2 of its peak at the faces
        cfg = write_cfg(tmp_path, NOISY_CFG.replace("initial = gaussian",
                                                    "initial = gaussian\nwidth = 3.0"),
                        m=1, levels=1, paths=1)
        assert main(["simulate", "--config", cfg]) == 0
        summary = read_summary(tmp_path)
        assert float(summary["direct_boundary_max"]) > 1e-8
        assert summary["direct_boundary_trusted"] == "false"
        cfg = write_cfg(tmp_path, SOLITON_CFG)
        assert main(["simulate", "--config", cfg]) == 0
        summary = read_summary(tmp_path)
        assert float(summary["direct_boundary_max"]) < 1e-8
        assert summary["direct_boundary_trusted"] == "true"

    def test_rescaled_boundary_is_read_from_X(self, tmp_path):
        # the summary's ratio is of X = e^W y at every step; its CSV and snapshots stay y's
        cfg = write_cfg(tmp_path, NOISY_CFG.replace("scheme = direct", "scheme = rescaled"),
                        m=1, levels=1, paths=1)
        assert main(["simulate", "--config", cfg, "--seed", "5"]) == 0
        with open(cfg) as fh:
            parsed = parse_config(fh.read())
        spec = build_problem(parsed)
        path = sample_path(spec.model, spec.T, parsed.n_steps, 5)
        traj = solve_rescaled(build_initial(parsed, spec.grid), path, spec, SolveOptions(stride=1))
        X_max = max(boundary_ratio(X) for X in rescaled_to_X(traj, path, spec.model))
        assert float(read_summary(tmp_path)["rescaled_boundary_max"]) == X_max
        assert X_max > max(boundary_ratio(y) for y in traj.snapshots)

    def test_shipped_conservative_config_is_trusted(self, tmp_path):
        cfg = str(CONFIGS / "conservative.cfg")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        summary = read_summary(tmp_path)
        assert summary["direct_boundary_trusted"] == "true"
        assert summary["rescaled_boundary_trusted"] == "true"

    @pytest.mark.parametrize("edit", ["cfl", "snapshot"])
    def test_solver_and_snapshot_errors_exit_one(self, tmp_path, capsys, edit):
        text = (CONFIGS / "soliton.cfg").read_text()
        if edit == "cfl":       # dt * max|k|^2 = 3.2 on n = 512, L = 40
            text = text.replace("scheme = direct", "scheme = rescaled") \
                       .replace("dt = 1e-3", "dt = 2e-3")
        else:
            snap = tmp_path / "short.bin"
            snap.write_bytes(b"SNLS\x01\x00\x01")
            text = text.replace("initial = soliton", f"initial = file\npath = {snap}")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("snls: error:")

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path, NOISY_CFG, m=1, levels=2, paths=1)
        main(["simulate", "--config", cfg, "--seed", "111",
              "--out", str(tmp_path / "a")])
        main(["simulate", "--config", cfg, "--seed", "222",
              "--out", str(tmp_path / "b")])
        main(["simulate", "--config", cfg, "--seed", "111",
              "--out", str(tmp_path / "c")])
        a = (tmp_path / "a" / "diagnostics_direct.csv").read_text()
        b = (tmp_path / "b" / "diagnostics_direct.csv").read_text()
        c = (tmp_path / "c" / "diagnostics_direct.csv").read_text()
        assert a != b
        assert a == c

    def test_both_schemes(self, tmp_path):
        cfg = write_cfg(tmp_path, NOISY_CFG.replace("scheme = direct",
                                                    "scheme = both"),
                        m=1, levels=2, paths=1)
        assert main(["simulate", "--config", cfg]) == 0
        assert (tmp_path / "out" / "diagnostics_direct.csv").exists()
        assert (tmp_path / "out" / "diagnostics_rescaled.csv").exists()


class TestEnsemble:
    def test_martingale_summary(self, tmp_path):
        cfg = write_cfg(tmp_path, NOISY_CFG, m=128, levels=2, paths=1)
        assert main(["ensemble", "--config", cfg]) == 0
        summary = read_summary(tmp_path)
        assert summary["paths"] == "128"
        assert summary["martingale_pass"] == "true"
        assert summary["blowup_paths"] == "0"
        assert summary["numeric_failure_paths"] == "0"
        header = (tmp_path / "out" / "ensemble.csv").read_text().splitlines()[0]
        assert header.startswith("t,mass_mean,mass_var,mass_ci3")

    def test_reproducible_bit_exact(self, tmp_path):
        cfg = write_cfg(tmp_path, NOISY_CFG, m=16, levels=2, paths=1)
        main(["ensemble", "--config", cfg, "--out", str(tmp_path / "r1")])
        main(["ensemble", "--config", cfg, "--out", str(tmp_path / "r2")])
        assert (tmp_path / "r1" / "ensemble.csv").read_text() == \
               (tmp_path / "r2" / "ensemble.csv").read_text()

    def test_run_threads_is_the_ensemble_width(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SNLS_THREADS", raising=False)
        widths = []
        run_ensemble = snls.cli.run_ensemble

        def recording(x, spec, config):
            widths.append(config.width)
            return run_ensemble(x, spec, config)

        monkeypatch.setattr(snls.cli, "run_ensemble", recording)
        cfg = write_cfg(tmp_path, NOISY_CFG.replace("seed = 4", "seed = 4\nthreads = 2"),
                        m=4, levels=2, paths=1)
        assert main(["ensemble", "--config", cfg]) == 0
        assert widths == [2]
        assert "SNLS_THREADS" not in os.environ

    @pytest.mark.parametrize("width,trusted", [("1.0", "true"), ("3.0", "false")])
    def test_boundary_trust_rule(self, tmp_path, width, trusted):
        # a width-3 gaussian on a 16-wide box is about 3e-2 of its peak at the faces
        cfg = write_cfg(tmp_path, NOISY_CFG.replace("initial = gaussian",
                                                    f"initial = gaussian\nwidth = {width}"),
                        m=4, levels=1, paths=1)
        assert main(["ensemble", "--config", cfg]) == 0
        summary = read_summary(tmp_path)
        assert (float(summary["boundary_max"]) < 1e-8) == (trusted == "true")
        assert summary["boundary_trusted"] == trusted
        header = (tmp_path / "out" / "ensemble.csv").read_text().splitlines()[0]
        assert header.endswith(",lp_ci3,boundary_mean,boundary_var,boundary_ci3")

    def test_blowup_config_runs_without_warnings(self, tmp_path):
        # the single path blows up, so later times have no finite path and
        # every time has fewer than two: NaN statistics, and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["ensemble", "--config", str(CONFIGS / "blowup.cfg"),
                         "--out", str(tmp_path / "out")]) == 0
        summary = read_summary(tmp_path)
        assert summary["blowup_paths"] == "1"
        last = (tmp_path / "out" / "ensemble.csv").read_text().splitlines()[-1]
        assert last.split(",")[1:4] == ["nan", "nan", "nan"]

    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-2"])
    def test_invalid_snls_threads_is_an_error(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("SNLS_THREADS", value)
        cfg = write_cfg(tmp_path, NOISY_CFG, m=4, levels=2, paths=1)
        assert main(["ensemble", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("snls: error: SNLS_THREADS")


CONSERVATIVE_EXACT_CFG = """
[problem]
d = 1
n = 64
L = 16.0
alpha = 3.0
lambda = 1
T = 0.5
dt = 1e-3
scheme = direct
initial = plane-wave
kmode = 2 0 0

[noise.1]
mu_re = 0.0
mu_im = 1.1
profile = constant

[run]
seed = 4
out = {out}

[verify]
levels = 1
paths = 8
"""


BLOWUP_IDENTITIES_CFG = """
[problem]
d = 1
n = 64
L = 16.0
alpha = 3.0
lambda = -1
T = 0.05
dt = 1e-3
scheme = rescaled
initial = gaussian
amplitude = 200.0

[noise.1]
mu_re = 1.0
mu_im = 0.0
profile = gaussian
height = 0.7
width = 3.0

[run]
out = {out}
{caps}
[verify]
levels = 2
paths = 2
"""


class TestVerifyIdentities:
    def test_conservative_config_residuals_at_roundoff(self, tmp_path):
        # constant conservative mode + plane wave: the noise is a global
        # phase, every identity reduces to an exactly conserved quantity
        cfg = write_cfg(tmp_path, CONSERVATIVE_EXACT_CFG)
        assert main(["verify-identities", "--config", cfg]) == 0
        summary = read_summary(tmp_path)
        for name in ("mass", "hamiltonian", "lp", "h1"):
            assert float(summary[f"identity_{name}_terminal"]) <= 1e-10

    @pytest.mark.parametrize("config,trusted", [("identities", "true"),
                                                ("conservative_exact", "false")])
    def test_boundary_trust_rule(self, tmp_path, config, trusted):
        # a localised gaussian stays ~1e-11 of its peak at the faces; a plane
        # wave is as large there as anywhere (ratio 1)
        text = CONFIGS.joinpath(f"{config}.cfg").read_text()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text.replace("paths = 32", "paths = 2").replace("paths = 8", "paths = 2"))
        assert main(["verify-identities", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        summary = read_summary(tmp_path)
        assert (float(summary["boundary_max"]) < 1e-8) == (trusted == "true")
        assert summary["boundary_trusted"] == trusted

    def test_summary_and_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, NOISY_CFG, m=1, levels=2, paths=4)
        assert main(["verify-identities", "--config", cfg]) == 0
        summary = read_summary(tmp_path)
        for name in ("mass", "hamiltonian", "lp", "h1"):
            assert f"identity_{name}_terminal" in summary
            assert (tmp_path / "out" / f"identity_{name}.csv").exists()
        lines = (tmp_path / "out" / "identity_mass.csv").read_text().splitlines()
        assert lines[1].startswith("t,residual")
        # r(0) = 0 exactly
        assert float(lines[2].split(",")[1]) == 0.0


    def test_rescaled_scheme_checks_X(self, tmp_path):
        # the identities hold for X = e^W y; fed y itself, the mass residual
        # median stays near 1 on every level.  At 4 paths the terminal
        # residual is zero-mean quadrature noise whose median falls level to
        # level on 12 of seeds 1-20; this run uses seed 5.
        cfg = write_cfg(tmp_path, NOISY_CFG.replace("scheme = direct", "scheme = rescaled"),
                        m=1, levels=3, paths=4)
        assert main(["verify-identities", "--config", cfg, "--seed", "5"]) == 0
        summary = read_summary(tmp_path)
        med = [float(summary[f"identity_mass_median_level_{lv}"]) for lv in range(3)]
        assert med[0] > med[1] > med[2]
        assert med[0] < 0.1

    def test_verdict_is_the_mean_of_sup_rule(self, tmp_path):
        # seed 6: the median terminal residual of the Hamiltonian and L^p
        # identities rises from level 0 to 1 on this correct run, while the
        # mean over paths of sup_t |residual| falls at every level
        cfg = write_cfg(tmp_path, NOISY_CFG, m=1, levels=3, paths=32)
        assert main(["verify-identities", "--config", cfg, "--seed", "6"]) == 0
        summary = read_summary(tmp_path)
        median_falls = []
        for name in ("mass", "hamiltonian", "lp", "h1"):
            sup = [float(summary[f"identity_{name}_mean_sup_level_{lv}"]) for lv in range(3)]
            med = [float(summary[f"identity_{name}_median_level_{lv}"]) for lv in range(3)]
            assert sup[0] > sup[1] > sup[2]
            assert summary[f"identity_{name}_monotone"] == "true"
            median_falls.append(med[0] > med[1] > med[2])
        assert not all(median_falls)
        assert summary["identities_pass"] == "true"
        assert summary["boundary_trusted"] == "true"

    @pytest.mark.parametrize("caps", ["", "h1_blowup_factor = 1e300\nspacetime_blowup_factor = 1e300\n"],
                             ids=["blowup", "numeric-failure"])
    def test_unfinished_paths_fail_the_verdict(self, tmp_path, caps):
        # every path stops at t = 0.001: a blowup, or with the caps out of reach a
        # non-finite RK4 state.  The residuals reach 1e+218 and still fall from
        # level to level, so only the unfinished-path count can fail the run.
        cfg = write_cfg(tmp_path, BLOWUP_IDENTITIES_CFG, caps=caps)
        assert main(["verify-identities", "--config", cfg]) == 0
        summary = read_summary(tmp_path)
        for name in ("mass", "hamiltonian", "lp", "h1"):
            assert summary[f"identity_{name}_monotone"] == "true"
        assert summary["identity_unfinished_paths"] == "2"
        assert summary["identities_pass"] == "false"

    def test_roundoff_floor(self, tmp_path):
        # mass is pathwise constant here, so its mean sup residual is roundoff
        # (6.6e-14, 2.0e-13, 2.7e-13 over the levels) and need not fall
        text = CONFIGS.joinpath("conservative.cfg").read_text()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text.replace("scheme = both", "scheme = direct")
                       + "\n[verify]\nlevels = 3\npaths = 4\n")
        assert main(["verify-identities", "--config", str(cfg), "--seed", "8",
                     "--out", str(tmp_path / "out")]) == 0
        summary = read_summary(tmp_path)
        sup = [float(summary[f"identity_mass_mean_sup_level_{lv}"]) for lv in range(3)]
        floor = float(summary["identity_mass_roundoff_floor"])
        assert not sup[0] > sup[1] > sup[2]
        assert floor == pytest.approx(1e-12 * np.sqrt(np.pi))   # 1e-12 x mass(x)
        assert max(sup) <= floor
        assert summary["identity_mass_monotone"] == "true"
        assert summary["identity_unfinished_paths"] == "0"
        assert summary["identities_pass"] == "true"

    @pytest.mark.parametrize("levels,paths", [(0, 4), (2, -4), (0, -4)])
    def test_verify_values_below_one_are_an_error(self, tmp_path, capsys, levels, paths):
        cfg = write_cfg(tmp_path, NOISY_CFG, m=1, levels=levels, paths=paths)
        assert main(["verify-identities", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("snls: error:")

    @pytest.mark.parametrize("good,bad", [("m = 1\n", "m = 1.5\n"),
                                          ("mu_re = 1.0", "mu_re = x"),
                                          ("n = 64", "n = 60"),
                                          ("levels = 2", "levels = x"),
                                          ("dt = 2e-3", "dt = nan"),
                                          ("L = 16.0", "L = nan")],
                             ids=["m", "mu_re", "n", "levels", "dt", "L"])
    def test_bad_value_is_an_error(self, tmp_path, capsys, good, bad):
        text = NOISY_CFG.format(out=tmp_path / "out", m=1, levels=2, paths=1)
        assert good in text
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text.replace(good, bad))
        assert main(["verify-identities", "--config", str(cfg)]) == 1
        assert "snls: error:" in capsys.readouterr().err


class TestConvergence:
    def test_deterministic_strang(self, tmp_path):
        cfg = write_cfg(tmp_path, NOISY_CFG.replace("""
[noise.1]
mu_re = 1.0
mu_im = 0.0
profile = gaussian
width = 3.0
""", ""), m=1, levels=4, paths=1)
        assert main(["convergence", "--config", cfg]) == 0
        summary = read_summary(tmp_path)
        assert float(summary["convergence_order"]) >= 1.8
        assert summary["convergence_inconclusive"] == "false"


class TestBlowupScan:
    def test_scan_reports_stability(self, tmp_path):
        cfg = write_cfg(tmp_path, BLOWUP_CFG)
        assert main(["blowup-scan", "--config", cfg]) == 0
        summary = read_summary(tmp_path)
        assert summary["blowup_detected"] == "true"
        assert float(summary["blowup_stability"]) <= 0.1

    def test_wellposed_run_no_flag(self, tmp_path):
        cfg = write_cfg(tmp_path, NOISY_CFG, m=1, levels=2, paths=1)
        assert main(["blowup-scan", "--config", cfg]) == 0
        summary = read_summary(tmp_path)
        assert summary["blowup_detected"] == "false"


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "snls.cli"],
                              capture_output=True, text=True)
        assert proc.returncode != 0   # missing subcommand
        proc = subprocess.run(
            [sys.executable, "-c",
             "from snls.cli import main; raise SystemExit(main(['simulate']))"],
            capture_output=True, text=True)
        assert "--config" in proc.stderr
