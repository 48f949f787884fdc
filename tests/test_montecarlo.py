import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import snls.montecarlo
from snls.dynamics import (BLOCK_POINTS, BlowupThresholds, ProblemSpec, RegimeError,
                           SolveOptions, StepFlags, rescaled_to_X, solve_direct,
                           solve_rescaled)
from snls.identities import (h1_identity, hamiltonian_identity, lp_identity,
                             mass_identity)
from snls.montecarlo import (ENSEMBLE_POINTS, EnsembleConfig, _map_blocks, block_size,
                             continuity_probe, convergence_order, estimate_mass_bias,
                             identity_ladder, martingale_test, moment_monitor,
                             run_ensemble)
from snls.noise import (GaussianProfile, NoiseMode, build_model, refine_path,
                        sample_path)
from snls.spectral import Field, Grid, boundary_ratio, h1_norm, quadrature

GRID = Grid(1, 64, 16.0)
XI = GRID.meshes[0]
NOSNAP = SolveOptions(record_snapshots=False)


def gaussian(amp=1.0, grid=GRID, width=1.0):
    return Field(grid, amp * np.exp(-grid.meshes[0] ** 2 / (2.0 * width ** 2)))


def spec_with_mode(mu, lam=-1, T=0.25, grid=GRID):
    model = build_model([NoiseMode(mu, GaussianProfile(1.0, 3.0, (0, 0, 0)))], grid)
    return ProblemSpec(grid, model, 3.0, lam, T)


def det_spec(alpha=3.0, lam=1, T=0.25, grid=GRID):
    return ProblemSpec(grid, build_model([], grid), alpha, lam, T)


class TestRunEnsemble:
    def test_deterministic_model_has_zero_variance(self):
        spec = det_spec(lam=-1)
        config = EnsembleConfig(n_paths=4, seed=1, n_steps=50, width=1,
                                options=NOSNAP)
        report = run_ensemble(gaussian(), spec, config)
        assert np.max(report.variance("mass")) == 0.0

    def test_width_independent_bit_exact(self):
        spec = spec_with_mode(1.0 + 0j)
        base = dict(n_paths=6, seed=3, n_steps=50, options=NOSNAP)
        serial = run_ensemble(gaussian(), spec, EnsembleConfig(width=1, **base))
        parallel = run_ensemble(gaussian(), spec, EnsembleConfig(width=2, **base))
        for obs in serial.per_path:
            assert np.array_equal(serial.per_path[obs], parallel.per_path[obs])

    def test_identical_config_identical_report(self):
        spec = spec_with_mode(0.5 + 0.5j)
        config = EnsembleConfig(n_paths=5, seed=9, n_steps=40, width=1,
                                options=NOSNAP)
        a = run_ensemble(gaussian(), spec, config)
        b = run_ensemble(gaussian(), spec, config)
        assert np.array_equal(a.per_path["mass"], b.per_path["mass"])

    def test_blowup_paths_recorded_not_fatal(self):
        grid = Grid(1, 256, 32.0)
        spec = ProblemSpec(grid, build_model([], grid), 5.0, 1, 1.0)
        config = EnsembleConfig(
            n_paths=2, seed=0, n_steps=1000, width=1,
            options=SolveOptions(record_snapshots=False,
                                 thresholds=BlowupThresholds(h1_factor=8.0)))
        report = run_ensemble(gaussian(amp=3.0, grid=grid), spec, config)
        assert report.blowup_count == 2
        assert np.isnan(report.per_path["mass"][0, -1])

    def test_ci_shrinks_with_path_count(self):
        spec = spec_with_mode(1.0 + 0j, T=0.125)
        small = run_ensemble(gaussian(), spec,
                             EnsembleConfig(n_paths=60, seed=5, n_steps=25,
                                            width=1, options=NOSNAP))
        large = run_ensemble(gaussian(), spec,
                             EnsembleConfig(n_paths=240, seed=5, n_steps=25,
                                            width=1, options=NOSNAP))
        r = small.stderr("mass")[-1] / large.stderr("mass")[-1]
        assert r == pytest.approx(2.0, rel=0.25)


def one_crossing_thresholds(x, spec, config):
    """An H1 cap that exactly one path of the ensemble crosses: halfway
    between the largest and second-largest sup_t h1(t)/h1(0)."""
    h1 = run_ensemble(x, spec, config).per_path["h1"]
    top = np.sort(np.max(h1, axis=1) / h1[:, 0])[-2:]
    return BlowupThresholds(h1_factor=float(np.mean(top)))


class TestHonestCounts:
    def test_one_blowup_path(self):
        spec = spec_with_mode(1.0 + 0j)
        config = EnsembleConfig(n_paths=6, seed=3, n_steps=50, width=1,
                                options=NOSNAP)
        thresholds = one_crossing_thresholds(gaussian(), spec, config)
        report = run_ensemble(gaussian(), spec, EnsembleConfig(
            n_paths=6, seed=3, n_steps=50, width=1,
            options=SolveOptions(record_snapshots=False, thresholds=thresholds)))
        assert report.blowup_count == 1 and report.failure_count == 0
        mass = report.per_path["mass"][:, -1]
        assert np.isfinite(report.per_path["mass"][:, 0]).all()
        assert np.isfinite(mass).sum() == 5
        survivors = mass[np.isfinite(mass)]
        assert report.stderr("mass")[-1] == pytest.approx(
            np.std(survivors, ddof=1) / np.sqrt(5), rel=1e-12)
        assert moment_monitor(report, p=2.0, alpha=spec.alpha).divergent


class TestBlocks:
    def test_width_1_and_2_bit_identical_with_mid_block_blowup(self):
        grid = Grid(1, 256, 32.0)
        spec = spec_with_mode(1.0 + 0j, grid=grid)
        x = gaussian(grid=grid)
        n_paths = 5 * block_size(grid) // 2
        base = dict(n_paths=n_paths, seed=17, n_steps=60, width=1,
                    observables=("mass", "h1", "boundary"))
        thresholds = one_crossing_thresholds(x, spec, EnsembleConfig(**base, options=NOSNAP))
        opts = SolveOptions(record_snapshots=False, thresholds=thresholds)
        serial = run_ensemble(x, spec, EnsembleConfig(**base, options=opts))
        parallel = run_ensemble(x, spec, EnsembleConfig(**{**base, "width": 2}, options=opts))
        blown = [i for i, s in enumerate(serial.statuses) if s.kind == "blowup"]
        assert len(blown) == 1
        stop = serial.statuses[blown[0]].t
        assert 0.0 < stop < spec.T
        # the path stops while the rest of its block runs on to T
        assert np.isnan(serial.per_path["mass"][blown[0], -1])
        assert np.all(np.isfinite(np.delete(serial.per_path["mass"], blown[0], axis=0)))
        assert serial.statuses == parallel.statuses
        for obs in serial.per_path:
            assert np.array_equal(serial.per_path[obs], parallel.per_path[obs],
                                  equal_nan=True)

    def test_every_worker_gets_a_block(self):
        config = EnsembleConfig(n_paths=5, seed=0, n_steps=1, width=2)
        assert _map_blocks(block_bounds, config, 100) == [(0, 2)] * 2 + [(2, 5)] * 3
        assert _map_blocks(block_bounds, replace(config, width=8), 100) == [
            (i, i + 1) for i in range(5)]
        assert _map_blocks(block_bounds, replace(config, width=1), 2) == [
            (0, 1), (1, 3), (1, 3), (3, 5), (3, 5)]

    def test_one_block_bit_identical_at_widths_1_and_2(self):
        # the paths fit one block, so width 2 splits them into two
        spec = spec_with_mode(0.6 + 0.5j, T=0.05)
        x = gaussian()
        config = EnsembleConfig(n_paths=6, seed=4, n_steps=20, levels=2, width=1)
        assert config.n_paths < block_size(GRID) < block_size(GRID, ENSEMBLE_POINTS)
        runs = [run_ensemble(x, spec, replace(config, width=w, options=NOSNAP))
                for w in (1, 2)]
        assert runs[0].statuses == runs[1].statuses
        for obs in runs[0].per_path:
            assert runs[0].per_path[obs].tobytes() == runs[1].per_path[obs].tobytes()
        ladders = [identity_ladder(x, spec, replace(config, width=w)) for w in (1, 2)]
        for name in ladders[0].terminal:
            assert ladders[0].terminal[name].tobytes() == ladders[1].terminal[name].tobytes()
            assert ladders[0].sup[name].tobytes() == ladders[1].sup[name].tobytes()
        assert ladders[0].boundary_max == ladders[1].boundary_max

    @pytest.mark.parametrize("mu", [1.0 + 0j, 0.6 + 0.5j])
    def test_wide_ensemble_block_matches_solo_solves(self, monkeypatch, mu):
        # one block of 128 paths on a 256-point line is a 512 KiB complex
        # state, above the 256 KiB at which NumPy may evaluate `a * tmp` in
        # place as `tmp *= a`
        grid = Grid(1, 256, 32.0)
        spec = spec_with_mode(mu, T=0.02, grid=grid)
        x = gaussian(grid=grid)
        config = EnsembleConfig(n_paths=block_size(grid, ENSEMBLE_POINTS), seed=8, n_steps=20,
                                width=1, observables=("mass", "hamiltonian", "h1", "lp",
                                                      "boundary"), options=NOSNAP)
        assert config.n_paths == 128
        wide = run_ensemble(x, spec, config)
        for pid, status in enumerate(wide.statuses):
            path = sample_path(spec.model, spec.T, config.n_steps, config.seed, pid)
            solo = solve_direct(x, path, spec, NOSNAP)
            assert status == solo.status == wide.statuses[0]
            for obs in config.observables:
                assert wide.per_path[obs][pid].tobytes() == solo.diagnostic(obs).tobytes()
        monkeypatch.setattr(snls.montecarlo, "ENSEMBLE_POINTS", 8192)   # blocks of 32
        narrow = run_ensemble(x, spec, config)
        for obs in config.observables:
            assert wide.per_path[obs].tobytes() == narrow.per_path[obs].tobytes()


def block_bounds(ids):
    """Each path's block, as (first id, end id)."""
    return [(ids.start, ids.stop)] * len(ids)


class TestMartingale:
    def test_conservative_exact_pass(self):
        model = build_model([NoiseMode(1.0j, GaussianProfile(1.0, 3.0, (0, 0, 0)))], GRID)
        spec = ProblemSpec(GRID, model, 3.0, -1, 0.25)
        config = EnsembleConfig(n_paths=128, seed=2, n_steps=50, width=1,
                                options=NOSNAP)
        report = run_ensemble(gaussian(), spec, config)
        result = martingale_test(report, initial_mass=float(report.per_path["mass"][0, 0]))
        assert result.passed
        assert np.max(result.deviations) <= 1e-11

    def test_nonconservative_passes_at_3_sigma(self):
        spec = spec_with_mode(1.0 + 0j, T=0.25)
        config = EnsembleConfig(n_paths=256, seed=11, n_steps=100, width=2,
                                options=NOSNAP)
        report = run_ensemble(gaussian(), spec, config)
        m0 = float(report.per_path["mass"][0, 0])
        bias = estimate_mass_bias(
            gaussian(), spec,
            EnsembleConfig(n_paths=32, seed=77, n_steps=100, width=2, options=NOSNAP))
        assert martingale_test(report, m0, bias=bias).passed

    def test_injected_bug_fails_hard(self):
        # full-power z > 5 check lives in the acceptance suite at M = 1000;
        # at 256 paths the drift is still a clear > 3 sigma failure
        spec = spec_with_mode(1.0 + 0j, T=0.5)
        bug = SolveOptions(record_snapshots=False,
                           flags=StepFlags(omit_mu_tilde=True))
        config = EnsembleConfig(n_paths=256, seed=11, n_steps=200, width=2,
                                options=bug)
        report = run_ensemble(gaussian(), spec, config)
        m0 = float(report.per_path["mass"][0, 0])
        result = martingale_test(report, m0)
        assert not result.passed
        assert np.max(result.z_scores) > 3.0

    def test_needs_hundred_paths(self):
        spec = spec_with_mode(1.0 + 0j)
        config = EnsembleConfig(n_paths=4, seed=1, n_steps=10, width=1,
                                options=NOSNAP)
        report = run_ensemble(gaussian(), spec, config)
        with pytest.raises(ValueError):
            martingale_test(report, 1.0)


class TestMomentMonitor:
    def test_deterministic_defocusing_stable(self):
        spec = det_spec(lam=-1)
        config = EnsembleConfig(n_paths=2, seed=1, n_steps=100, width=1,
                                options=NOSNAP)
        report = run_ensemble(gaussian(), spec, config)
        mom = moment_monitor(report, p=2.0, alpha=spec.alpha)
        assert not mom.divergent
        assert np.isfinite(mom.e_sup_mass_p)
        # dt halving changes the sup statistics by under 10%
        fine = run_ensemble(gaussian(), spec,
                            EnsembleConfig(n_paths=2, seed=1, n_steps=200,
                                           width=1, options=NOSNAP))
        mom_fine = moment_monitor(fine, p=2.0, alpha=spec.alpha)
        assert abs(mom.e_sup_energy - mom_fine.e_sup_energy) <= 0.1 * mom.e_sup_energy

    def test_conservative_focusing_subcritical_finite(self):
        model = build_model([NoiseMode(0.8j, GaussianProfile(1.0, 3.0, (0, 0, 0)))], GRID)
        spec = ProblemSpec(GRID, model, 3.0, 1, 0.25)
        config = EnsembleConfig(n_paths=16, seed=3, n_steps=100, width=1,
                                options=NOSNAP)
        report = run_ensemble(gaussian(), spec, config)
        mom = moment_monitor(report, p=4.0, alpha=spec.alpha)
        assert not mom.divergent and np.isfinite(mom.e_sup_energy)

    def test_blowup_regime_reports_divergence_flag(self):
        grid = Grid(1, 256, 32.0)
        spec = ProblemSpec(grid, build_model([], grid), 5.0, 1, 1.0)
        config = EnsembleConfig(
            n_paths=2, seed=0, n_steps=1000, width=1,
            options=SolveOptions(record_snapshots=False,
                                 thresholds=BlowupThresholds(h1_factor=8.0)))
        report = run_ensemble(gaussian(amp=3.0, grid=grid), spec, config)
        mom = moment_monitor(report, p=2.0, alpha=spec.alpha)
        assert mom.divergent


class TestConvergenceOrder:
    def test_deterministic_strang_order(self):
        spec = det_spec(lam=1, T=0.25)
        config = EnsembleConfig(n_paths=1, seed=0, n_steps=50, levels=4,
                                width=1, options=NOSNAP)
        rep = convergence_order(gaussian(), spec, config)
        assert not rep.inconclusive
        assert rep.order >= 1.8

    def test_linear_spde_order(self):
        spec = spec_with_mode(1.0 + 0j, T=0.25)
        config = EnsembleConfig(
            n_paths=8, seed=21, n_steps=50, levels=4, width=2,
            options=SolveOptions(record_snapshots=False,
                                 flags=StepFlags(nonlinear=False)))
        rep = convergence_order(gaussian(), spec, config)
        assert rep.order >= 0.9

    def test_full_snls_order_reported(self):
        spec = spec_with_mode(1.0 + 0j, T=0.25)
        config = EnsembleConfig(n_paths=8, seed=23, n_steps=50, levels=4,
                                width=2, options=NOSNAP)
        rep = convergence_order(gaussian(), spec, config)
        assert rep.order >= 0.4

    def test_needs_three_levels(self):
        spec = det_spec()
        config = EnsembleConfig(n_paths=1, seed=0, n_steps=50, levels=2,
                                width=1, options=NOSNAP)
        with pytest.raises(ValueError):
            convergence_order(gaussian(), spec, config)

    def test_sup_over_time_variant(self):
        spec = spec_with_mode(1.0 + 0j, T=0.25)
        config = EnsembleConfig(n_paths=4, seed=23, n_steps=50, levels=3,
                                width=1, options=NOSNAP)
        at_T = convergence_order(gaussian(), spec, config)
        sup = convergence_order(gaussian(), spec, config, sup_over_time=True)
        # the sup-in-t error dominates the horizon error level by level
        for a, b in zip(sup.errors, at_T.errors):
            assert a >= b
        assert not sup.inconclusive

    def test_unfinished_path_left_out(self):
        spec = spec_with_mode(1.0 + 0j)
        base = dict(n_paths=6, seed=3, n_steps=50, levels=3, width=1)
        thresholds = one_crossing_thresholds(gaussian(), spec,
                                             EnsembleConfig(**base, options=NOSNAP))
        opts = SolveOptions(record_snapshots=False, thresholds=thresholds)
        rep = convergence_order(gaussian(), spec, EnsembleConfig(**base, options=opts))
        assert rep.unfinished_paths == 1 and rep.inconclusive
        assert "convergence_unfinished_paths=1" in rep.summary_lines()
        # reference: the strong errors of the paths that finished every level
        errs = []
        for pid in range(6):
            path = sample_path(spec.model, spec.T, 50, 3, pid)
            finals = []
            for level in range(3):
                traj = solve_direct(gaussian(), path, spec,
                                    replace(opts, record_snapshots=True, stride=path.n_steps))
                finals.append(traj.snapshots[-1].values if traj.status.kind == "finished" else None)
                path = refine_path(path)
            if all(f is not None for f in finals):
                errs.append([float(np.sqrt(quadrature(GRID, np.abs(f - finals[-1]) ** 2)))
                             for f in finals[:-1]])
        assert len(errs) == 5
        assert rep.errors == np.mean(errs, axis=0).tolist()

    def test_rescaled_errors_are_of_X(self):
        # reference: each path's terminal X = e^W y per level, solved alone
        spec = spec_with_mode(0.6 + 0.5j)
        config = EnsembleConfig(n_paths=3, seed=9, n_steps=50, levels=3, width=1,
                                scheme="rescaled", options=NOSNAP)
        rep = convergence_order(gaussian(), spec, config)
        errs, y_errs = [], []
        for pid in range(3):
            path = sample_path(spec.model, spec.T, 50, 9, pid)
            X, y = [], []
            for level in range(3):
                traj = solve_rescaled(gaussian(), path, spec, SolveOptions(stride=path.n_steps))
                X.append(rescaled_to_X(traj, path, spec.model)[-1].values)
                y.append(traj.snapshots[-1].values)
                path = refine_path(path)
            for out, finals in ((errs, X), (y_errs, y)):
                out.append([float(np.sqrt(quadrature(GRID, np.abs(f - finals[-1]) ** 2)))
                            for f in finals[:-1]])
        assert rep.scheme == "rescaled" and rep.unfinished_paths == 0
        assert rep.errors == np.mean(errs, axis=0).tolist()
        assert rep.errors != np.mean(y_errs, axis=0).tolist()

    def test_no_finished_path_is_regime_error(self):
        spec = spec_with_mode(1.0 + 0j)
        config = EnsembleConfig(
            n_paths=3, seed=3, n_steps=50, levels=3, width=1,
            options=SolveOptions(record_snapshots=False,
                                 thresholds=BlowupThresholds(h1_factor=0.5)))
        with pytest.raises(RegimeError):
            convergence_order(gaussian(), spec, config)


def hand_identity_ladder(x, spec, config):
    """Reference for identity_ladder: one path at a time, one level at a time,
    each trajectory checked as its snapshots keep it (a stopped path up to its
    stop).  The boundary ratio is X's: of e^W y for the rescaled scheme, not of y."""
    solver = solve_rescaled if config.scheme == "rescaled" else solve_direct
    options = replace(config.options, record_snapshots=True, stride=1)
    terminal = np.zeros((config.n_paths, 4, config.levels))
    boundary = y_boundary = 0.0
    for pid in range(config.n_paths):
        path = sample_path(spec.model, spec.T, config.n_steps, config.seed, pid)
        for level in range(config.levels):
            traj = solver(x, path, spec, options)
            y_boundary = max(y_boundary, float(np.max(traj.diagnostic("boundary"))))
            if config.scheme == "rescaled":
                traj = replace(traj, snapshots=rescaled_to_X(traj, path, spec.model))
            boundary = max(boundary, max(boundary_ratio(s) for s in traj.snapshots))
            reports = [mass_identity(traj, path, spec.model),
                       hamiltonian_identity(traj, path, spec.model, spec),
                       lp_identity(traj, path, spec.model, spec),
                       h1_identity(traj, path, spec.model, spec)]
            terminal[pid, :, level] = [abs(r.terminal_residual) for r in reports]
            if pid == 0 and level == config.levels - 1:
                finest = reports
            path = refine_path(path)
    return terminal, finest, boundary, y_boundary


class TestIdentityLadder:
    @pytest.mark.parametrize("scheme,grid,n_paths", [
        ("direct", Grid(1, 256, 32.0), 40),     # blocks of 32 + 8
        ("rescaled", GRID, 4),
    ])
    def test_matches_hand_loop_at_widths_1_and_2(self, scheme, grid, n_paths):
        spec = spec_with_mode(1.0 + 0j, T=0.05, grid=grid)
        x = gaussian(grid=grid)
        config = EnsembleConfig(n_paths=n_paths, seed=6, n_steps=20, levels=2, width=1,
                                scheme=scheme)
        terminal, finest, boundary, y_boundary = hand_identity_ladder(x, spec, config)
        for width in (1, 2):
            ladder = identity_ladder(x, spec, replace(config, width=width))
            names = list(ladder.terminal)
            assert names == ["mass", "hamiltonian", "lp", "h1"]
            for k, name in enumerate(names):
                assert np.array_equal(ladder.terminal[name], terminal[:, k])
                assert np.array_equal(ladder.finest[name].residual, finest[k].residual)
            assert ladder.boundary_max == boundary
            assert ladder.statuses.shape == (n_paths, 2) and ladder.unfinished_paths == 0
        if scheme == "direct":    # X is the solved state: the diagnostics' ratio, bit for bit
            assert boundary == y_boundary

    def test_rescaled_boundary_is_read_from_X(self):
        # a wide gaussian reaches the faces, and there e^W lifts X above y
        spec = spec_with_mode(1.0 + 0j, T=0.05)
        x = gaussian(width=3.0)
        config = EnsembleConfig(n_paths=2, seed=5, n_steps=20, levels=1, width=1,
                                scheme="rescaled")
        _, _, boundary, y_boundary = hand_identity_ladder(x, spec, config)
        ladder = identity_ladder(x, spec, config)
        assert ladder.boundary_max == boundary
        assert boundary > y_boundary

    def test_one_path_stops_mid_block(self):
        # path 3 crosses the H1 cap at both levels while its block-mates run
        # on to T: its rows up to and including the blowup row are checked
        spec = spec_with_mode(1.0 + 0j, T=0.05)
        x = gaussian()
        base = EnsembleConfig(n_paths=6, seed=6, n_steps=20, levels=2, width=1, options=NOSNAP)
        config = replace(base, options=SolveOptions(
            record_snapshots=False, thresholds=one_crossing_thresholds(x, spec, base)))
        stops = [s.t for s in run_ensemble(x, spec, config).statuses if s.kind == "blowup"]
        assert len(stops) == 1 and 0.0 < stops[0] < spec.T
        terminal, finest, boundary, _ = hand_identity_ladder(x, spec, config)
        for width in (1, 2):
            ladder = identity_ladder(x, spec, replace(config, width=width))
            assert ladder.statuses.tolist() == [["finished"] * 2] * 3 + [["blowup"] * 2] + [
                ["finished"] * 2] * 2
            for k, name in enumerate(ladder.terminal):
                assert np.array_equal(ladder.terminal[name], terminal[:, k])
                assert np.array_equal(ladder.finest[name].residual, finest[k].residual)
            assert ladder.boundary_max == boundary

    def test_unfinished_paths_are_counted(self):
        spec = spec_with_mode(1.0 + 0j, T=0.05)
        config = EnsembleConfig(n_paths=3, seed=1, n_steps=20, levels=2, width=1,
                                options=SolveOptions(thresholds=BlowupThresholds(h1_factor=0.5)))
        ladder = identity_ladder(gaussian(), spec, config)
        assert set(ladder.statuses.ravel()) == {"blowup"}
        assert ladder.unfinished_paths == 3


def hand_continuity_ratios(x, deltas, spec, config, direction):
    """The serial reference: each path's base run, then each perturbed run,
    compared in X (X = e^W y for the rescaled scheme)."""
    solver = solve_direct if config.scheme == "direct" else solve_rescaled

    def X(traj, path):
        rescaled = config.scheme == "rescaled"
        return rescaled_to_X(traj, path, spec.model) if rescaled else traj.snapshots

    ratios = np.zeros((config.n_paths, len(deltas)))
    for pid in range(config.n_paths):
        path = sample_path(spec.model, spec.T, config.n_steps, config.seed, pid)
        base = X(solver(x, path, spec, SolveOptions(stride=1)), path)
        for k, d in enumerate(deltas):
            pert = Field(x.grid, x.values + d * direction.values)
            moved = X(solver(pert, path, spec, SolveOptions(stride=1)), path)
            sup = max(h1_norm(a - b) for a, b in zip(moved, base))
            ratios[pid, k] = sup / (d * h1_norm(direction))
    return ratios


class TestContinuityProbe:
    @pytest.mark.parametrize("scheme,mu", [("direct", 1.0 + 0j), ("direct", 0.6 + 0.5j),
                                           ("rescaled", 1.0 + 0j), ("rescaled", 0.6 + 0.5j)])
    def test_matches_hand_loop_at_widths_1_and_2(self, scheme, mu):
        # 4 runs per path in blocks of 32 rows: 10 paths make blocks of 8 + 2
        grid = Grid(1, 256, 32.0)
        spec = spec_with_mode(mu, T=0.02, grid=grid)
        x, v = gaussian(grid=grid), gaussian(grid=grid, width=2.0)
        deltas = [1e-2, 1e-3, 1e-4]
        config = EnsembleConfig(n_paths=10, seed=3, n_steps=20, width=1, scheme=scheme)
        want = hand_continuity_ratios(x, deltas, spec, config, v)
        for width in (1, 2):
            got = continuity_probe(x, deltas, spec, replace(config, width=width), v)
            assert got.ratios.tobytes() == want.tobytes()

    def test_deterministic_soliton_bounded(self):
        grid = Grid(1, 256, 32.0)
        xi = grid.meshes[0]
        x = Field(grid, np.sqrt(2.0) / np.cosh(xi))
        spec = det_spec(lam=1, T=0.25, grid=grid)
        config = EnsembleConfig(n_paths=1, seed=0, n_steps=250, width=1)
        v = gaussian(grid=grid)
        rep = continuity_probe(x, [1e-2, 1e-3, 1e-4], spec, config, v)
        assert rep.bounded
        assert rep.spread <= 10.0

    def test_conservative_stochastic_bounded(self):
        model = build_model([NoiseMode(0.8j, GaussianProfile(1.0, 3.0, (0, 0, 0)))], GRID)
        spec = ProblemSpec(GRID, model, 3.0, 1, 0.25)
        config = EnsembleConfig(n_paths=4, seed=5, n_steps=125, width=1)
        rep = continuity_probe(gaussian(), [1e-2, 1e-3, 1e-4], spec, config,
                               gaussian(width=2.0))
        assert rep.bounded

    def test_rejects_nonpositive_delta(self):
        spec = det_spec()
        config = EnsembleConfig(n_paths=1, seed=0, n_steps=10, width=1)
        with pytest.raises(ValueError):
            continuity_probe(gaussian(), [0.0], spec, config, gaussian())

    def test_blowup_run_is_regime_error(self):
        grid = Grid(1, 256, 32.0)
        spec = ProblemSpec(grid, build_model([], grid), 5.0, 1, 1.0)
        config = EnsembleConfig(
            n_paths=1, seed=0, n_steps=1000, width=1,
            options=SolveOptions(thresholds=BlowupThresholds(h1_factor=8.0)))
        with pytest.raises(RegimeError):
            continuity_probe(gaussian(amp=3.0, grid=grid), [1e-2], spec, config,
                             gaussian(grid=grid))


def traced_peak(fn, *args):
    """fn(*args)'s peak of traced memory above what was live before it."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingMemory:
    # solve_block hands its chunks to the engines as they are solved: the
    # peak is the per-path series plus a chunk's working arrays, while a
    # stride-1 trajectory of every path (1 KiB a step at n = 64) is never held
    GRID64 = Grid(1, 64, 16.0)
    CHUNK = BLOCK_POINTS * 16    # bytes of one chunk of complex states

    def test_identity_ladder_keeps_series_not_trajectories(self):
        spec = spec_with_mode(1.0 + 0j, T=0.2, grid=self.GRID64)
        x = gaussian(grid=self.GRID64)
        config = EnsembleConfig(n_paths=64, seed=2, n_steps=400, width=1)
        identity_ladder(x, spec, replace(config, n_paths=1, n_steps=4))   # fills the caches
        # per path-time: 17 identity series and solve_block's 5 diagnostic series
        series = 64 * 401 * 8 * (17 + 5)
        peak = traced_peak(identity_ladder, x, spec, config)
        assert peak <= series + 24 * self.CHUNK < 64 * 401 * 64 * 16

    def test_continuity_probe_keeps_sups_not_trajectories(self):
        spec = spec_with_mode(1.0 + 0j, T=0.2, grid=self.GRID64)
        x, v = gaussian(grid=self.GRID64), gaussian(grid=self.GRID64, width=2.0)
        config = EnsembleConfig(n_paths=8, seed=2, n_steps=400, width=1)
        continuity_probe(x, [1e-2], spec, replace(config, n_paths=1, n_steps=4), v)
        # 8 paths x 4 runs: one block of 32 rows, 5 diagnostic series per row-time
        series = 32 * 401 * 8 * 5
        peak = traced_peak(continuity_probe, x, [1e-2, 1e-3, 1e-4], spec, config, v)
        assert peak <= series + 8 * self.CHUNK < 32 * 401 * 64 * 16
