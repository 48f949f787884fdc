from dataclasses import replace

import numpy as np
import pytest

import snls.dynamics
import snls.identities
import snls.spectral
from snls.dynamics import (ProblemSpec, SolveOptions, StepFlags, chunk_steps, solve_direct,
                           step_direct)
from snls.identities import (ALL_IDENTITIES, IDENTITY_NAMES, StrideError, h1_identity,
                             hamiltonian_identity, lp_identity, mass_identity)
from snls.noise import (GaussianProfile, NoiseMode, build_model, refine_path,
                        sample_path)
from snls.spectral import Field, Grid

GRID = Grid(1, 64, 16.0)
XI = GRID.meshes[0]
STRIDE1 = SolveOptions(stride=1)


def gaussian(amp=1.0, grid=GRID):
    return Field(grid, amp * np.exp(-grid.meshes[0] ** 2 / 2.0))


def noisy_spec(mu=1.0 + 0j, lam=-1, T=0.25, grid=GRID):
    model = build_model([NoiseMode(mu, GaussianProfile(1.0, 3.0, (0, 0, 0)))], grid)
    return ProblemSpec(grid, model, 3.0, lam, T)


def det_spec(lam=1, T=0.25, grid=GRID, alpha=3.0):
    return ProblemSpec(grid, build_model([], grid), alpha, lam, T)


class TestReportStructure:
    def test_residual_starts_at_exact_zero(self):
        spec = noisy_spec()
        path = sample_path(spec.model, 0.25, 50, seed=1)
        traj = solve_direct(gaussian(), path, spec, STRIDE1)
        for rep in (mass_identity(traj, path, spec.model),
                    hamiltonian_identity(traj, path, spec.model, spec),
                    lp_identity(traj, path, spec.model, spec),
                    h1_identity(traj, path, spec.model, spec)):
            assert rep.residual[0] == 0.0
            for series in rep.terms.values():
                assert series[0] == 0.0

    def test_stride_enforced(self):
        spec = noisy_spec()
        path = sample_path(spec.model, 0.25, 50, seed=1)
        for options in (SolveOptions(stride=5), SolveOptions(record_snapshots=False)):
            traj = solve_direct(gaussian(), path, spec, options)
            with pytest.raises(StrideError):
                mass_identity(traj, path, spec.model)

    def test_a_numeric_failure_is_checked_to_its_last_finite_row(self):
        # the solver keeps no snapshot of the failed row: each check ends one row before it,
        # with the bits of the same rows of a run that did not fail
        spec = noisy_spec()
        path = sample_path(spec.model, 0.25, 50, seed=1)
        good = solve_direct(gaussian(), path, spec, STRIDE1)
        failing = replace(path, increments=path.increments.copy())
        failing.increments[29] = 1e3   # the noise factor of step 30 overflows
        traj = solve_direct(gaussian(), failing, spec, STRIDE1)
        assert traj.status.kind == "numeric-failure" and len(traj.times) == 31
        for check in (mass_identity, hamiltonian_identity, lp_identity, h1_identity):
            args = (spec.model,) if check is mass_identity else (spec.model, spec)
            rep, ref = check(traj, failing, *args), check(good, path, *args)
            assert rep.times.tolist() == traj.times[:30].tolist()
            assert rep.residual.tobytes() == ref.residual[:30].tobytes()
            for name, series in rep.terms.items():
                assert series.tobytes() == ref.terms[name][:30].tobytes()

    def test_shared_increments_across_identities(self):
        spec = noisy_spec()
        path = sample_path(spec.model, 0.25, 50, seed=1)
        traj = solve_direct(gaussian(), path, spec, STRIDE1)
        a = mass_identity(traj, path, spec.model)
        b = hamiltonian_identity(traj, path, spec.model, spec)
        assert a.increments is b.increments
        assert a.increments is path.increments

    def test_reproducible_bit_exact(self):
        spec = noisy_spec()
        path = sample_path(spec.model, 0.25, 50, seed=1)
        traj = solve_direct(gaussian(), path, spec, STRIDE1)
        r1 = lp_identity(traj, path, spec.model, spec)
        r2 = lp_identity(traj, path, spec.model, spec)
        assert np.array_equal(r1.residual, r2.residual)

    def test_csv_columns(self, tmp_path):
        spec = noisy_spec()
        path = sample_path(spec.model, 0.25, 20, seed=1)
        traj = solve_direct(gaussian(), path, spec, STRIDE1)
        rep = hamiltonian_identity(traj, path, spec.model, spec)
        out = tmp_path / "ham.csv"
        rep.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[1].startswith("t,residual,term_1")
        assert len(lines) == 2 + len(rep.times)

    def test_csv_without_terms_names_only_its_columns(self, tmp_path):
        # deterministic mass: no term series, so a header of two names over rows of two values
        spec = det_spec()
        path = sample_path(spec.model, 0.25, 20, seed=1)
        rep = mass_identity(solve_direct(gaussian(), path, spec, STRIDE1), path, spec.model)
        assert rep.terms == {}
        rep.to_csv(tmp_path / "mass.csv")
        comment, header, *rows = (tmp_path / "mass.csv").read_text().splitlines()
        assert (comment, header) == ("# terms: ", "t,residual")
        assert len(rows) == len(rep.times) and all(len(r.split(",")) == 2 for r in rows)


class TestChunking:
    """Snapshots are stacked in the solver's chunks of chunk_steps(1, grid) rows (32 at n = 64
    with BLOCK_POINTS = 2048); a report must not depend on where the chunks fall."""

    @pytest.fixture(scope="class")
    def run(self):
        model = build_model([NoiseMode(0.8 + 0.3j, GaussianProfile(1.0, 3.0, (0, 0, 0))),
                             NoiseMode(-0.4 + 0.1j, GaussianProfile(0.6, 2.0, (1, 0, 0)))],
                            GRID)
        spec = ProblemSpec(GRID, model, 3.0, 1, 0.1)
        path = sample_path(model, 0.1, 100, seed=11)
        return spec, path, solve_direct(gaussian(0.8), path, spec, STRIDE1)

    @staticmethod
    def assert_prefix(short, full, k):
        assert list(short.terms) == list(full.terms)
        for a, b in [(short.lhs, full.lhs), (short.residual, full.residual)] + [
                (short.terms[t], full.terms[t]) for t in full.terms]:
            assert len(a) == k
            assert a.tobytes() == b[:k].tobytes()

    @pytest.mark.parametrize("name", list(ALL_IDENTITIES))
    @pytest.mark.parametrize("k", [45, 70])
    def test_cut_trajectory_is_a_prefix(self, run, name, k, monkeypatch):
        spec, path, traj = run
        monkeypatch.setattr(snls.dynamics, "BLOCK_POINTS", 2048)
        rows = chunk_steps(1, GRID)
        assert rows == 32 and k % rows != 0 and len(traj.times) % rows != 0
        cut = replace(traj, times=traj.times[:k], snapshot_indices=traj.snapshot_indices[:k],
                      snapshots=traj.snapshots[:k])
        fn = ALL_IDENTITIES[name]
        self.assert_prefix(fn(cut, path, spec.model, spec), fn(traj, path, spec.model, spec), k)

    @pytest.mark.parametrize("name", list(ALL_IDENTITIES))
    def test_chunks_are_views_of_the_trajectory(self, run, name, monkeypatch):
        spec, path, traj = run
        seen, terms = [], snls.identities.identity_terms

        def recording(v, *args, **kwargs):
            seen.append(v)
            return terms(v, *args, **kwargs)

        monkeypatch.setattr(snls.identities, "identity_terms", recording)
        monkeypatch.setattr(snls.dynamics, "BLOCK_POINTS", 2048)
        ALL_IDENTITIES[name](traj, path, spec.model, spec)
        assert [len(v) for v in seen] == [32, 32, 32, 5]
        assert all(np.shares_memory(v, traj.snapshots.values) for v in seen)

    @pytest.mark.parametrize("name", list(ALL_IDENTITIES))
    def test_one_snapshot_chunks_give_the_same_report(self, run, name, monkeypatch):
        spec, path, traj = run
        fn = ALL_IDENTITIES[name]
        full = fn(traj, path, spec.model, spec)
        monkeypatch.setattr(snls.dynamics, "BLOCK_POINTS", GRID.n)
        assert chunk_steps(1, GRID) == 1
        self.assert_prefix(fn(traj, path, spec.model, spec), full, len(traj.times))


def test_kernel_calls_per_direct_step_and_identity_chunk(monkeypatch):
    """One transform call per axis and direction: a direct step makes 2, and a chunk of
    snapshots with one noise mode 0 for mass, 6 for H (its H^1 rows, X-hat shared by
    |grad X|^2 and grad X), 2 for L^p and 8 for H^1 (grad theta_m g is one multiplier of g),
    and 8 for all four in one pass (the identity ladder's), which makes each shared transform
    once.  grad X is transformed only when a term reads it, and H reads H^1's lam_drift only
    with the dispersive substep off."""
    cases = [  # spec, flags, calls per identity, calls for all four
        (noisy_spec(mu=0.8 + 0.3j, lam=1), StepFlags(),
         {"mass": 0, "hamiltonian": 6, "lp": 2, "h1": 8}, 8),
        (det_spec(lam=1), StepFlags(), {"mass": 0, "hamiltonian": 1, "lp": 2, "h1": 4}, 4),
        (det_spec(lam=1), StepFlags(nonlinear=False),
         {"mass": 0, "hamiltonian": 1, "lp": 2, "h1": 1}, 2),
        (det_spec(lam=1), StepFlags(linear=False),
         {"mass": 0, "hamiltonian": 4, "lp": 0, "h1": 4}, 4),
    ]
    calls, kernels = [], (snls.spectral.fft_kernel, snls.spectral.ifft_kernel)
    for name, kernel in zip(("fft_kernel", "ifft_kernel"), kernels):
        def counted(*args, kernel=kernel, **kw):
            calls.append(kernel)
            return kernel(*args, **kw)
        monkeypatch.setattr(snls.spectral, name, counted)
    for spec, flags, want, want_all in cases:
        path = sample_path(spec.model, 0.03, 30, seed=3)
        traj = solve_direct(gaussian(0.8), path, spec, SolveOptions(stride=1, flags=flags))
        assert len(traj.times) <= chunk_steps(1, GRID)   # one chunk
        calls.clear()
        step_direct(gaussian(0.8), 0, path, spec)
        assert calls == list(kernels)
        counts = {}
        for name, fn in ALL_IDENTITIES.items():
            calls.clear()
            fn(traj, path, spec.model, spec)
            counts[name] = len(calls)
        assert counts == want, flags
        calls.clear()
        db = np.zeros((len(traj.times), spec.model.n_modes))
        snls.identities.identity_terms(traj.snapshots.rows(), db, path.dt, spec.model, spec,
                                       flags, IDENTITY_NAMES)
        assert len(calls) == want_all, flags


class TestMassIdentity:
    def test_deterministic_reduces_to_scheme_drift(self):
        spec = det_spec(lam=-1)
        path = sample_path(spec.model, 0.25, 100, seed=0)
        traj = solve_direct(gaussian(), path, spec, STRIDE1)
        rep = mass_identity(traj, path, spec.model)
        m = traj.diagnostic("mass")
        assert np.allclose(rep.residual, m - m[0], atol=1e-14)
        assert np.max(np.abs(rep.residual)) <= 1e-12

    def test_conservative_residual_is_scheme_mass_drift(self):
        model = build_model([NoiseMode(0.8j, GaussianProfile(1.0, 3.0, (0, 0, 0)))], GRID)
        spec = ProblemSpec(GRID, model, 3.0, -1, 0.25)
        path = sample_path(model, 0.25, 100, seed=5)
        traj = solve_direct(gaussian(), path, spec, STRIDE1)
        rep = mass_identity(traj, path, model)
        assert np.max(np.abs(rep.residual)) <= 1e-12

    def test_refinement_shrinks_residual(self):
        spec = noisy_spec()
        meds = []
        for lv in range(2):
            terms = []
            for pid in range(24):
                path = sample_path(spec.model, 0.25, 125, seed=13, path_id=pid)
                for _ in range(2 * lv):
                    path = refine_path(path)
                traj = solve_direct(gaussian(), path, spec, STRIDE1)
                terms.append(abs(mass_identity(traj, path, spec.model).terminal_residual))
            meds.append(np.median(terms))
        # two dyadic refinements: expect roughly 2x shrink at strong order 1/2
        assert meds[1] < meds[0]
        assert np.log2(meds[0] / meds[1]) / 2 >= 0.3


class TestHamiltonianIdentity:
    def test_deterministic_matches_energy_drift(self):
        grid = Grid(1, 512, 40.0)
        xi = grid.meshes[0]
        x = Field(grid, np.sqrt(2.0) / np.cosh(xi))
        spec = det_spec(lam=1, grid=grid)
        path = sample_path(spec.model, 0.25, 250, seed=0)
        traj = solve_direct(x, path, spec, STRIDE1)
        rep = hamiltonian_identity(traj, path, spec.model, spec)
        H = traj.diagnostic("hamiltonian")
        assert np.max(np.abs(rep.residual)) <= 1e-6 * abs(H[0])

    def test_no_linear_residual_halves_under_refinement(self):
        # without the dispersive substep, half of H^1's lam_drift no longer cancels
        # L^p's grad_drift, and the Hamiltonian identity must carry it
        spec = det_spec(lam=1, T=0.25)
        opts = SolveOptions(stride=1, flags=StepFlags(linear=False))
        path = sample_path(spec.model, 0.25, 100, seed=0)
        ratios = []
        for _ in range(3):
            traj = solve_direct(gaussian(0.9), path, spec, opts)
            rep = hamiltonian_identity(traj, path, spec.model, spec)
            ratios.append(np.max(np.abs(rep.residual)) / np.max(np.abs(rep.lhs)))
            path = refine_path(path)
        assert all(a >= 1.8 * b for a, b in zip(ratios, ratios[1:])), ratios
        assert ratios[-1] < 1e-3, ratios

    def test_conservative_mode_kills_phase_terms_exactly(self):
        model = build_model([NoiseMode(0.9j, GaussianProfile(1.0, 3.0, (0, 0, 0)))], GRID)
        spec = ProblemSpec(GRID, model, 3.0, -1, 0.25)
        path = sample_path(model, 0.25, 100, seed=7)
        traj = solve_direct(gaussian(), path, spec, STRIDE1)
        rep = hamiltonian_identity(traj, path, model, spec)
        assert np.all(rep.terms["qv_phase"] == 0.0)
        assert np.all(rep.terms["mart_phase"] == 0.0)
        assert np.any(rep.terms["qv_grad"] != 0.0)


class TestLpIdentity:
    def test_flat_phase_rotation_is_exact(self):
        # dispersive substep off and flat data: |X|^p is a pure phase story
        model = build_model([], GRID)
        spec = ProblemSpec(GRID, model, 3.0, 1, 0.25)
        path = sample_path(model, 0.25, 100, seed=0)
        flags = StepFlags(linear=False)
        x = Field(GRID, np.full(GRID.shape, 0.8 + 0.1j))
        traj = solve_direct(x, path, spec, SolveOptions(stride=1, flags=flags))
        rep = lp_identity(traj, path, model, spec)
        assert np.max(np.abs(rep.terms["grad_drift"])) == 0.0
        assert np.max(np.abs(rep.residual)) <= 1e-12 * abs(rep.lhs[0])

    def test_conservative_zeroes_noise_terms(self):
        model = build_model([NoiseMode(1.2j, GaussianProfile(1.0, 3.0, (0, 0, 0)))], GRID)
        spec = ProblemSpec(GRID, model, 3.0, -1, 0.25)
        path = sample_path(model, 0.25, 100, seed=3)
        traj = solve_direct(gaussian(), path, spec, STRIDE1)
        rep = lp_identity(traj, path, model, spec)
        assert np.all(rep.terms["qv_phase"] == 0.0)
        assert np.all(rep.terms["mart_phase"] == 0.0)


class TestH1Identity:
    def test_free_flow_conserves_gradient_norm(self):
        model = build_model([], GRID)
        spec = ProblemSpec(GRID, model, 3.0, 1, 0.25)
        path = sample_path(model, 0.25, 100, seed=0)
        flags = StepFlags(nonlinear=False)
        traj = solve_direct(gaussian(), path, spec, SolveOptions(stride=1, flags=flags))
        rep = h1_identity(traj, path, model, spec)
        assert np.max(np.abs(rep.residual)) <= 1e-10

    def test_deterministic_reduction_vs_finite_difference(self):
        # with N=0 the identity says d/dt |grad X|^2 = -2 lam Re int i grad g grad conj(X)
        grid = Grid(1, 512, 40.0)
        xi = grid.meshes[0]
        x = Field(grid, np.sqrt(2.0) / np.cosh(xi))
        spec = det_spec(lam=1, grid=grid)
        path = sample_path(spec.model, 0.25, 500, seed=0)
        traj = solve_direct(x, path, spec, STRIDE1)
        rep = h1_identity(traj, path, spec.model, spec)
        assert abs(rep.terminal_residual) <= 1e-5
        # oracle: centered finite differences of the gradient-energy series
        # against the identity's per-step drift increments
        dt = path.dt
        drift = np.diff(rep.terms["lam_drift"]) / dt    # value at left points t_i
        centered = (rep.lhs[2:] - rep.lhs[:-2]) / (2.0 * dt)   # at t_1 .. t_{n-1}
        err = np.max(np.abs(drift[1:] - centered))
        assert err <= 5e-2 * max(1.0, np.max(np.abs(centered)))

    def test_cutoff_sweep_keeps_r0_zero(self):
        spec = noisy_spec()
        path = sample_path(spec.model, 0.25, 50, seed=2)
        traj = solve_direct(gaussian(), path, spec, STRIDE1)
        for m in (2.0, 5.0, None):
            rep = h1_identity(traj, path, spec.model, spec, m=m)
            assert rep.residual[0] == 0.0

    @pytest.mark.parametrize("m", [0.0, -1.0])
    def test_non_positive_cutoff_scale_is_an_error(self, m):
        spec = noisy_spec()
        path = sample_path(spec.model, 0.25, 10, seed=2)
        traj = solve_direct(gaussian(), path, spec, STRIDE1)
        with pytest.raises(ValueError, match="cutoff scale m must be positive"):
            h1_identity(traj, path, spec.model, spec, m=m)


class TestCoupledRefinementOrders:
    def test_all_identities_converge(self):
        grid = GRID
        x = Field(grid, 0.75 * np.exp(-XI ** 2 / 2.0))
        model = build_model([NoiseMode(1.0 + 0j, GaussianProfile(0.7, 3.0, (0, 0, 0)))], grid)
        spec = ProblemSpec(grid, model, 3.0, -1, 0.125)
        names = ("mass", "hamiltonian", "lp", "h1")
        fns = {
            "mass": lambda t, p: mass_identity(t, p, model),
            "hamiltonian": lambda t, p: hamiltonian_identity(t, p, model, spec),
            "lp": lambda t, p: lp_identity(t, p, model, spec),
            "h1": lambda t, p: h1_identity(t, p, model, spec),
        }
        res = {n: np.zeros((16, 2)) for n in names}
        for pid in range(16):
            path = sample_path(model, 0.125, 250, seed=2025, path_id=pid)
            for lv in range(2):
                traj = solve_direct(x, path, spec, STRIDE1)
                for n in names:
                    res[n][pid, lv] = abs(fns[n](traj, path).terminal_residual)
                if lv == 0:
                    path = refine_path(refine_path(path))
        for n in names:
            med = np.median(res[n], axis=0)
            assert med[1] < med[0], n
