import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import snls.dynamics
from snls.dynamics import (CFLError, NoContractionError, ProblemSpec,
                           RegimeError, SolveOptions, StepFlags,
                           BlowupThresholds, chunk_steps, classify, detect_blowup,
                           guarded_abs_power, is_strichartz_pair, picard_solve,
                           propagator_apply, rescaled_coefficients,
                           rescaled_to_X, solve_block, solve_direct,
                           solve_rescaled, step_direct, step_rescaled,
                           transform, y_to_X)
from snls.functionals import hamiltonian, mass
from snls.montecarlo import block_size
from snls.noise import (ConstantProfile, CosineProfile, GaussianProfile, NoiseMode,
                        build_model, eval_W, refine_path, sample_path, step_dW)
from snls.spectral import (TINY_MODULUS, Field, Grid, NumericFailure, boundary_ratio,
                           h1_norm, lp_norm, quadrature)

GRID = Grid(1, 64, 16.0)
XI = GRID.meshes[0]


def gaussian(grid=GRID, amp=1.0, width=1.0):
    r2 = sum(m ** 2 for m in grid.meshes)
    return Field(grid, amp * np.exp(-r2 / (2.0 * width ** 2)))


def det_spec(grid=GRID, alpha=3.0, lam=1, T=1.0):
    return ProblemSpec(grid, build_model([], grid), alpha, lam, T)


class TestClassify:
    @pytest.mark.parametrize("d,alpha,lam,tag,glob", [
        (3, 3.0, -1, "defocusing-subcritical", True),
        (3, 5.0, -1, "energy-critical", False),
        (3, 5.0, 1, "energy-critical", False),
        (2, 3.0, 1, "focusing-mass-critical", False),
        (1, 3.0, 1, "focusing-mass-subcritical", True),
        (1, 5.0, 1, "focusing-mass-critical", False),
        (1, 7.0, 1, "focusing-mass-supercritical-energy-subcritical", False),
        (1, 7.0, -1, "defocusing-subcritical", True),
        (3, 6.0, 1, "out-of-range", False),
        (3, 6.0, -1, "out-of-range", False),
        (2, 9.0, -1, "defocusing-subcritical", True),
    ])
    def test_regime_examples(self, d, alpha, lam, tag, glob):
        regime = classify(d, alpha, lam)
        assert regime.tag == tag
        assert regime.is_global == glob

    def test_exhaustive_scan_against_defining_inequalities(self):
        # oracle: the raw threshold inequalities, re-evaluated directly
        for d in (1, 2, 3):
            a_mass = 1 + 4 / d
            a_energy = 1 + 4 / (d - 2) if d >= 3 else math.inf
            for k in range(11, 71):
                alpha = k / 10.0
                for lam in (1, -1):
                    got = classify(d, alpha, lam)
                    if alpha > a_energy:
                        want = "out-of-range"
                    elif alpha == a_energy:
                        want = "energy-critical"
                    elif lam == -1:
                        want = "defocusing-subcritical"
                    elif alpha < a_mass:
                        want = "focusing-mass-subcritical"
                    elif alpha == a_mass:
                        want = "focusing-mass-critical"
                    else:
                        want = "focusing-mass-supercritical-energy-subcritical"
                    assert got.tag == want, (d, alpha, lam)
                    want_global = (lam == -1 and alpha < a_energy) or \
                                  (lam == 1 and alpha < a_mass)
                    assert got.is_global == want_global, (d, alpha, lam)


class TestStrichartzPairs:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_l2_endpoint(self, d):
        assert is_strichartz_pair(2.0, math.inf, d)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_diagonal_pair(self, d):
        p = 2.0 + 4.0 / d
        assert is_strichartz_pair(p, p, d)

    def test_d2_forbidden_endpoint(self):
        assert not is_strichartz_pair(math.inf, 2.0, 2)
        # and the scaling-valid keller endpoint is excluded in d=2 only
        assert is_strichartz_pair(6.0, 2.0, 3)

    def test_exhaustive_scan_against_defining_relation(self):
        qs = [2.0, 2.5, 3.0, 4.0, 6.0, 8.0, 10.0, 20.0, math.inf]
        ps = list(qs)
        for d in (1, 2, 3):
            for p in ps:
                for q in qs:
                    inv = lambda v: 0.0 if v == math.inf else 1.0 / v
                    scaling = abs(2 * inv(q) - (d / 2 - d * inv(p))) <= 1e-12
                    in_range = p >= 2 and q >= 2
                    if d == 2:
                        in_range = in_range and p != math.inf and q != 2.0
                    assert is_strichartz_pair(p, q, d) == (scaling and in_range), (p, q, d)


class TestGuardedPower:
    def test_zero_input(self):
        vals = np.array([0.0 + 0.0j, 1e-200, 1.0])
        out = guarded_abs_power(vals, 2.0)
        assert out[0] == 0.0 and out[1] == 0.0 and out[2] == pytest.approx(1.0)

    @given(st.floats(min_value=0.1, max_value=3.0),
           st.floats(min_value=0.5, max_value=4.0))
    @settings(max_examples=30, deadline=None)
    def test_matches_plain_power(self, r, expo):
        out = guarded_abs_power(np.array([r + 0j]), expo)
        assert out[0] == pytest.approx(r ** expo, rel=1e-12)

    @staticmethod
    def _random(seed, size=4096):
        rng = np.random.default_rng(seed)
        v = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * 10.0 ** rng.uniform(
            -3.0, 3.0, size)
        v[::7] *= 1e-155                 # below the underflow guard
        v[::11] = 0.0
        return v

    @pytest.mark.parametrize("expo", [2.0, 4.0, 6.0])
    def test_even_powers_match_general_formula(self, expo):
        v = self._random(1)
        v = v[np.abs(v) > 1e-6]
        want = np.abs(v) ** expo
        assert np.max(np.abs(guarded_abs_power(v, expo) - want) / want) <= 2e-15

    @pytest.mark.parametrize("expo", [0.0, 0.5, 4.0 / 3.0, 2.5, -1.5])
    def test_other_powers_keep_the_guarded_formula(self, expo):
        # bit-identical to exp(expo log|v|) on the masked entries and +0 elsewhere
        v = self._random(2)
        r = np.abs(v)
        want = np.zeros_like(r)
        mask = r >= TINY_MODULUS
        want[mask] = np.exp(expo * np.log(r[mask]))
        got = guarded_abs_power(v, expo)
        assert got.tobytes() == want.tobytes()
        assert np.all(got[::7] == 0.0) and not np.signbit(got).any()


class TestStepDirect:
    def test_scalar_sde_closed_form(self):
        # constant mode, dispersive and nonlinear substeps off: the noise
        # factor is the exact solution of dX = X dW - mu X dt
        mu = 0.7 + 0.4j
        model = build_model([NoiseMode(mu, ConstantProfile(1.0))], GRID)
        spec = ProblemSpec(GRID, model, 3.0, 1, 0.5)
        path = sample_path(model, 0.5, 50, seed=9)
        flags = StepFlags(linear=False, nonlinear=False)
        x = gaussian()
        state = x
        mu_damp = model.mu_field[0] + model.mu_tilde_field[0]
        for i in range(path.n_steps):
            state = step_direct(state, i, path, spec, flags)
            t = path.times[i + 1]
            expected = x.values * np.exp(mu * path.betas[i + 1, 0] - mu_damp * t)
            assert np.max(np.abs(state.values - expected)) <= 1e-12 * np.max(
                np.abs(expected))

    def test_conservative_step_preserves_mass(self):
        model = build_model([NoiseMode(1.1j, GaussianProfile(1.0, 3.0, (0, 0, 0)))], GRID)
        spec = ProblemSpec(GRID, model, 3.0, 1, 0.5)
        path = sample_path(model, 0.5, 50, seed=13)
        state = gaussian()
        m0 = mass(state)
        for i in range(10):
            state = step_direct(state, i, path, spec)
            assert mass(state) == pytest.approx(m0, rel=1e-12)


class TestSolveDirect:
    def test_soliton_benchmark(self):
        grid = Grid(1, 512, 40.0)
        xi = grid.meshes[0]
        x = Field(grid, np.sqrt(2.0) / np.cosh(xi))
        spec = det_spec(grid, alpha=3.0, lam=1, T=1.0)
        path = sample_path(spec.model, 1.0, 1000, seed=0)
        traj = solve_direct(x, path, spec, SolveOptions(stride=1000))
        exact = Field(grid, np.sqrt(2.0) / np.cosh(xi) * np.exp(-1j))
        assert lp_norm(traj.snapshots[-1] - exact, 2) <= 1e-4

    def test_deterministic_hamiltonian_drift(self):
        grid = Grid(1, 256, 32.0)
        x = gaussian(grid)
        spec = det_spec(grid, alpha=3.0, lam=-1, T=1.0)
        path = sample_path(spec.model, 1.0, 10_000, seed=0)   # dt = 1e-4
        traj = solve_direct(x, path, spec, SolveOptions(record_snapshots=False))
        H = traj.diagnostic("hamiltonian")
        assert np.max(np.abs(H - H[0])) / abs(H[0]) <= 1e-6

    def test_zero_data_stays_zero(self):
        spec = det_spec()
        path = sample_path(spec.model, 1.0, 100, seed=0)
        traj = solve_direct(Field(GRID, np.zeros(GRID.shape)), path, spec)
        assert all(np.all(s.values == 0.0) for s in traj.snapshots)
        assert traj.status.kind == "finished"

    def test_gauge_covariance(self):
        model = build_model([NoiseMode(0.5 + 0.2j, GaussianProfile(1.0, 3.0, (0, 0, 0)))], GRID)
        spec = ProblemSpec(GRID, model, 3.0, 1, 0.2)
        path = sample_path(model, 0.2, 100, seed=3)
        x = gaussian()
        theta = 0.83
        a = solve_direct(Field(GRID, np.exp(1j * theta) * x.values), path, spec)
        b = solve_direct(x, path, spec)
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert np.max(np.abs(sa.values - np.exp(1j * theta) * sb.values)) <= 1e-13 * max(
                1.0, np.max(np.abs(sb.values)))

    def test_out_of_range_regime_rejected(self):
        grid = Grid(3, 8, 8.0)
        spec = ProblemSpec(grid, build_model([], grid), 6.0, 1, 1.0)
        path = sample_path(spec.model, 1.0, 10, seed=0)
        with pytest.raises(RegimeError):
            solve_direct(gaussian(grid), path, spec)

    def test_time_reversal_free_flow(self):
        # dispersive multiplier applied forward then backward returns the data
        grid = Grid(1, 128, 16.0)
        u = gaussian(grid).values
        T = 0.7
        mult = np.exp(1j * grid.k_squared * T)
        there = np.fft.ifftn(mult * np.fft.fftn(u))
        back = np.fft.ifftn(np.conj(mult) * np.fft.fftn(there))
        assert np.max(np.abs(back - u)) <= 1e-10


def strang_reference(x, path, spec):
    """The two-factor Strang step as a loop of single fields: each half-phase
    computes its own factor from the state it multiplies."""
    grid, dt = spec.grid, path.dt
    lin = np.exp(1j * grid.k_squared * dt)
    damp = spec.model.damping * dt

    def half_phase(v):
        return v * np.exp(-0.5j * spec.lam * dt * np.abs(v) ** (spec.alpha - 1.0))

    states = [x.values]
    for i in range(path.n_steps):
        v = np.fft.ifftn(lin * np.fft.fftn(half_phase(states[-1])))
        states.append(half_phase(v * np.exp(step_dW(spec.model, path, i) - damp)))
    return [Field(grid, v) for v in states]


class TestCarriedPhase:
    """The direct stepper keeps each step's trailing half-phase factor as the
    next step's leading one."""

    @pytest.mark.parametrize("alpha", [3.0, 7.0 / 3.0])
    def test_phase_flow_is_exact(self, alpha):
        # nonlinear substep alone: X(T) = x exp(-i lam |x|^{alpha-1} T)
        spec = det_spec(alpha=alpha, lam=1, T=0.5)
        path = sample_path(spec.model, 0.5, 500, seed=0)
        x = Field(GRID, gaussian(amp=1.5).values * np.exp(0.3j * XI))
        opts = SolveOptions(stride=500, flags=StepFlags(linear=False, noise=False))
        got = solve_direct(x, path, spec, opts).snapshots[-1].values
        want = x.values * np.exp(-1j * np.abs(x.values) ** (alpha - 1.0) * 0.5)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("alpha", [3.0, 7.0 / 3.0])
    @pytest.mark.parametrize("lam", [1, -1])
    @pytest.mark.parametrize("dt", [5e-4, 0.37])
    def test_phase_factor_bits_match_the_complex_exp(self, alpha, lam, dt):
        spec = det_spec(alpha=alpha, lam=lam, T=dt)
        stepper = snls.dynamics._DirectStepper(spec, [sample_path(spec.model, dt, 1, seed=0)],
                                               StepFlags())
        rng = np.random.default_rng(3)
        unit = np.exp(2j * np.pi * rng.random(512))
        v = np.concatenate([
            np.zeros(4, dtype=complex), [-0.0 + 0.0j, 0.0 - 0.0j],
            unit[:64] * TINY_MODULUS * 10.0 ** rng.uniform(-10.0, 0.0, 64),   # below the guard
            unit[64:256] * rng.uniform(0.0, 3.0, 192),                       # O(1) moduli
            unit[256:] * 10.0 ** rng.uniform(2.0, 6.0, 256)])                # |theta| >> 2 pi
        power = guarded_abs_power(v, alpha - 1.0)
        assert np.max(power) * 0.5 * dt > 100.0 * np.pi
        want = np.exp(-1j * lam * power * (0.5 * dt))
        assert stepper._phase(v).view(np.uint64).tobytes() == want.view(np.uint64).tobytes()

    @pytest.mark.parametrize("alpha", [3.0, 2.5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state(self, alpha, bad):
        # NaN passes through quietly; an infinite modulus gives two "invalid
        # value" warnings from the phase (as the complex exp form did), and
        # the first is an error under the snls warning rule
        model = build_model([NoiseMode(1.0, GaussianProfile(1.0, 3.0, (0, 0, 0)))], GRID)
        spec = ProblemSpec(GRID, model, alpha, 1, 0.1)
        path = sample_path(model, 0.1, 10, seed=1)
        v = gaussian().values.copy()
        v[3] = bad
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(NumericFailure):
                step_direct(Field(GRID, v), 0, path, spec)
        messages = [str(w.message) for w in seen if w.category is RuntimeWarning]
        assert len(messages) == 2 * (bad == np.inf)
        assert all(m.startswith("invalid value encountered") for m in messages)
        with warnings.catch_warnings():
            warnings.filterwarnings("error", category=RuntimeWarning, module=r"snls\..*")
            with pytest.raises(RuntimeWarning if bad == np.inf else NumericFailure):
                step_direct(Field(GRID, v), 0, path, spec)

    def test_matches_two_factor_strang_reference(self):
        # the ensemble-1d benchmark problem, one path over 1000 steps
        grid = Grid(1, 256, 32.0)
        model = build_model([NoiseMode(1.0, GaussianProfile(1.0, 4.0, (0, 0, 0)))], grid)
        spec = ProblemSpec(grid, model, 3.0, -1, 0.5)
        path = sample_path(model, 0.5, 1000, seed=3)
        traj = solve_direct(gaussian(grid), path, spec, SolveOptions(record_snapshots=False))
        states = strang_reference(gaussian(grid), path, spec)
        want = {"mass": [mass(u) for u in states],
                "hamiltonian": [hamiltonian(u, 3.0, -1) for u in states],
                "h1": [h1_norm(u) for u in states],
                "lp": [lp_norm(u, 4.0) for u in states]}
        for name, series in want.items():
            series = np.array(series)
            err = np.max(np.abs(traj.diagnostic(name) - series))
            assert err <= 1e-13 * np.max(np.abs(series)), name
        # the boundary ratio is already relative to the peak modulus
        ratios = np.array([boundary_ratio(u) for u in states])
        assert np.max(np.abs(traj.diagnostic("boundary") - ratios)) <= 1e-13


class TestSolveBlock:
    @pytest.mark.parametrize("scheme", ["direct", "rescaled"])
    @pytest.mark.parametrize("mus", [(1.0,), (0.6 + 0.5j,), (1.0, 0.4, 0.3)])
    @pytest.mark.parametrize("grid", [Grid(1, 256, 32.0), Grid(2, 32, 16.0)])
    def test_each_path_matches_its_single_path_solve(self, grid, mus, scheme):
        # every block operation acts on each row alone, so a path's bits
        # do not depend on its block-mates
        model = build_model([NoiseMode(mu, GaussianProfile(1.0, 2.0 + j, (j, 0, 0)))
                             for j, mu in enumerate(mus)], grid)
        spec = ProblemSpec(grid, model, 3.0, -1, 0.02)
        paths = [sample_path(model, 0.02, 10, seed=5, path_id=i)
                 for i in range(block_size(grid))]
        opts = SolveOptions(stride=3)
        solo = solve_direct if scheme == "direct" else solve_rescaled
        block = solve_block(gaussian(grid), paths, spec, opts, scheme)
        assert len(block) == len(paths)
        for path, got in zip(paths, block):
            want = solo(gaussian(grid), path, spec, opts)
            assert got.status == want.status
            assert np.array_equal(got.times, want.times)
            assert got.snapshot_indices == want.snapshot_indices == [0, 3, 6, 9]
            for name in want.diagnostics:
                assert np.array_equal(got.diagnostic(name), want.diagnostic(name))
            for a, b in zip(got.snapshots, want.snapshots):
                assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("scheme", ["direct", "rescaled"])
    def test_block_invariance_at_the_elision_size(self, scheme):
        # one (1, 128, 128) complex row is 256 KiB, the size at which NumPy
        # may evaluate `a * tmp` in place as `tmp *= a`
        grid = Grid(2, 128, 24.0)
        model = build_model([NoiseMode(0.8 + 0.4j, GaussianProfile(1.0, 3.0, (0, 0, 0)))], grid)
        spec = ProblemSpec(grid, model, 3.0, -1, 5e-3)
        paths = [sample_path(model, 5e-3, 5, seed=7, path_id=i) for i in range(2)]
        opts = SolveOptions(stride=1)
        block = solve_block(gaussian(grid), paths, spec, opts, scheme)
        for path, got in zip(paths, block):
            want = solve_block(gaussian(grid), [path], spec, opts, scheme)[0]
            for name in want.diagnostics:
                assert got.diagnostic(name).tobytes() == want.diagnostic(name).tobytes()
            for a, b in zip(got.snapshots, want.snapshots):
                assert a.values.tobytes() == b.values.tobytes()

    def test_paths_must_share_a_time_grid(self):
        spec = det_spec(T=0.5)
        paths = [sample_path(spec.model, 0.5, 10, seed=0),
                 sample_path(spec.model, 0.5, 20, seed=0)]
        with pytest.raises(ValueError):
            solve_block(gaussian(), paths, spec)


def chunk_case(name):
    """(spec, x, paths, options, status kinds) of one chunk-invariance case:
    two paths over 200 steps, snapshots at every second step."""
    grid = Grid(3, 8, 8.0) if name == "energy-critical" else GRID
    mus = {"complex": (0.6 + 0.5j,), "three-mode": (1.0, 0.4, 0.3)}.get(name, (1.0,))
    model = build_model([NoiseMode(mu, GaussianProfile(0.5 if name == "blowup" else 1.0,
                                                       2.0 + j, (j, 0, 0)))
                         for j, mu in enumerate(mus)], grid)
    T, x, thresholds, kinds = 0.1, gaussian(grid), BlowupThresholds(), {"finished"}
    if name == "blowup":            # focusing quintic, tight H1 cap
        T, x, kinds = 0.05, gaussian(grid, amp=3.0), {"blowup"}
        thresholds = BlowupThresholds(h1_factor=1.5)
    if name == "energy-critical":   # d = 3, alpha = 5: the space-time power accumulates
        thresholds, kinds = BlowupThresholds(spacetime_factor=0.3), {"blowup"}
    spec = ProblemSpec(grid, model, 5.0 if name in ("blowup", "energy-critical") else 3.0,
                       1 if name == "blowup" else -1, T)
    paths = [sample_path(model, T, 200, seed=5, path_id=i) for i in range(2)]
    if name == "non-finite":        # a huge increment overflows the noise factor
        for path, step in zip(paths, (49, 101)):
            path.increments[step - 1] = 1e3
        kinds = {"numeric-failure"}
    return spec, x, paths, SolveOptions(stride=2, thresholds=thresholds), kinds


class TestChunkInvariance:
    """solve_block's outputs do not depend on the steps per chunk."""

    @pytest.mark.parametrize("scheme", ["direct", "rescaled"])
    @pytest.mark.parametrize("case", ["real", "complex", "three-mode", "blowup",
                                      "non-finite", "energy-critical"])
    def test_bit_identical_at_every_chunk_length(self, monkeypatch, case, scheme):
        spec, x, paths, opts, kinds = chunk_case(case)
        grid, n_paths = spec.grid, len(paths)
        runs = {}
        for K in (1, 3, chunk_steps(n_paths, grid)):
            monkeypatch.setattr(snls.dynamics, "BLOCK_POINTS", K * n_paths * grid.n ** grid.d)
            assert chunk_steps(n_paths, grid) == K
            runs[K] = solve_block(x, paths, spec, opts, scheme)
        want = runs.pop(1)
        assert {t.status.kind for t in want} == kinds
        # replaying the stored diagnostics finds each path's own status
        assert [detect_blowup(t, spec, opts.thresholds) for t in want] == [t.status for t in want]
        if case == "energy-critical":
            assert {t.status.reason for t in want} == {"critical-spacetime-threshold"}
        stops = [len(t.times) - 1 for t in want]
        for K, got in runs.items():
            if kinds != {"finished"}:   # some path stops inside a chunk, not at its end
                assert any(s % K for s in stops), (K, stops)
            for a, b in zip(got, want):
                assert a.status == b.status
                assert a.times.tobytes() == b.times.tobytes()
                assert a.snapshot_indices == b.snapshot_indices
                for name in b.diagnostics:
                    assert a.diagnostic(name).tobytes() == b.diagnostic(name).tobytes()
                for p, q in zip(a.snapshots, b.snapshots):
                    assert p.values.tobytes() == q.values.tobytes()

    @pytest.mark.parametrize("scheme", ["direct", "rescaled"])
    def test_a_stopped_path_leaves_the_block(self, monkeypatch, scheme):
        # with its kept phase row and its path coefficients; the survivor's
        # bits are its single-path solve's
        spec, x, paths, opts, _ = chunk_case("non-finite")
        diag_rows, stacks = snls.dynamics._diag_rows, []

        def recording(grid, v, *args):
            stacks.append(v.copy())
            return diag_rows(grid, v, *args)

        monkeypatch.setattr(snls.dynamics, "_diag_rows", recording)
        monkeypatch.setattr(snls.dynamics, "BLOCK_POINTS", len(paths) * GRID.n)
        first, second = solve_block(x, paths, spec, opts, scheme)
        stop = len(first.times) - 1     # stacks[i] holds the states after step i
        assert first.status.kind == "numeric-failure" and stop + 1 < len(stacks)
        assert [s.shape[-2] for s in stacks] == [2] * (stop + 1) + [1] * (len(stacks) - stop - 1)
        solo = solve_block(x, paths[1:], spec, opts, scheme)[0]
        assert second.status == solo.status and second.status.kind == "numeric-failure"
        for name in solo.diagnostics:
            assert second.diagnostic(name).tobytes() == solo.diagnostic(name).tobytes()
        for p, q in zip(second.snapshots, solo.snapshots, strict=True):
            assert p.values.tobytes() == q.values.tobytes()


class TestRescaledCoefficients:
    def test_zero_time(self):
        model = build_model([NoiseMode(1.0, GaussianProfile(1.0, 3.0, (0, 0, 0)))], GRID)
        path = sample_path(model, 0.5, 20, seed=1)
        b, c = rescaled_coefficients(model, path, 0)
        for comp in b:
            assert np.max(np.abs(comp.values)) == 0.0
        assert np.max(np.abs(c.values + 1j * model.damping)) <= 1e-15

    def test_constant_profile_has_no_transport(self):
        model = build_model([NoiseMode(1.0, ConstantProfile(1.0))], GRID)
        path = sample_path(model, 0.5, 20, seed=1)
        for idx in (5, 20):
            b, c = rescaled_coefficients(model, path, idx)
            for comp in b:
                assert np.max(np.abs(comp.values)) <= 1e-13
            assert np.max(np.abs(c.values + 1j * model.damping)) <= 1e-12

    MODES = {
        "imaginary": [NoiseMode(0.8j, GaussianProfile(1.0, 3.0, (0, 0, 0)))],
        "real": [NoiseMode(1.0, GaussianProfile(1.0, 3.0, (0, 0, 0)))],
        "complex": [NoiseMode(0.6 + 0.5j, GaussianProfile(1.0, 3.0, (0, 0, 0)))],
        "two": [NoiseMode(0.8j, GaussianProfile(1.0, 2.0, (1.0, -0.5, 0))),
                NoiseMode(0.5 - 0.2j, CosineProfile(0.7, (2, 1, 0)))],
    }

    @pytest.mark.parametrize("modes", list(MODES))
    @pytest.mark.parametrize("grid", [GRID, Grid(2, 32, 16.0)], ids=["d1", "d2"])
    def test_conservative_damping_free(self, grid, modes):
        # reference: transforms of W itself; the coefficients are mode sums of
        # the transformed phi_j, so they agree to roundoff, relative to the
        # largest entry; c carries no damping term for imaginary amplitudes
        model = build_model(self.MODES[modes], grid)
        path = sample_path(model, 0.5, 20, seed=5)
        b, c = rescaled_coefficients(model, path, 10)
        what = np.fft.fftn(eval_W(model, path, 10).values)
        grads = [np.fft.ifftn(1j * km * what) for km in grid.k_meshes]
        expected = sum(g ** 2 for g in grads) + np.fft.ifftn(-grid.k_squared * what)
        expected = expected - 1j * model.damping
        assert len(b) == grid.d
        for got, want in [(c.values, expected)] + [(ax.values / 2.0, g) for ax, g in zip(b, grads)]:
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        if model.conservative:
            assert np.max(np.abs(c.values - expected)) <= 1e-13


class TestStepRescaled:
    def test_cfl_guard(self):
        grid = Grid(1, 512, 16.0)
        spec = det_spec(grid, T=1.0)
        path = sample_path(spec.model, 1.0, 100, seed=0)  # dt 0.01, kmax^2 ~ 1e4
        with pytest.raises(CFLError):
            step_rescaled(gaussian(grid), 0, path, spec)

    def test_zero_input(self):
        spec = det_spec(T=0.5)
        path = sample_path(spec.model, 0.5, 500, seed=0)
        out = step_rescaled(Field(GRID, np.zeros(GRID.shape)), 0, path, spec)
        assert np.all(out.values == 0.0)

    def test_matches_direct_deterministically(self):
        grid = Grid(1, 256, 32.0)
        xi = grid.meshes[0]
        x = Field(grid, np.sqrt(2.0) / np.cosh(xi))
        spec = det_spec(grid, alpha=3.0, lam=1, T=0.5)
        path = sample_path(spec.model, 0.5, 1000, seed=0)
        a = solve_direct(x, path, spec, SolveOptions(stride=1000))
        b = solve_rescaled(x, path, spec, SolveOptions(stride=1000))
        assert lp_norm(a.snapshots[-1] - b.snapshots[-1], 2) <= 1e-6

    def test_lambda_disabled_constant_mode_closed_form(self):
        # b = 0 for a constant profile; with the nonlinearity off the full
        # solution is the free group times exp(-i int c dt), c constant
        mu = 0.5 + 0.3j
        model = build_model([NoiseMode(mu, ConstantProfile(1.0))], GRID)
        spec = ProblemSpec(GRID, model, 3.0, 1, 0.25)
        path = sample_path(model, 0.25, 250, seed=7)
        x = gaussian()
        traj = solve_rescaled(x, path, spec,
                              SolveOptions(stride=250, flags=StepFlags(nonlinear=False)))
        c0 = complex(-1j * (model.mu_field[0] + model.mu_tilde_field[0]))
        free = np.fft.ifftn(np.exp(1j * GRID.k_squared * 0.25) * np.fft.fftn(x.values))
        expected = free * np.exp(-1j * c0 * 0.25)
        got = traj.snapshots[-1].values
        assert np.max(np.abs(got - expected)) <= 1e-8


class TestTransform:
    def test_roundtrip(self):
        model = build_model([NoiseMode(0.6 + 0.2j, GaussianProfile(1.0, 3.0, (0, 0, 0)))], GRID)
        path = sample_path(model, 0.5, 20, seed=2)
        W = eval_W(model, path, 13)
        u = gaussian()
        back = transform(transform(u, W, "to_X"), W, "to_y")
        assert np.max(np.abs(back.values - u.values)) <= 1e-13

    def test_zero_W_is_identity(self):
        W = Field(GRID, np.zeros(GRID.shape))
        u = gaussian()
        assert np.array_equal(transform(u, W, "to_X").values, u.values)

    def test_conservative_preserves_modulus(self):
        model = build_model([NoiseMode(1.2j, GaussianProfile(1.0, 3.0, (0, 0, 0)))], GRID)
        path = sample_path(model, 0.5, 20, seed=2)
        W = eval_W(model, path, 20)
        u = gaussian()
        out = transform(u, W, "to_X")
        assert np.max(np.abs(np.abs(out.values) - np.abs(u.values))) <= 1e-13

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            transform(gaussian(), Field(GRID, np.zeros(GRID.shape)), "sideways")

    @pytest.mark.parametrize("n", [64, 128])   # one state below and at 256 KiB
    def test_stacked_y_to_X_rounds_as_one_state(self, n):
        # NumPy evaluates y * exp(W) as exp(W) *= y from 256 KiB (four 64x64
        # states, one 128x128 state), and the complex product rounds differently
        grid = Grid(2, n, 32.0)
        model = build_model([NoiseMode(0.6 + 0.5j, GaussianProfile(1.0, 3.0, (0, 0, 0)))], grid)
        path = sample_path(model, 0.5, 4, seed=2)
        rng = np.random.default_rng(1)
        y = rng.standard_normal((4, *grid.shape)) + 1j * rng.standard_normal((4, *grid.shape))
        X = y_to_X(model, path.betas[:4], y)
        for i in range(4):
            assert np.array_equal(X[i], transform(Field(grid, y[i]), eval_W(model, path, i),
                                                  "to_X").values)


class TestRescalingEquivalence:
    def test_coupled_refinement_rate(self):
        grid = Grid(1, 128, 16.0)
        x = gaussian(grid)
        model = build_model([NoiseMode(1.0, GaussianProfile(1.0, 3.0, (0, 0, 0)))], grid)
        spec = ProblemSpec(grid, model, 3.0, -1, 0.25)
        path = sample_path(model, 0.25, 250, seed=4)
        sups = []
        for lv in range(3):
            opts = SolveOptions(stride=1)
            td = solve_direct(x, path, spec, opts)
            ty = solve_rescaled(x, path, spec, opts)
            Xs = rescaled_to_X(ty, path, model)
            sups.append(max(lp_norm(a - b, 2) for a, b in zip(td.snapshots, Xs)))
            if lv < 2:
                path = refine_path(path)
        rates = [np.log2(sups[i] / sups[i + 1]) for i in range(2)]
        assert np.median(rates) >= 0.8


class TestRescaledToXMemory:
    def test_peak_is_its_output_plus_a_few_rows(self):
        # a stride-1 trajectory converts one snapshot at a time: the peak may
        # exceed the kept X rows by a few rows, never by a W stack of them all
        grid = Grid(1, 256, 32.0)
        model = build_model([NoiseMode(0.6 + 0.5j, GaussianProfile(1.0, 4.0, (0, 0, 0)))], grid)
        spec = ProblemSpec(grid, model, 3.0, -1, 1.0)
        path = sample_path(model, 1.0, 2000, seed=3)
        traj = solve_rescaled(gaussian(grid), path, spec, SolveOptions(stride=1))
        assert len(traj.snapshots) == 2001
        path.betas    # the path caches its Brownian values: computed before tracing
        row = grid.n * 16    # bytes of one complex snapshot
        tracemalloc.start()
        try:
            Xs = rescaled_to_X(traj, path, model)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current >= len(Xs) * row
        assert peak - current <= 4 * row


class TestPropagator:
    def test_identity_at_equal_times(self):
        model = build_model([NoiseMode(0.5, GaussianProfile(1.0, 3.0, (0, 0, 0)))], GRID)
        path = sample_path(model, 0.5, 500, seed=6)
        u = gaussian()
        out = propagator_apply(u, 7, 7, path, model)
        assert np.array_equal(out.values, u.values)

    def test_cocycle_property(self):
        model = build_model([NoiseMode(0.8, GaussianProfile(1.0, 3.0, (0, 0, 0)))], GRID)
        path = sample_path(model, 0.5, 500, seed=8)
        u = gaussian()
        through = propagator_apply(u, 0, 400, path, model)
        stop = propagator_apply(u, 0, 150, path, model)
        composed = propagator_apply(stop, 150, 400, path, model)
        assert lp_norm(composed - through, 2) <= 1e-8

    def test_free_group_plane_wave_phase(self):
        grid = Grid(1, 32, 2.0 * np.pi)
        model = build_model([], grid)
        path = sample_path(model, 0.05, 20, seed=0)    # dt = 2.5e-3
        xi = grid.meshes[0]
        u = Field(grid, np.exp(1j * xi))                # |k| = 1
        out = propagator_apply(u, 0, 20, path, model)
        expected = np.exp(1j * 0.05) * u.values         # e^{i |k|^2 (t-s)}
        assert np.max(np.abs(out.values - expected)) <= 1e-12


def picard_rows_reference(x, path, spec, K, tol=1e-10, max_iter=50):
    """The fixed-window Picard loop with one array per grid time, as lists."""
    grid, dt = spec.grid, path.dt

    def step(w, i):
        return propagator_apply(Field(grid, w), i, i + 1, path, spec.model).values

    u = [x.values]
    for i in range(K):
        u.append(step(u[i], i))
    envs = [np.exp((spec.alpha - 1.0) * eval_W(spec.model, path, i).values.real)
            if spec.model.n_modes else 1.0 for i in range(K + 1)]
    y, distances = list(u), []
    for _ in range(max_iter):
        f = [envs[i] * guarded_abs_power(y[i], spec.alpha - 1.0) * y[i] for i in range(K + 1)]
        new, v = [u[0]], np.zeros_like(u[0])
        for i in range(K):
            v = step(v + (0.5 * dt) * f[i], i) + (0.5 * dt) * f[i + 1]
            new.append(u[i + 1] - 1j * spec.lam * v)
        diff = np.stack(new) - np.stack(y)
        distances.append(float(np.sqrt(quadrature(grid, diff.real ** 2 + diff.imag ** 2)).max()))
        y = new
        if distances[-1] < tol:
            break
    return y[K], distances


class TestPicard:
    @pytest.mark.parametrize("mus", [(), (0.6 + 0.5j, 0.3j)], ids=["deterministic", "two-modes"])
    def test_matches_row_list_reference(self, mus):
        grid = Grid(1, 256, 32.0)
        model = build_model([NoiseMode(mu, GaussianProfile(1.0, 2.0 + j, (j, 0, 0)))
                             for j, mu in enumerate(mus)], grid)
        spec = ProblemSpec(grid, model, 3.0, 1, 0.1)
        path = sample_path(model, 0.1, 200, seed=4)
        x = gaussian(grid, amp=0.5)
        y, diag = picard_solve(x, path, spec, window_policy="fixed", tau=0.05)
        want_y, want_distances = picard_rows_reference(x, path, spec, K=100)
        assert y.values.tobytes() == want_y.tobytes()
        assert diag.distances == want_distances

    def test_zero_data_one_iteration(self):
        spec = det_spec(T=0.1)
        path = sample_path(spec.model, 0.1, 100, seed=0)
        y, diag = picard_solve(Field(GRID, np.zeros(GRID.shape)), path, spec)
        assert np.all(y.values == 0.0)
        assert diag.iterations == 1

    def test_matches_direct_small_data(self):
        grid = Grid(1, 256, 32.0)
        x = gaussian(grid, amp=0.1)
        spec = det_spec(grid, alpha=3.0, lam=1, T=0.1)
        path = sample_path(spec.model, 0.1, 200, seed=0)
        y, diag = picard_solve(x, path, spec, tau=0.1)
        traj = solve_direct(x, path, spec, SolveOptions(stride=200))
        assert lp_norm(y - traj.snapshots[-1], 2) <= 1e-6
        assert diag.contraction_factor <= 0.5

    def test_contraction_enforced_on_accepted_windows(self):
        grid = Grid(1, 128, 16.0)
        x = gaussian(grid, amp=1.5)
        spec = det_spec(grid, alpha=3.0, lam=1, T=0.5)
        path = sample_path(spec.model, 0.5, 500, seed=0)
        _, diag = picard_solve(x, path, spec)
        assert diag.contraction_factor <= 0.5
        for d_prev, d_next in zip(diag.distances, diag.distances[1:]):
            if d_prev > 1e-9:
                assert d_next <= 0.5 * d_prev

    def test_no_contraction_error_for_huge_data(self):
        grid = Grid(1, 128, 16.0)
        x = gaussian(grid, amp=40.0)
        spec = det_spec(grid, alpha=3.0, lam=1, T=0.5)
        path = sample_path(spec.model, 0.5, 500, seed=0)
        with pytest.raises(NoContractionError):
            picard_solve(x, path, spec)


class TestBlowup:
    def test_negative_energy_quintic_triggers(self):
        grid = Grid(1, 512, 32.0)
        x = gaussian(grid, amp=3.0)
        assert hamiltonian(x, 5.0, 1) < 0
        spec = ProblemSpec(grid, build_model([], grid), 5.0, 1, 1.0)
        path = sample_path(spec.model, 1.0, 2500, seed=0)
        opts = SolveOptions(record_snapshots=False,
                            thresholds=BlowupThresholds(h1_factor=10.0))
        traj = solve_direct(x, path, spec, opts)
        assert traj.status.kind == "blowup"
        assert traj.status.reason == "h1-threshold"
        assert traj.status.t < 1.0
        # replaying the stored diagnostics finds the same crossing
        replay = detect_blowup(traj, spec, opts.thresholds)
        assert replay.kind == "blowup"
        assert replay.t == traj.status.t

    def test_defocusing_never_triggers(self):
        grid = Grid(1, 128, 16.0)
        x = gaussian(grid)
        spec = ProblemSpec(grid, build_model([], grid), 3.0, -1, 1.0)
        path = sample_path(spec.model, 1.0, 1000, seed=0)
        traj = solve_direct(x, path, spec, SolveOptions(record_snapshots=False))
        assert traj.status.kind == "finished"

    def test_zero_data_never_triggers(self):
        spec = det_spec(T=0.5)
        path = sample_path(spec.model, 0.5, 100, seed=0)
        traj = solve_direct(Field(GRID, np.zeros(GRID.shape)), path, spec)
        assert traj.status.kind == "finished"

    def test_replay_of_one_time_point_is_finished(self):
        spec = det_spec(T=0.5)
        path = sample_path(spec.model, 0.5, 100, seed=0)
        traj = solve_direct(gaussian(), path, spec, SolveOptions(record_snapshots=False))
        traj.times = traj.times[:1]
        traj.diagnostics = {k: s[:1] for k, s in traj.diagnostics.items()}
        assert detect_blowup(traj, spec).kind == "finished"
        assert detect_blowup(traj, spec).t == 0.0


class TestSelfConvergenceOrders:
    def _terminal(self, solver, x, path, spec):
        traj = solver(x, path, spec, SolveOptions(stride=path.n_steps))
        return traj.snapshots[-1]

    def test_strang_order_at_least_1_8(self):
        grid = Grid(1, 128, 16.0)
        x = gaussian(grid)
        spec = det_spec(grid, alpha=3.0, lam=1, T=0.25)
        finals = []
        for steps in (125, 250, 500, 1000):
            path = sample_path(spec.model, 0.25, steps, seed=0)
            finals.append(self._terminal(solve_direct, x, path, spec))
        errs = [lp_norm(a - finals[-1], 2) for a in finals[:-1]]
        order = np.polyfit(range(3), np.log2(errs), 1)[0]
        assert -order >= 1.8

    def test_rk4_order_at_least_3_5(self):
        grid = Grid(1, 64, 16.0)
        x = gaussian(grid)
        spec = det_spec(grid, alpha=3.0, lam=1, T=0.25)
        finals = []
        for steps in (50, 100, 200, 400):
            path = sample_path(spec.model, 0.25, steps, seed=0)
            finals.append(self._terminal(solve_rescaled, x, path, spec))
        errs = [lp_norm(a - finals[-1], 2) for a in finals[:-1]]
        order = np.polyfit(range(3), np.log2(errs), 1)[0]
        assert -order >= 3.5
