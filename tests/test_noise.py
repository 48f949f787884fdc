import numpy as np
import pytest

from snls.dynamics import ProblemSpec, rescaled_coefficients, solve_direct
from snls.noise import (ConstantProfile, CosineProfile, GaussianProfile,
                        NoiseMode, _mode_sum, build_model, eval_W, refine_path,
                        sample_path, step_dW)
from snls.spectral import Field, Grid, fft_trailing

GRID = Grid(1, 64, 16.0)


def single_mode_model(mu, profile=None, grid=GRID):
    return build_model([NoiseMode(mu, profile or GaussianProfile(1.0, 3.0, (0, 0, 0)))], grid)


class TestBuildModel:
    def test_empty_model_is_deterministic_limit(self):
        model = build_model([], GRID)
        assert model.n_modes == 0
        assert np.all(model.mu_field == 0.0)
        assert np.all(model.mu_tilde_field == 0.0)
        assert model.conservative

    def test_single_unit_constant_mode(self):
        model = single_mode_model(1.0 + 0j, ConstantProfile(1.0))
        assert np.allclose(model.mu_field, 0.5, atol=0)
        assert np.allclose(model.mu_tilde_field, 0.5, atol=0)
        assert not model.conservative

    @pytest.mark.parametrize("m", [0.3, 1.0, 2.5])
    def test_imaginary_amplitude_gives_opposite_mu_tilde(self, m):
        # mu = i*m:  mu_tilde = 1/2 (i m)^2 e^2 = -1/2 m^2 e^2 = -mu, exactly
        model = single_mode_model(1j * m)
        assert np.array_equal(model.mu_tilde_field.real, -model.mu_field)
        assert np.all(model.mu_tilde_field.imag == 0.0)
        assert np.all(model.damping == 0.0)
        assert model.conservative

    def test_real_amplitude_gives_equal_mu_tilde(self):
        model = single_mode_model(0.8 + 0j)
        assert np.array_equal(model.mu_tilde_field.real, model.mu_field)

    def test_mu_field_nonnegative(self):
        model = build_model(
            [NoiseMode(0.5 + 0.5j, GaussianProfile(1.0, 2.0, (1.0, 0, 0))),
             NoiseMode(-0.3 + 1j, CosineProfile(0.5, (2, 0, 0)))], GRID)
        assert np.all(model.mu_field >= 0.0)

    def test_rejects_nonfinite_profile(self):
        class BadProfile:
            def evaluate(self, grid):
                out = np.zeros(grid.shape)
                out[0] = np.nan
                return out

        with pytest.raises(ValueError):
            build_model([NoiseMode(1.0, BadProfile())], GRID)

    def test_cosine_profile_periodic(self):
        prof = CosineProfile(1.0, (3, 0, 0))
        e = prof.evaluate(GRID)
        # on-grid cosine: spectral content only at modes +-3
        ehat = np.fft.fft(e)
        live = np.zeros_like(ehat)
        live[3], live[-3] = ehat[3], ehat[-3]
        assert np.max(np.abs(ehat - live)) <= 1e-10 * np.max(np.abs(ehat))


class TestSamplePath:
    def test_determinism(self):
        model = single_mode_model(1.0)
        a = sample_path(model, 0.5, 100, seed=5)
        b = sample_path(model, 0.5, 100, seed=5)
        assert np.array_equal(a.increments, b.increments)

    def test_distinct_paths_differ(self):
        model = single_mode_model(1.0)
        a = sample_path(model, 0.5, 100, seed=5, path_id=0)
        b = sample_path(model, 0.5, 100, seed=5, path_id=1)
        assert not np.array_equal(a.increments, b.increments)

    def test_variance_law_of_large_numbers(self):
        model = single_mode_model(1.0)
        path = sample_path(model, 1.0, 100_000, seed=17)
        ratio = np.mean(path.increments[:, 0] ** 2) / path.dt
        assert 0.99 <= ratio <= 1.01

    def test_mode_independence(self):
        model = build_model(
            [NoiseMode(1.0, ConstantProfile(1.0)), NoiseMode(1.0, ConstantProfile(0.5))],
            GRID)
        path = sample_path(model, 1.0, 100_000, seed=23)
        a, b = path.increments[:, 0], path.increments[:, 1]
        corr = np.mean(a * b) / (np.std(a) * np.std(b))
        assert abs(corr) <= 3.0 / np.sqrt(100_000)

    def test_betas_start_at_zero(self):
        model = single_mode_model(1.0)
        path = sample_path(model, 0.5, 64, seed=2)
        assert np.all(path.betas[0] == 0.0)

    @pytest.mark.parametrize("T,M", [(0.0, 10), (-1.0, 10), (1.0, 0)])
    def test_rejects_bad_arguments(self, T, M):
        model = single_mode_model(1.0)
        with pytest.raises(ValueError):
            sample_path(model, T, M, seed=0)


class TestRefinePath:
    def test_coarse_sum_consistency(self):
        model = single_mode_model(1.0)
        path = sample_path(model, 0.5, 128, seed=31)
        fine = refine_path(path)
        recon = fine.increments[0::2] + fine.increments[1::2]
        assert np.max(np.abs(recon - path.increments)) <= 1e-15
        assert fine.level == 1
        assert fine.n_steps == 2 * path.n_steps
        assert fine.dt == pytest.approx(path.dt / 2, rel=1e-14)

    def test_double_refinement_preserves_level0(self):
        model = single_mode_model(1.0)
        path = sample_path(model, 0.5, 64, seed=37)
        ff = refine_path(refine_path(path))
        recon = ff.increments.reshape(64, 4, ff.n_modes).sum(axis=1)
        assert np.max(np.abs(recon - path.increments)) <= 1e-15

    def test_refined_variance(self):
        model = single_mode_model(1.0)
        path = sample_path(model, 1.0, 50_000, seed=41)
        fine = refine_path(path)
        ratio = np.mean(fine.increments[:, 0] ** 2) / fine.dt
        assert 0.99 <= ratio <= 1.01


class TestEvalW:
    def test_zero_at_t0(self):
        model = single_mode_model(1.0)
        path = sample_path(model, 0.5, 32, seed=3)
        W = eval_W(model, path, 0)
        assert np.all(W.values == 0.0)

    def test_conservative_is_purely_imaginary(self):
        model = single_mode_model(0.9j)
        path = sample_path(model, 0.5, 32, seed=3)
        for idx in (1, 16, 32):
            W = eval_W(model, path, idx)
            assert np.all(W.values.real == 0.0)

    def test_single_constant_mode_matches_scalar(self):
        mu = 0.4 - 0.2j
        model = single_mode_model(mu, ConstantProfile(1.0))
        path = sample_path(model, 0.5, 32, seed=5)
        W = eval_W(model, path, 20)
        expected = mu * path.betas[20, 0]
        assert np.max(np.abs(W.values - expected)) <= 1e-14

    @pytest.mark.parametrize("index", ["negative", "past_end"])
    @pytest.mark.parametrize("accessor,last", [(eval_W, 32), (step_dW, 31),
                                               (rescaled_coefficients, 32)])
    def test_index_out_of_range(self, accessor, last, index):
        # step_dW has one row per step, W and the coefficients one per grid time
        model = single_mode_model(1.0)
        path = sample_path(model, 0.5, 32, seed=3)
        accessor(model, path, last)
        with pytest.raises(IndexError):
            accessor(model, path, -1 if index == "negative" else last + 1)

    def test_step_dW_matches_beta_difference(self):
        model = single_mode_model(1.0 + 0.5j)
        path = sample_path(model, 0.5, 32, seed=11)
        i = 7
        direct = step_dW(model, path, i)
        via_W = eval_W(model, path, i + 1).values - eval_W(model, path, i).values
        assert np.max(np.abs(direct - via_W)) <= 1e-13


class TestModeSum:
    MODELS = {
        "real": [NoiseMode(1.0, GaussianProfile(1.0, 3.0, (0, 0, 0)))],
        "complex": [NoiseMode(0.6 + 0.5j, GaussianProfile(1.0, 3.0, (0, 0, 0)))],
        "two": [NoiseMode(0.8j, GaussianProfile(1.0, 3.0, (1.0, 0, 0))),
                NoiseMode(0.5 - 0.2j, CosineProfile(0.7, (2, 0, 0)))],
    }

    @pytest.mark.parametrize("name", list(MODELS))
    def test_accessors_are_rows_of_one_mode_sum(self, name):
        # bit for bit: a row's bits do not depend on how many rows are summed
        model = build_model(self.MODELS[name], GRID)
        path = sample_path(model, 0.5, 32, seed=13)
        W = _mode_sum(path.betas, model.phi_stack)
        dW = _mode_sum(path.increments, model.phi_stack)
        for i in (0, 1, 17, 31):
            assert eval_W(model, path, i).values.tobytes() == W[i].tobytes()
            assert step_dW(model, path, i).tobytes() == dW[i].tobytes()
        assert eval_W(model, path, 32).values.tobytes() == W[32].tobytes()

    def test_zero_modes_give_zeros(self):
        model = build_model([], GRID)
        path = sample_path(model, 0.5, 32, seed=3)
        for values in (eval_W(model, path, 7).values, step_dW(model, path, 7)):
            assert values.shape == GRID.shape and not np.any(values)
        assert _mode_sum(path.betas, model.derivative_stack).shape == (33, 3) + GRID.shape

    def test_direct_solve_leaves_derivative_stack_uncomputed(self):
        grid = Grid(1, 64, 16.0)   # a fresh grid: its symbol stack is not yet cached
        model = single_mode_model(1.0, grid=grid)
        spec = ProblemSpec(grid, model, 3.0, -1, 0.1)
        path = sample_path(model, 0.1, 20, seed=3)
        x = Field(grid, np.exp(-grid.meshes[0] ** 2))
        solve_direct(x, path, spec)
        assert "derivative_stack" not in model.__dict__
        assert "symbols" not in grid.__dict__
        rescaled_coefficients(model, path, 5)
        assert "derivative_stack" in model.__dict__
        assert "symbols" in grid.__dict__

    @pytest.mark.parametrize("grid", [GRID, Grid(2, 16, 8.0)], ids=["d1", "d2"])
    def test_derivative_stack_is_the_per_symbol_transforms(self, grid):
        # reference: phi_j, then each multiplier as its own transform pair
        model = build_model([NoiseMode(0.6 + 0.5j, GaussianProfile(1.0, 2.0, (0.5, 0, 0))),
                             NoiseMode(0.8j, CosineProfile(0.7, (2, 1, 0)))], grid)
        what = fft_trailing(model.phi_stack, grid.d)
        symbols = [-grid.k_squared] + [1j * km for km in grid.k_meshes]
        want = np.stack([model.phi_stack] + [fft_trailing(np.multiply(s, what), grid.d, inverse=True)
                                             for s in symbols], axis=1)
        assert model.derivative_stack.tobytes() == want.tobytes()


class TestNoiseFactorModulus:
    def test_conservative_multiplier_unimodular(self):
        model = single_mode_model(1.3j)
        path = sample_path(model, 0.5, 64, seed=19)
        dt = path.dt
        for i in (0, 10, 63):
            factor = np.exp(step_dW(model, path, i) - model.damping * dt)
            assert np.max(np.abs(np.abs(factor) - 1.0)) <= 1e-13
