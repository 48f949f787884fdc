import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snls.spectral import (BOUNDARY_DECAY_TOL, Field, Grid, GridMismatchError,
                           apply_symbol, boundary_ratio, bump_symbol, fft_trailing,
                           field_from_function, grad_sq_norms, gradient, gradient_arrays,
                           h1_norm, inner_product, laplacian, lp_norm, nyquist_cutoff,
                           quadrature, theta_m, theta_m_values, zero_field)


def random_field(grid, seed=0, band_limit=None):
    gen = np.random.Generator(np.random.Philox(key=[seed, 77]))
    spec = gen.standard_normal(grid.shape) + 1j * gen.standard_normal(grid.shape)
    if band_limit is not None:
        spec = spec * (grid.k_modulus <= band_limit)
    return Field(grid, np.fft.ifftn(spec))


GRIDS = [Grid(1, 64, 16.0), Grid(2, 16, 8.0), Grid(3, 8, 4.0)]


class TestGrid:
    def test_invariants(self):
        g = Grid(1, 64, 16.0)
        assert g.h == 0.25
        assert g.cell_volume == 0.25
        assert g.shape == (64,)

    @pytest.mark.parametrize("d,n,L", [(4, 64, 1.0), (1, 48, 1.0), (1, 4, 1.0),
                                       (1, 64, 0.0), (1, 64, -2.0)])
    def test_rejects_bad_parameters(self, d, n, L):
        with pytest.raises(ValueError):
            Grid(d, n, L)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_spectral_roundtrip(self, grid):
        u = random_field(grid, seed=3)
        back = np.fft.ifftn(np.fft.fftn(u.values))
        assert np.max(np.abs(back - u.values)) <= 1e-12 * np.max(np.abs(u.values))


class TestGradient:
    def test_constant_has_zero_gradient(self):
        grid = Grid(1, 64, 16.0)
        c = Field(grid, np.full(grid.shape, 2.3 + 0.4j))
        for g in gradient(c):
            assert np.max(np.abs(g.values)) < 1e-13

    @pytest.mark.parametrize("grid", GRIDS)
    def test_plane_wave_eigenfunction(self, grid):
        kvec = [2.0 * np.pi / grid.length * (ax + 1) for ax in range(grid.d)]
        phase = sum(k * m for k, m in zip(kvec, grid.meshes))
        u = Field(grid, np.exp(1j * phase))
        for ax, g in enumerate(gradient(u)):
            expected = 1j * kvec[ax] * u.values
            assert np.max(np.abs(g.values - expected)) <= 1e-12

    def test_sine_closed_form(self):
        grid = Grid(1, 128, 16.0)
        xi = grid.meshes[0]
        u = Field(grid, np.sin(2.0 * np.pi * xi / grid.length))
        (g,) = gradient(u)
        expected = (2.0 * np.pi / grid.length) * np.cos(2.0 * np.pi * xi / grid.length)
        assert np.max(np.abs(g.values - expected)) <= 1e-12

    @pytest.mark.parametrize("grid", GRIDS)
    def test_linearity(self, grid):
        u, v = random_field(grid, 1), random_field(grid, 2)
        a, b = 1.7 - 0.3j, -0.8 + 2.1j
        combo = gradient(Field(grid, a * u.values + b * v.values))
        parts = [Field(grid, a * gu.values + b * gv.values)
                 for gu, gv in zip(gradient(u), gradient(v))]
        for got, want in zip(combo, parts):
            assert np.max(np.abs(got.values - want.values)) <= 1e-12 * max(
                1.0, np.max(np.abs(want.values)))


class TestLaplacian:
    @pytest.mark.parametrize("grid", GRIDS)
    def test_plane_wave_eigenfunction(self, grid):
        kvec = [2.0 * np.pi / grid.length * 2 for _ in range(grid.d)]
        phase = sum(k * m for k, m in zip(kvec, grid.meshes))
        u = Field(grid, np.exp(1j * phase))
        k2 = sum(k ** 2 for k in kvec)
        got = laplacian(u)
        assert np.max(np.abs(got.values + k2 * u.values)) <= 1e-10

    def test_constant_maps_to_zero(self):
        grid = Grid(2, 16, 8.0)
        c = Field(grid, np.full(grid.shape, 1.5 - 2j))
        assert np.max(np.abs(laplacian(c).values)) < 1e-12

    @pytest.mark.parametrize("grid", GRIDS)
    def test_equals_divergence_of_gradient(self, grid):
        u = random_field(grid, 5, band_limit=grid.k_max / 2)
        lap = laplacian(u)
        div = np.zeros(grid.shape, dtype=np.complex128)
        for ax, g in enumerate(gradient(u)):
            div = div + gradient(g)[ax].values
        scale = max(1.0, np.max(np.abs(lap.values)))
        assert np.max(np.abs(lap.values - div)) <= 1e-12 * scale


class TestInnerProduct:
    def test_self_inner_product_real_nonnegative(self):
        grid = Grid(1, 64, 16.0)
        u = random_field(grid, 9)
        val = inner_product(u, u)
        assert abs(val.imag) <= 1e-14 * abs(val.real)
        assert val.real >= 0

    def test_orthogonal_plane_waves(self):
        grid = Grid(1, 64, 16.0)
        xi = grid.meshes[0]
        k0 = 2.0 * np.pi / grid.length
        u = Field(grid, np.exp(1j * 3 * k0 * xi))
        v = Field(grid, np.exp(1j * 5 * k0 * xi))
        val = inner_product(u, v)
        assert abs(val) <= 1e-12 * lp_norm(u, 2) * lp_norm(v, 2)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_parseval(self, grid):
        u, v = random_field(grid, 11), random_field(grid, 12)
        phys = inner_product(u, v)
        w = grid.cell_volume / grid.n ** grid.d
        spec = w * np.sum(np.fft.fftn(u.values) * np.conj(np.fft.fftn(v.values)))
        assert abs(phys - spec) <= 1e-12 * max(1.0, abs(phys))

    def test_grid_mismatch_raises(self):
        u = zero_field(Grid(1, 64, 16.0))
        v = zero_field(Grid(1, 128, 16.0))
        with pytest.raises(GridMismatchError):
            inner_product(u, v)


class TestLpNorm:
    def test_indicator_mass(self):
        grid = Grid(1, 64, 16.0)
        vals = np.zeros(grid.shape, dtype=np.complex128)
        vals[:5] = 1.0
        u = Field(grid, vals)
        for p in (1.0, 2.0, 3.0):
            assert lp_norm(u, p) == pytest.approx((5 * grid.cell_volume) ** (1 / p))

    @given(c=st.floats(min_value=-5, max_value=5).filter(lambda v: abs(v) > 1e-3),
           p=st.sampled_from([1.0, 2.0, 2.5, 4.0, np.inf]))
    @settings(max_examples=25, deadline=None)
    def test_homogeneity(self, c, p):
        grid = Grid(1, 32, 8.0)
        u = random_field(grid, 13)
        scaled = lp_norm(Field(grid, c * u.values), p)
        assert scaled == pytest.approx(abs(c) * lp_norm(u, p), rel=1e-12)

    def test_p2_matches_inner_product(self):
        grid = Grid(2, 16, 8.0)
        u = random_field(grid, 14)
        assert lp_norm(u, 2) == pytest.approx(
            np.sqrt(inner_product(u, u).real), rel=1e-12)

    def test_rejects_p_below_one(self):
        u = zero_field(Grid(1, 64, 16.0))
        with pytest.raises(ValueError):
            lp_norm(u, 0.5)


class TestH1Norm:
    def test_constant(self):
        grid = Grid(1, 64, 16.0)
        c = Field(grid, np.full(grid.shape, 3.0 - 4.0j))
        assert h1_norm(c) == pytest.approx(5.0 * grid.length ** 0.5, rel=1e-12)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_plane_wave_closed_form(self, grid):
        kvec = np.array([2.0 * np.pi / grid.length * 1 for _ in range(grid.d)])
        phase = sum(k * m for k, m in zip(kvec, grid.meshes))
        u = Field(grid, np.exp(1j * phase))
        expected = (1.0 + np.linalg.norm(kvec)) * grid.length ** (grid.d / 2)
        assert h1_norm(u) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_gradient_energy(self):
        grid = Grid(1, 64, 16.0)
        xi = grid.meshes[0]
        k0 = 2.0 * np.pi / grid.length
        low = Field(grid, np.exp(1j * k0 * xi))
        high = Field(grid, np.exp(1j * 4 * k0 * xi))
        assert lp_norm(low, 2) == pytest.approx(lp_norm(high, 2), rel=1e-12)
        assert h1_norm(high) > h1_norm(low)


class TestThetaM:
    def test_symbol_profile(self):
        r = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
        sym = bump_symbol(r)
        assert np.all(sym[r <= 1.0] == 1.0)
        assert np.all(sym[r >= 2.0] == 0.0)
        assert 0.0 < sym[3] < 1.0

    def test_low_mode_passes_unchanged(self):
        grid = Grid(1, 64, 16.0)
        xi = grid.meshes[0]
        k0 = 2.0 * np.pi / grid.length * 3
        u = Field(grid, np.exp(1j * k0 * xi))
        out = theta_m(u, m=k0 * 1.5)
        assert np.max(np.abs(out.values - u.values)) <= 1e-12

    def test_high_mode_removed(self):
        grid = Grid(1, 64, 16.0)
        xi = grid.meshes[0]
        k0 = 2.0 * np.pi / grid.length * 10
        u = Field(grid, np.exp(1j * k0 * xi))
        out = theta_m(u, m=k0 / 2.5)
        assert np.max(np.abs(out.values)) <= 1e-13

    @pytest.mark.parametrize("seed", range(100))
    def test_skew_orthogonality(self, seed):
        grid = Grid(1, 32, 8.0)
        u = random_field(grid, seed)
        for m in (1.0, 3.0, 10.0):
            val = inner_product(Field(grid, 1j * u.values), theta_m(u, m)).real
            assert abs(val) <= 1e-12 * lp_norm(u, 2) ** 2

    def test_self_adjoint(self):
        grid = Grid(2, 16, 8.0)
        u, v = random_field(grid, 21), random_field(grid, 22)
        m = 2.0
        lhs = inner_product(theta_m(u, m), v)
        rhs = inner_product(u, theta_m(v, m))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_identity_beyond_nyquist(self):
        grid = Grid(1, 64, 16.0)
        u = random_field(grid, 23)
        out = theta_m(u, nyquist_cutoff(grid))
        assert np.max(np.abs(out.values - u.values)) <= 1e-12

    # lp-contraction regression bounds, measured once on the seeded
    # band-limited suite below (max ratios 0.999 for p < inf, 1.010 for
    # p = inf) and frozen with headroom
    FROZEN_K = {1.0: 1.05, 2.0: 1.0 + 1e-12, 4.0: 1.05, np.inf: 1.1}

    @pytest.mark.parametrize("p,K", sorted(FROZEN_K.items(), key=lambda kv: kv[0]))
    def test_lp_contraction_bound(self, p, K):
        grid = Grid(1, 64, 16.0)
        for seed in range(30):
            u = random_field(grid, seed, band_limit=grid.k_max / 2)
            for m in (1.0, 2.0, 5.0):
                assert lp_norm(theta_m(u, m), p) <= K * lp_norm(u, p)

    def test_rejects_nonpositive_m(self):
        u = zero_field(Grid(1, 64, 16.0))
        with pytest.raises(ValueError):
            theta_m(u, 0.0)


class TestBoundaryMonitor:
    def test_centered_bump_decays(self):
        grid = Grid(1, 128, 32.0)
        u = field_from_function(grid, lambda x: np.exp(-x ** 2))
        assert boundary_ratio(u) <= BOUNDARY_DECAY_TOL

    def test_offset_bump_flagged(self):
        grid = Grid(1, 128, 32.0)
        u = field_from_function(grid, lambda x: np.exp(-(x - 14.0) ** 2))
        assert boundary_ratio(u) > BOUNDARY_DECAY_TOL

    def test_zero_field(self):
        assert boundary_ratio(zero_field(Grid(1, 64, 16.0))) == 0.0


class TestRowwise:
    """A (B, *shape) stack gives each row the bits of its single-row call."""

    @pytest.mark.parametrize("grid,rows", [(Grid(1, 64, 16.0), 32), (Grid(2, 16, 8.0), 8),
                                           (Grid(3, 8, 4.0), 4)])
    def test_stack_equals_single_rows(self, grid, rows):
        stack = np.stack([random_field(grid, seed).values for seed in range(rows)])
        batched = {
            "quadrature": quadrature(grid, stack.real ** 2 + stack.imag ** 2),
            "grad_sq_norms": grad_sq_norms(grid, stack),
            "theta_m": theta_m_values(grid, stack, 2.0),
            "laplacian": apply_symbol(grid, stack, grid.symbols[0]),
            "symbols": np.moveaxis(apply_symbol(grid, stack, grid.symbols), 1, 0),
        }
        grads = gradient_arrays(grid, stack)
        for b, row in enumerate(stack):
            single = {
                "quadrature": quadrature(grid, row.real ** 2 + row.imag ** 2),
                "grad_sq_norms": grad_sq_norms(grid, row),
                "theta_m": theta_m_values(grid, row, 2.0),
                "laplacian": laplacian(Field(grid, row)).values,
                "symbols": apply_symbol(grid, row, grid.symbols),
            }
            for name, value in single.items():
                assert batched[name][b].tobytes() == np.asarray(value).tobytes(), name
            for g_stack, g_row in zip(grads, gradient_arrays(grid, row)):
                assert g_stack[b].tobytes() == g_row.tobytes()


class TestApplySymbol:
    @pytest.mark.parametrize("grid", GRIDS)
    def test_stack_is_one_call_per_symbol_and_the_inline_pair(self, grid):
        # the inline pairs the kernel replaced multiplied by the real -k_squared and by ik_j
        block = np.stack([random_field(grid, seed).values for seed in range(3)])
        stacked = apply_symbol(grid, block, grid.symbols)
        assert stacked.shape == (grid.d + 1, 3) + grid.shape
        inline = [-grid.k_squared] + [1j * km for km in grid.k_meshes]
        for s, (symbol, S) in enumerate(zip(grid.symbols, inline)):
            one = apply_symbol(grid, block, symbol)
            pair = fft_trailing(np.multiply(S, fft_trailing(block, grid.d)), grid.d, inverse=True)
            assert stacked[s].tobytes() == one.tobytes() == pair.tobytes()


class TestPocketfftKernels:
    """fft_trailing and apply_symbol call pocketfft's kernels as np.fft does, so each is
    bit-equal to np.fft.fftn / ifftn over the trailing axes."""

    @staticmethod
    def block(grid, lead):
        return np.stack([random_field(grid, seed).values for seed in range(math.prod(lead))]
                        ).reshape(lead + grid.shape)

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("lead", [(), (3,)])   # one row, a (B, ...) block
    def test_fft_trailing_is_fftn(self, grid, lead):
        axes = tuple(range(-grid.d, 0))
        v = self.block(grid, lead)
        for values in (v, v.real.copy()):   # complex and float64 input
            assert (fft_trailing(values, grid.d).tobytes()
                    == np.fft.fftn(values, axes=axes).tobytes())
            assert (fft_trailing(values, grid.d, inverse=True).tobytes()
                    == np.fft.ifftn(values, axes=axes).tobytes())

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_apply_symbol_is_ifftn_of_the_product(self, grid, lead):
        axes = tuple(range(-grid.d, 0))
        v = self.block(grid, lead)
        stack = grid.symbols.reshape((grid.d + 1,) + (1,) * len(lead) + grid.shape)
        for values in (v, v.real.copy()):
            for symbol, S in [(grid.symbols[0], grid.symbols[0]), (grid.symbols, stack)]:
                want = np.fft.ifftn(np.multiply(S, np.fft.fftn(values, axes=axes)), axes=axes)
                got = apply_symbol(grid, values, symbol)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        w = v.copy()   # out= aliasing the input
        want = np.fft.ifftn(np.multiply(grid.symbols[1], np.fft.fftn(v, axes=axes)), axes=axes)
        assert apply_symbol(grid, w, grid.symbols[1], out=w) is w
        assert w.tobytes() == want.tobytes()


def _fft_trailing_calls(node, scope=()):
    """The dotted class/function scope of each fft_trailing call under an AST node."""
    for child in ast.iter_child_nodes(node):
        func = getattr(child, "func", None)
        if isinstance(child, ast.Call) and "fft_trailing" in (getattr(func, "id", None),
                                                             getattr(func, "attr", None)):
            yield ".".join(scope)
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
        yield from _fft_trailing_calls(child, scope + (child.name,) if named else scope)


def test_fft_trailing_is_called_only_in_spectral_and_the_direct_step():
    # every other Fourier multiplier goes through apply_symbol
    src = Path(__file__).resolve().parents[1] / "src" / "snls"
    calls = [(path.name, scope) for path in sorted(src.glob("*.py"))
             for scope in _fft_trailing_calls(ast.parse(path.read_text()))]
    direct = ("dynamics.py", "_DirectStepper.step")
    assert [c for c in calls if c[0] != "spectral.py" and c != direct] == []
    assert direct in calls
