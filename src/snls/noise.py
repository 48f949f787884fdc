"""Spatially colored Wiener noise W(t, xi) = sum_j mu_j e_j(xi) beta_j(t).

Holds the mode library (gaussian / constant / cosine spatial profiles), the
derived damping fields

    mu       = 1/2 sum_j |mu_j|^2 e_j^2        (real, >= 0)
    mu_tilde = 1/2 sum_j  mu_j^2  e_j^2        (complex)

and discrete Brownian paths with dyadic bridge refinement.  Path sampling is
counter-based (Philox keyed on (seed, path) with the refinement level in the
counter) so ensembles are reproducible at any parallel width and refinements
never perturb coarser levels.

Validity note: the continuum theory asks the profiles e_j to decay at
infinity (weighted by 1+|xi|^2, with an extra squared-log factor in d = 2).
On a periodic box that condition has no content, so it is documented here
rather than enforced; the constant profile deliberately violates it and
serves as the closed-form oracle case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import Field, Grid, apply_symbol


# ---------------------------------------------------------------------------
# spatial profiles

@dataclass(frozen=True)
class GaussianProfile:
    height: float = 1.0
    width: float = 1.0
    center: tuple = (0.0, 0.0, 0.0)

    def evaluate(self, grid: Grid) -> np.ndarray:
        r2 = np.zeros(grid.shape)
        for ax, mesh in enumerate(grid.meshes):
            r2 = r2 + (mesh - self.center[ax]) ** 2
        return self.height * np.exp(-r2 / (2.0 * self.width ** 2))


@dataclass(frozen=True)
class ConstantProfile:
    height: float = 1.0

    def evaluate(self, grid: Grid) -> np.ndarray:
        return np.full(grid.shape, self.height)


@dataclass(frozen=True)
class CosineProfile:
    """cos(k . xi) with k = 2*pi/L * kmode, kmode integer per axis."""

    height: float = 1.0
    kmode: tuple = (1, 0, 0)

    def evaluate(self, grid: Grid) -> np.ndarray:
        return self.height * np.cos(plane_wave_phase(grid, self.kmode))


def plane_wave_phase(grid: Grid, kmode: tuple) -> np.ndarray:
    """The phase k . xi on the grid, k = 2*pi/L * kmode (integer per axis)."""
    phase = np.zeros(grid.shape)
    scale = 2.0 * np.pi / grid.length
    for ax, mesh in enumerate(grid.meshes):
        phase = phase + scale * kmode[ax] * mesh
    return phase


@dataclass(frozen=True)
class NoiseMode:
    """One noise channel: complex amplitude mu and a real spatial profile."""

    mu: complex
    profile: object


# ---------------------------------------------------------------------------
# model

@dataclass
class NoiseModel:
    modes: tuple
    grid: Grid
    e_fields: list          # N real arrays
    phi_fields: list        # N complex arrays, phi_j = mu_j e_j
    mu_field: np.ndarray    # real
    mu_tilde_field: np.ndarray  # complex
    conservative: bool

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @cached_property
    def phi_stack(self) -> np.ndarray:
        """(N, *grid.shape) complex stack of the phi_j."""
        return np.array(self.phi_fields, dtype=np.complex128).reshape(-1, *self.grid.shape)

    @cached_property
    def derivative_stack(self) -> np.ndarray:
        """(N, d+2, *grid.shape): phi_j, Lap phi_j and d_1 phi_j ... d_d phi_j, transformed on
        first use (direct runs never need it); W, Lap W and grad W are one mode sum of it."""
        grid, phi = self.grid, self.phi_stack
        return np.stack([phi, *apply_symbol(grid, phi, grid.symbols)], axis=1)

    @cached_property
    def damping(self) -> np.ndarray:
        """mu + mu_tilde, the exponent drift of the exact noise factor."""
        return self.mu_field + self.mu_tilde_field


def build_model(modes, grid: Grid) -> NoiseModel:
    """Precompute e_j, phi_j, mu, mu_tilde; N = 0 is the deterministic limit."""
    modes = tuple(modes)
    e_fields, phi_fields = [], []
    mu = np.zeros(grid.shape)
    mu_tilde = np.zeros(grid.shape, dtype=np.complex128)
    for mode in modes:
        with np.errstate(all="ignore"):   # a profile that overflows or is 0/0 is rejected below
            e = np.asarray(mode.profile.evaluate(grid), dtype=float)
        if not np.all(np.isfinite(e)):
            raise ValueError("noise profile is non-finite on the grid")
        amp = complex(mode.mu)
        e_fields.append(e)
        phi_fields.append(amp * e)
        e2 = e * e
        # |mu|^2 and mu^2 split over re/im so the conservative case cancels
        # against mu_tilde.real exactly in floating point
        re2, im2 = amp.real ** 2, amp.imag ** 2
        mu = mu + 0.5 * (re2 + im2) * e2
        mu_tilde = mu_tilde + 0.5 * complex(re2 - im2, 2.0 * amp.real * amp.imag) * e2
    conservative = all(complex(m.mu).real == 0.0 for m in modes)
    return NoiseModel(modes, grid, e_fields, phi_fields, mu, mu_tilde, conservative)


# ---------------------------------------------------------------------------
# paths

@dataclass
class WienerPath:
    """Uniform-grid realization of the N driving Brownian motions.

    increments[i, j] = beta_j(t_{i+1}) - beta_j(t_i) ~ Normal(0, dt).
    Refinement level ell means 2^ell * base_steps steps on [0, T].
    """

    times: np.ndarray       # (M+1,)
    increments: np.ndarray  # (M, N)
    seed: int
    path_id: int = 0
    level: int = 0

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

    @property
    def n_modes(self) -> int:
        return self.increments.shape[1]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if self.n_steps else 0.0

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @cached_property
    def betas(self) -> np.ndarray:
        """(M+1, N) Brownian values, beta(0) = 0."""
        out = np.zeros((self.n_steps + 1, self.n_modes))
        np.cumsum(self.increments, axis=0, out=out[1:])
        return out


def _path_generator(seed: int, path_id: int, level: int) -> np.random.Generator:
    key = [np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(path_id & 0xFFFFFFFFFFFFFFFF)]
    return np.random.Generator(np.random.Philox(counter=[0, 0, 0, level], key=key))


def sample_path(model: NoiseModel, T: float, M: int, seed: int,
                path_id: int = 0) -> WienerPath:
    """Draw the level-0 increment block; bit-identical for fixed (seed, M, T, N)."""
    if T <= 0:
        raise ValueError(f"horizon T must be positive, got {T}")
    if M < 1:
        raise ValueError(f"step count M must be >= 1, got {M}")
    dt = T / M
    gen = _path_generator(seed, path_id, level=0)
    incr = gen.standard_normal((M, model.n_modes)) * np.sqrt(dt)
    times = np.linspace(0.0, T, M + 1)
    return WienerPath(times, incr, seed, path_id, level=0)


def refine_path(path: WienerPath) -> WienerPath:
    """Half-step path coupled to `path` by Brownian-bridge midpoints.

    The second fine increment is written as coarse - first so the pairwise
    sums reproduce the coarse increments to roundoff.
    """
    M, N = path.increments.shape
    dt = path.dt
    gen = _path_generator(path.seed, path.path_id, level=path.level + 1)
    # midpoint deviation ~ Normal(0, dt/4)
    xi = gen.standard_normal((M, N)) * (0.5 * np.sqrt(dt))
    fine = np.empty((2 * M, N))
    first = 0.5 * path.increments + xi
    fine[0::2] = first
    fine[1::2] = path.increments - first
    times = np.linspace(0.0, path.horizon, 2 * M + 1)
    return WienerPath(times, fine, path.seed, path.path_id, level=path.level + 1)


def ladder_paths(model: NoiseModel, T: float, n_steps: int, seed: int,
                 path_ids, levels: int):
    """Coupled dyadic ladder: yields the path list of `path_ids` at each of
    `levels` levels, level 0 sampled on n_steps steps and each next level
    the bridge refinement of the one before."""
    paths = [sample_path(model, T, n_steps, seed, pid) for pid in path_ids]
    for level in range(levels):
        if level:
            paths = [refine_path(p) for p in paths]
        yield paths


def _mode_sum(coeffs: np.ndarray, fields: np.ndarray) -> np.ndarray:
    """The package's only sum_j coeffs[:, j] fields[j], for (B, N) coefficients: a (B, ...)
    block, zeros when N = 0, summed mode by mode (a BLAS contraction's rounding depends on B)."""
    if not len(fields):
        return np.zeros((len(coeffs), *fields.shape[1:]), dtype=fields.dtype)
    out = np.multiply.outer(coeffs[:, 0], fields[0])
    for j in range(1, fields.shape[0]):
        out += np.multiply.outer(coeffs[:, j], fields[j])
    return out


def _mode_row(rows: np.ndarray, fields: np.ndarray, t_index: int) -> np.ndarray:
    """Row t_index of the mode sum of a path's rows; IndexError outside them, if negative too."""
    if not 0 <= t_index < len(rows):
        raise IndexError(f"t_index {t_index} outside path grid [0, {len(rows) - 1}]")
    return _mode_sum(rows[t_index:t_index + 1], fields)[0]


def eval_W(model: NoiseModel, path: WienerPath, t_index: int) -> Field:
    """W(t_i, .) = sum_j phi_j beta_j(t_i), 0 <= t_index <= n_steps, as a complex Field."""
    return Field(model.grid, _mode_row(path.betas, model.phi_stack, t_index))


def step_dW(model: NoiseModel, path: WienerPath, t_index: int) -> np.ndarray:
    """Increment field sum_j phi_j dbeta_j over step 0 <= t_index < n_steps (raw array)."""
    return _mode_row(path.increments, model.phi_stack, t_index)
