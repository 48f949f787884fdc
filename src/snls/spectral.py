"""Periodic-box spectral calculus: grids, complex fields, FFT derivatives,
norms, and the smooth Fourier cutoff used to regularize nonlinearities.

The box is [-L/2, L/2)^d with n points per axis (n a power of two) and the
uniform Riemann weight h^d as the quadrature rule.  All derivatives are exact
on resolved Fourier modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.fft._pocketfft_umath import fft as fft_kernel, ifft as ifft_kernel


class GridMismatchError(ValueError):
    """Two fields living on different grids were combined."""


class NumericFailure(RuntimeError):
    """A computation produced NaN/Inf; the owning run must not continue."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L/2, L/2)^d.

    d: spatial dimension (1, 2 or 3)
    n: points per axis, a power of two >= 8
    length: box edge length L
    """

    d: int
    n: int
    length: float

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"d must be 1, 2 or 3, got {self.d}")
        if self.n < 8 or not _is_power_of_two(self.n):
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not 0 < self.length < np.inf:
            raise ValueError(f"box length must be positive and finite, got {self.length}")

    @property
    def h(self) -> float:
        return self.length / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def cell_volume(self) -> float:
        return self.h ** self.d

    @cached_property
    def axis(self) -> np.ndarray:
        """Physical coordinates along one axis."""
        return -0.5 * self.length + self.h * np.arange(self.n)

    @cached_property
    def meshes(self) -> tuple:
        """Coordinate meshes, one (n,)*d array per axis."""
        return np.meshgrid(*([self.axis] * self.d), indexing="ij")

    @cached_property
    def k_axis(self) -> np.ndarray:
        """Integer frequencies scaled by 2*pi/L, FFT ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    @cached_property
    def k_meshes(self) -> tuple:
        return np.meshgrid(*([self.k_axis] * self.d), indexing="ij")

    @cached_property
    def k_squared(self) -> np.ndarray:
        k2 = np.zeros(self.shape)
        for km in self.k_meshes:
            k2 = k2 + km ** 2
        return k2

    @cached_property
    def symbols(self) -> np.ndarray:
        """(1 + d, *shape) symbols of Lap (-k_squared cast, -0.0 + 0j at k = 0) and d_1 ... d_d."""
        return np.stack([(-self.k_squared).astype(complex)] + [1j * km for km in self.k_meshes])

    @cached_property
    def k_modulus(self) -> np.ndarray:
        return np.sqrt(self.k_squared)

    @property
    def k_max(self) -> float:
        """Largest |k| present on the grid (corner mode)."""
        return float(np.sqrt(self.d) * np.pi * self.n / self.length)


@dataclass
class Field:
    """Complex-valued sample of a function on a Grid (row-major values)."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != self.grid.shape:
            v = v.reshape(self.grid.shape)
        self.values = v

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def check_finite(self) -> "Field":
        if not np.all(np.isfinite(self.values)):
            raise NumericFailure("field contains NaN or Inf")
        return self

    def __add__(self, other: "Field") -> "Field":
        _same_grid(self, other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _same_grid(self, other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scalar) -> "Field":
        return Field(self.grid, self.values * scalar)

    __rmul__ = __mul__


def _same_grid(u: Field, v: Field):
    if u.grid != v.grid:
        raise GridMismatchError("fields live on different grids")


def zero_field(grid: Grid) -> Field:
    return Field(grid, np.zeros(grid.shape, dtype=np.complex128))


def field_from_function(grid: Grid, fn) -> Field:
    """Sample fn(*coordinate meshes) on the grid."""
    return Field(grid, np.asarray(fn(*grid.meshes), dtype=np.complex128))


# ---------------------------------------------------------------------------
# transforms, derivatives and norms
#
# Every array function here acts on values of shape (..., *grid.shape): a
# single field or a block with leading batch axes, each row on its own, so a
# row's bits do not depend on its block.  Complex products fix their operand
# order with np.multiply (the SIMD complex multiply is not bit-commutative).

_KERNEL_AXES = [[(ax,), (), (ax,)] for ax in (-1, -2, -3)]   # a kernel call's axes, last first


def fft_trailing(values: np.ndarray, d: int, inverse: bool = False) -> np.ndarray:
    """fftn (ifftn) over the trailing d axes, all of one length as on a Grid, one axis at a time
    in fftn's order, each a call of pocketfft's kernel as np.fft makes it: bit-identical to
    fftn(values, axes=...), without np.fft's Python wrapper around every call."""
    kernel, factor = (ifft_kernel, 1.0 / values.shape[-1]) if inverse else (fft_kernel, 1)
    for axes in _KERNEL_AXES[:d]:
        values = kernel(values, factor, axes=axes, out=np.empty_like(values, dtype=np.complex128))
    return values


def apply_symbol(grid: Grid, values: np.ndarray, symbol: np.ndarray, out=None) -> np.ndarray:
    """The Fourier multiplier ifft(symbol fft(v)) of each row, in out if given: symbol is one array
    of grid.shape, or a (k, *grid.shape) stack inverted in one pass, giving (k, ..., *grid.shape)."""
    return _apply_to_transform(grid, fft_trailing(values, grid.d), symbol, out)


def _apply_to_transform(grid: Grid, vhat: np.ndarray, symbol: np.ndarray, out=None) -> np.ndarray:
    """apply_symbol of the rows whose fft_trailing is vhat."""
    lead = (1,) * (vhat.ndim - grid.d)   # a stack's symbol axis leads the rows' axes
    out = np.multiply(symbol.reshape(symbol.shape[:-grid.d] + lead + grid.shape), vhat, out=out)
    for axes in _KERNEL_AXES[:grid.d]:   # in place: a new stack per axis faults in fresh pages
        ifft_kernel(out, 1.0 / grid.n, axes=axes, out=out)
    return out


def forward(u: Field) -> np.ndarray:
    return fft_trailing(u.values, u.grid.d)

def inverse(grid: Grid, uhat: np.ndarray) -> Field:
    return Field(grid, fft_trailing(uhat, grid.d, inverse=True))


def quadrature(grid: Grid, values: np.ndarray) -> np.ndarray:
    """h^d sum over the grid of each row: the integral of each field."""
    rows = values.reshape(values.shape[:values.ndim - grid.d] + (grid.n ** grid.d,))
    return grid.cell_volume * rows.sum(axis=-1)


TINY_MODULUS = 1e-150


def guarded_abs_power(values: np.ndarray, expo: float, sq=None) -> np.ndarray:
    """|v|^expo.  For expo = 2, 4, 6, ... a product of s = re^2 + im^2, or of
    sq, an s already computed; otherwise exp(expo*log|v|), exactly zero below
    the underflow guard."""
    if expo >= 2.0 and (expo / 2.0).is_integer():
        s = values.real ** 2 + values.imag ** 2 if sq is None else sq
        power = s
        for _ in range(int(expo) // 2 - 1):
            power = power * s
        return power
    r = np.abs(values)
    mask = r >= TINY_MODULUS
    out = np.log(r, out=np.zeros_like(r), where=mask)
    np.multiply(out, expo, out=out, where=mask)
    return np.exp(out, out=out, where=mask)


def grad_sq_norms(grid: Grid, values: np.ndarray) -> np.ndarray:
    """|grad u|_2^2 of each row by Parseval: h^d/n^d sum |k|^2 |u_hat|^2
    (n^d is a power of two, so the division is exact)."""
    # |u_hat|^2, not u_hat, goes in: the transform is freed before the sum, the order in which
    # every step's diagnostics row has always allocated (heap layout moves ensemble-1d's RSS)
    return _parseval_sum(grid, guarded_abs_power(fft_trailing(values, grid.d), 2.0))


def _parseval_sum(grid: Grid, p: np.ndarray) -> np.ndarray:
    """h^d/n^d sum |k|^2 p of each row of p = |u_hat|^2, which it overwrites."""
    p *= grid.k_squared
    return quadrature(grid, p) / grid.n ** grid.d


def gradient_arrays(grid: Grid, values: np.ndarray) -> list:
    """Spectral partial derivatives of each row, one array per axis."""
    return list(apply_symbol(grid, values, grid.symbols[1:]))


def grad_sq_norms_and_arrays(grid: Grid, values: np.ndarray) -> tuple:
    """grad_sq_norms and gradient_arrays of each row, with their bits, from one forward transform."""
    vhat = fft_trailing(values, grid.d)
    return (_parseval_sum(grid, guarded_abs_power(vhat, 2.0)),
            list(_apply_to_transform(grid, vhat, grid.symbols[1:])))


def gradient(u: Field) -> list:
    """Componentwise spectral derivative (d Fields)."""
    return [Field(u.grid, g).check_finite() for g in gradient_arrays(u.grid, u.values)]


def laplacian(u: Field) -> Field:
    return Field(u.grid, apply_symbol(u.grid, u.values, u.grid.symbols[0])).check_finite()


def inner_product(u: Field, v: Field) -> complex:
    """<u, v> = h^d sum u conj(v)."""
    _same_grid(u, v)
    return complex(quadrature(u.grid, np.multiply(u.values, np.conj(v.values))))


def lp_norm(u: Field, p: float) -> float:
    """(h^d sum |u|^p)^(1/p); max norm for p = inf."""
    if p == np.inf:
        return float(np.max(np.abs(u.values)))
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float(quadrature(u.grid, guarded_abs_power(u.values, p)) ** (1.0 / p))


def h1_norm(u: Field) -> float:
    """|u|_2 + |grad u|_2 (sum convention)."""
    return lp_norm(u, 2) + float(np.sqrt(grad_sq_norms(u.grid, u.values)))


# ---------------------------------------------------------------------------
# smooth Fourier cutoff

def bump_symbol(r: np.ndarray) -> np.ndarray:
    """Radial cutoff profile: 1 on [0,1], 0 on [2,inf), smooth ramp between.

    On (1,2) the ramp is exp(1 - 1/(1 - (r-1)^2)); value and first derivative
    match the constant pieces at both ends.  Frozen: tests regress against it.
    """
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    out[r <= 1.0] = 1.0
    mid = (r > 1.0) & (r < 2.0)
    s = r[mid] - 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[mid] = np.exp(1.0 - 1.0 / (1.0 - s ** 2))
    return out


def theta_m(u: Field, m: float) -> Field:
    """Fourier multiplier u_hat(k) -> bump(|k|/m) u_hat(k)."""
    return Field(u.grid, theta_m_values(u.grid, u.values, m))


def theta_m_values(grid: Grid, values: np.ndarray, m: float) -> np.ndarray:
    """theta_m of each row."""
    return apply_symbol(grid, values, cutoff_symbol(grid, m))


def cutoff_symbol(grid: Grid, m: float) -> np.ndarray:
    """theta_m's symbol bump(|k|/m) on the grid."""
    if m <= 0:
        raise ValueError(f"cutoff scale m must be positive, got {m}")
    return bump_symbol(grid.k_modulus / m)


def nyquist_cutoff(grid: Grid) -> float:
    """Smallest m for which theta_m is the identity on every grid mode."""
    return grid.k_max


# ---------------------------------------------------------------------------
# boundary-decay monitor

def boundary_ratio(u: Field) -> float:
    """max |u| on the box faces divided by max |u| overall.

    The box truncates all of space; runs are only trusted while fields stay
    below 1e-8 of peak at the boundary.
    """
    return float(boundary_ratios(u.grid, np.abs(u.values)))


def boundary_ratios(grid: Grid, moduli: np.ndarray) -> np.ndarray:
    """boundary_ratio of each row of a (..., *grid.shape) block of |u|."""
    lead = moduli.shape[:moduli.ndim - grid.d]
    faces = [moduli[(Ellipsis, idx) + (slice(None),) * ax].reshape(*lead, -1)
             for ax in range(grid.d) for idx in (0, -1)]
    edge = np.concatenate(faces, axis=-1).max(axis=-1)
    peak = moduli.reshape(*lead, -1).max(axis=-1)
    return np.divide(edge, peak, out=np.zeros(lead), where=peak > 0)


BOUNDARY_DECAY_TOL = 1e-8
