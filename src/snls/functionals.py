"""Monitored quantities: mass, Hamiltonian, and the Gagliardo-Nirenberg probe."""

from __future__ import annotations

import numpy as np

from .spectral import (Field, Grid, grad_sq_norms, guarded_abs_power, inverse, lp_norm,
                       quadrature)


def mass(u: Field) -> float:
    """|u|_2^2 = h^d sum |u|^2."""
    return float(quadrature(u.grid, guarded_abs_power(u.values, 2.0)))


def energy_critical_alpha(d: int) -> float:
    """1 + 4/(d-2), +inf for d = 1, 2."""
    return 1.0 + 4.0 / (d - 2) if d >= 3 else np.inf


def mass_critical_alpha(d: int) -> float:
    return 1.0 + 4.0 / d


def _check_alpha(alpha: float, d: int):
    if not alpha > 1:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    if alpha > energy_critical_alpha(d):
        raise ValueError(
            f"alpha={alpha} exceeds the admissible range for d={d} "
            f"(max {energy_critical_alpha(d)})")


def hamiltonian(u: Field, alpha: float, lam: int) -> float:
    """H(u) = 1/2 |grad u|_2^2 - lam/(alpha+1) |u|_{alpha+1}^{alpha+1}."""
    _check_alpha(alpha, u.grid.d)
    kinetic = 0.5 * grad_sq_norms(u.grid, u.values)
    potential = quadrature(u.grid, guarded_abs_power(u.values, alpha + 1.0))
    return float(kinetic - (lam / (alpha + 1.0)) * potential)


def gn_theta(alpha: float, d: int) -> float:
    """Interpolation exponent d(alpha-1) / (2(alpha+1))."""
    return d * (alpha - 1.0) / (2.0 * (alpha + 1.0))


_GN_CAL_FIELDS = 1000
_gn_constants: dict = {}


def _calibrate_gn_constant(d: int, alpha: float) -> float:
    """Freeze C as 1.05x the max ratio over a fixed suite of random
    band-limited fields.  Fully seeded, so the value is a reproducible
    regression constant per (d, alpha).
    """
    n = {1: 64, 2: 32, 3: 16}[d]
    grid = Grid(d, n, 16.0)
    theta = gn_theta(alpha, d)
    beta = (1.0 - theta) * (alpha + 1.0)
    gamma = theta * (alpha + 1.0)
    gen = np.random.Generator(np.random.Philox(key=[0xC0FFEE, d * 100 + int(round(alpha * 10))]))
    keep = grid.k_modulus <= grid.k_max / 3.0
    worst = 0.0
    for _ in range(_GN_CAL_FIELDS):
        spec = gen.standard_normal(grid.shape) + 1j * gen.standard_normal(grid.shape)
        u = inverse(grid, spec * keep)
        lhs = lp_norm(u, alpha + 1.0) ** (alpha + 1.0)
        den = lp_norm(u, 2.0) ** beta * np.sqrt(grad_sq_norms(grid, u.values)) ** gamma
        if den > 0:
            worst = max(worst, lhs / den)
    return 1.05 * worst


def gn_constant(d: int, alpha: float) -> float:
    key = (d, round(alpha, 6))
    if key not in _gn_constants:
        _gn_constants[key] = _calibrate_gn_constant(d, alpha)
    return _gn_constants[key]


def gn_probe(u: Field, alpha: float):
    """Evaluate both sides of |u|_{a+1}^{a+1} <= C |u|_2^beta |grad u|_2^gamma.

    Only meaningful in the mass-subcritical window 1 < alpha < 1 + 4/d where
    the exponent theta lies in (0, 1).  Returns (lhs, rhs, theta).
    """
    d = u.grid.d
    theta = gn_theta(alpha, d)
    if not 0.0 < theta < 1.0 or not alpha < mass_critical_alpha(d):
        raise ValueError(
            f"alpha={alpha} outside the mass-subcritical range for d={d}")
    beta = (1.0 - theta) * (alpha + 1.0)
    gamma = theta * (alpha + 1.0)
    lhs = lp_norm(u, alpha + 1.0) ** (alpha + 1.0)
    grad = np.sqrt(grad_sq_norms(u.grid, u.values))
    rhs = gn_constant(d, alpha) * lp_norm(u, 2.0) ** beta * grad ** gamma
    return lhs, rhs, theta
