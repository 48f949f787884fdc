"""Monitored quantities (mass, Hamiltonian) and the critical exponents of the nonlinearity."""

from __future__ import annotations

import numpy as np

from .spectral import Field, grad_sq_norms, guarded_abs_power, quadrature


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
