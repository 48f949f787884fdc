"""Residual checks for the exact evolution formulas along simulated paths.

Each check recomputes the right-hand side of one closed identity --
mass, Hamiltonian, L^p power (p = alpha+1), or gradient energy -- from
per-step snapshots, with deterministic ds-integrals as left-Riemann sums and
stochastic integrals as left-point (Ito) sums on the same grid.  The
residual series r(t) = LHS(t) - RHS(t) starts at exactly zero and, for a
correct scheme, shrinks under coupled path refinement.  A numeric failure's
trajectory is checked up to its last finite row, the last with a snapshot.

Time is the batch axis: identity_terms makes, for a stack of rows (views of
the trajectory's snapshot array here, solve_chunks' chunks in the identity
ladder), each requested identity's per-row LHS and term increments by
`spectral`'s row-wise functions, computing the transforms and phase sums
the identities share once per stack; identity_report sums them into series,
so a report depends on no chunking or stacking.

Substep test flags are honored so that each identity matches the equation
actually integrated: terms sourced by a disabled substep are dropped, and
switching off the dispersive substep also exposes a drift that cancels with
it on (half of H^1's lam_drift, in the Hamiltonian identity).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import write_table
from .dynamics import ProblemSpec, Trajectory, chunk_steps
from .noise import NoiseModel, WienerPath
from .spectral import (Grid, apply_symbol, cutoff_symbol, grad_sq_norms, grad_sq_norms_and_arrays,
                       gradient_arrays, guarded_abs_power, nyquist_cutoff, quadrature)


class StrideError(ValueError):
    """Identity checks need snapshots at every step (stride 1)."""


@dataclass
class IdentityReport:
    name: str
    times: np.ndarray
    residual: np.ndarray
    lhs: np.ndarray
    terms: dict                 # name -> accumulated series, value 0 at t=0
    dt: float
    increments: np.ndarray      # the path increments actually summed

    @property
    def terminal_residual(self) -> float:
        return float(self.residual[-1])

    def to_csv(self, path):
        terms = {f"term_{i + 1}": series for i, series in enumerate(self.terms.values())}
        write_table(path, {"t": self.times, "residual": self.residual, **terms},
                    comment="terms: " + ",".join(self.terms))


def _re_inner(grid: Grid, us: list, vs: list) -> np.ndarray:
    """sum_a Re int u_a conj(v_a) of each row."""
    return sum(quadrature(grid, np.multiply(u, np.conj(v)).real) for u, v in zip(us, vs))


def _grad_g_pointwise(v: np.ndarray, gv: list, p: float) -> list:
    """grad of g(X) = |X|^{p-2} X from grad X via the pointwise product decomposition
    ((p-2)/2)|X|^{p-4} X^2 grad(conj X) + (p/2)|X|^{p-2} grad X, guarded at 0."""
    f1 = 0.5 * p * guarded_abs_power(v, p - 2.0)
    f2 = 0.5 * (p - 2.0) * guarded_abs_power(v, p - 4.0) * v * v
    return [np.multiply(f1, ga) + np.multiply(f2, np.conj(ga)) for ga in gv]


def identity_terms(v, db, dt, model, spec, flags, names, m=None) -> dict:
    """{name: rows} of each identity in `names` for a (R, *grid.shape) stack of rows v, with db
    the (R, N) left-point increments starting at the rows: rows = {"lhs": each row's LHS, term:
    each row's increment}, the terms in the order their series are summed.  X-hat (with
    |grad X|^2 and grad X), grad(mu X), each grad(phi_j X), grad theta_m g, |X|^p and the two
    phase sums are made at most once; m is the cutoff scale of lam_drift's theta_m."""
    grid, noisy = model.grid, flags.noise and model.n_modes > 0
    ham, h1, lp = "hamiltonian" in names, "h1" in names, "lp" in names
    out, gv = {}, None
    if "mass" in names:
        abs2 = guarded_abs_power(v, 2.0)
        rows = out["mass"] = {"lhs": quadrature(grid, abs2)}
        if noisy:
            rows["noise_mart"] = np.zeros(len(v))
            for j, (mode, e) in enumerate(zip(model.modes, model.e_fields)):
                re_mu = complex(mode.mu).real
                if re_mu != 0.0:
                    rows["noise_mart"] += 2.0 * re_mu * quadrature(grid, abs2 * e) * db[:, j]
        del abs2
    if ham or h1:
        # H^1's lam_drift cancels L^p's grad_drift in the continuum, so half of it enters H
        # only when the dispersive substep is off
        lam_drift = flags.nonlinear and (h1 or not flags.linear)
        if noisy or lam_drift or lp and flags.linear:   # a term reads grad X
            grad2, gv = grad_sq_norms_and_arrays(grid, v)
        else:
            grad2 = grad_sq_norms(grid, v)
        h1_rows = {"lhs": grad2}
        if noisy:
            mu_drift = -dt * _re_inner(grid, gradient_arrays(grid, np.multiply(model.mu_field, v)),
                                       gv)
            qv_grad, mart_grad = np.zeros(len(v)), np.zeros(len(v))
            for j, phi in enumerate(model.phi_fields):
                g_phiv = gradient_arrays(grid, np.multiply(phi, v))
                quad = sum(quadrature(grid, guarded_abs_power(ga, 2.0)) for ga in g_phiv)
                qv_grad += 0.5 * dt * quad
                mart_grad += _re_inner(grid, g_phiv, gv) * db[:, j]
            del g_phiv   # a stack of the chunk's size, not held while lam_drift's are made
            h1_rows["mu_drift"], h1_rows["qv_grad"] = 2.0 * mu_drift, 2.0 * qv_grad
        if lam_drift:   # grad theta_m g: one multiplier, bump(|k|/m) (d_1 ... d_d), of g
            g = np.multiply(guarded_abs_power(v, spec.alpha - 1.0), v)
            cut = cutoff_symbol(grid, nyquist_cutoff(grid) if m is None else m)
            ggm = apply_symbol(grid, g, cut * grid.symbols[1:])
            h1_rows["lam_drift"] = -2.0 * spec.lam * _re_inner(grid, 1j * ggm, gv) * dt
            del g, ggm
        if noisy:
            h1_rows["mart_grad"] = 2.0 * mart_grad
        if h1:
            out["h1"] = h1_rows
        if not (lp and flags.linear):
            gv = None   # not held while |X|^p is made
    if ham or lp:   # |X|^p and the phase sums qv = sum_j int (Re phi_j)^2 |X|^p and
        # mart = sum_j int Re phi_j |X|^p dbeta_j, which H and L^p scale
        p, lam_eff = spec.alpha + 1.0, spec.lam if flags.nonlinear else 0
        abs_p, qv, mart = guarded_abs_power(v, p), np.zeros(len(v)), np.zeros(len(v))
        for j, phi in enumerate(model.phi_fields if noisy else ()):
            qv += quadrature(grid, phi.real ** 2 * abs_p)
            mart += quadrature(grid, phi.real * abs_p) * db[:, j]
    if ham:   # H = |grad X|^2 / 2 - (lam/p)|X|_p^p: half the H^1 rows and the phase terms
        rows = {k: 0.5 * r for k, r in h1_rows.items() if k != "lam_drift" or not flags.linear}
        rows["lhs"] = rows["lhs"] - (lam_eff / p) * quadrature(grid, abs_p)
        if noisy:   # mart_grad is summed between the phase terms; 0.0 - x is +0.0 at x = 0
            rows.update(qv_phase=0.0 - 0.5 * lam_eff * (spec.alpha - 1.0) * dt * qv,
                        mart_grad=rows.pop("mart_grad"), mart_phase=0.0 - lam_eff * mart)
        out["hamiltonian"] = rows
    if lp:
        rows = out["lp"] = {"lhs": quadrature(grid, abs_p), "grad_drift": np.zeros(len(v))}
        if flags.linear:
            gv = gradient_arrays(grid, v) if gv is None else gv
            gg = _grad_g_pointwise(v, gv, p)
            rows["grad_drift"] = -p * _re_inner(grid, [1j * ga for ga in gg], gv) * dt
        if noisy:
            rows.update(qv_phase=0.5 * p * (p - 2.0) * dt * qv, mart_phase=p * mart)
    return out


IDENTITY_NAMES = ("mass", "hamiltonian", "lp", "h1")


def identity_report(name, times, path, rows: dict) -> IdentityReport:
    """Accumulate per-row increments (the last one unused) into series against rows["lhs"]."""
    lhs = rows["lhs"]
    series = {k: np.concatenate(([0.0], np.cumsum(v[:-1]))) for k, v in rows.items() if k != "lhs"}
    residual = lhs - (lhs[0] + sum(series.values()))
    residual[0] = 0.0   # exact by construction: all accumulators start at 0
    return IdentityReport(name, times.copy(), residual, lhs, series, path.dt, path.increments)


def _check(name, traj: Trajectory, path: WienerPath, model: NoiseModel, spec, m=None):
    """One identity along a trajectory's per-step snapshots, read in chunks of rows."""
    n = len(traj.times) - (traj.status.kind == "numeric-failure")   # a failed row has no snapshot
    if traj.snapshot_indices != list(range(n)):
        raise StrideError("identity checks require per-step snapshots (stride 1)")
    if n - 1 > path.n_steps or n > 1 and abs(traj.times[1] - traj.times[0] - path.dt) > 1e-14:
        raise StrideError("trajectory and path live on different time grids")
    # the last snapshot starts no increment
    db = np.vstack([path.increments[:n - 1], np.zeros((1, path.n_modes))])
    size = chunk_steps(1, model.grid)   # the rows one solver chunk holds for one path
    chunks = [identity_terms(traj.snapshots.rows(a, a + size), db[a:a + size], path.dt, model,
                             spec, traj.flags, (name,), m)[name] for a in range(0, n, size)]
    return identity_report(name, traj.times[:n], path, {k: np.concatenate([c[k] for c in chunks])
                                                        for k in chunks[0]})


def mass_identity(traj: Trajectory, path: WienerPath, model: NoiseModel) -> IdentityReport:
    """|X(t)|_2^2 against |x|_2^2 + 2 sum_j int Re mu_j <X, X e_j> dbeta_j."""
    return _check("mass", traj, path, model, None)


def hamiltonian_identity(traj: Trajectory, path: WienerPath, model: NoiseModel,
                         spec: ProblemSpec) -> IdentityReport:
    """H(X(t)) against the five-term evolution formula (phi_j = mu_j e_j):

    H(x) + int Re<-grad(mu X), grad X> ds + 1/2 sum int |grad(X phi_j)|_2^2 ds
    - lam(a-1)/2 sum int int (Re phi_j)^2 |X|^{a+1} ds
    + sum int Re<grad(phi_j X), grad X> dbeta_j
    - lam sum int int Re phi_j |X|^{a+1} dbeta_j.
    """
    return _check("hamiltonian", traj, path, model, spec)


def lp_identity(traj: Trajectory, path: WienerPath, model: NoiseModel,
                spec: ProblemSpec) -> IdentityReport:
    """|X(t)|_p^p (p = alpha+1) against

    |x|_p^p - p int Re int i grad g . grad conj(X) ds
    + p(p-2)/2 sum int int (Re phi_j)^2 |X|^p ds
    + p sum int int Re phi_j |X|^p dbeta_j.
    """
    return _check("lp", traj, path, model, spec)


def h1_identity(traj: Trajectory, path: WienerPath, model: NoiseModel,
                spec: ProblemSpec, m: float | None = None) -> IdentityReport:
    """|grad X(t)|_2^2 against

    |grad x|_2^2 + 2 int Re<-grad(mu X), grad X> ds
    + sum int |grad(X phi_j)|_2^2 ds - 2 lam int Re int i grad g_m . grad conj(X) ds
    + 2 sum int Re<grad(phi_j X), grad X> dbeta_j,

    where g_m is the Fourier cutoff of g at scale m (default: grid Nyquist,
    i.e. the cutoff acts as the identity on every resolved mode).
    """
    return _check("h1", traj, path, model, spec, m=m)


# name -> check(traj, path, model, spec)
ALL_IDENTITIES = {name: partial(_check, name) for name in IDENTITY_NAMES}
