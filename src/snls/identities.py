"""Residual checks for the exact evolution formulas along simulated paths.

Each check recomputes the right-hand side of one closed identity --
mass, Hamiltonian, L^p power (p = alpha+1), or gradient energy -- from
per-step snapshots, with deterministic ds-integrals as left-Riemann sums and
stochastic integrals as left-point (Ito) sums on the same grid.  The
residual series r(t) = LHS(t) - RHS(t) starts at exactly zero and, for a
correct scheme, shrinks under coupled path refinement.

Time is the batch axis: the snapshots are stacked in chunks of rows, every
spectral quantity of a chunk is computed once by the row-wise functions of
`spectral`, and each identity term is a row reduction.  Each row is reduced
on its own, so a report does not depend on the chunking.

Substep test flags are honored: terms sourced by a disabled substep are
dropped so the identity matches the equation actually integrated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ProblemSpec, Trajectory
from .noise import NoiseModel, WienerPath
from .spectral import (Grid, grad_sq_norms, gradient_arrays, guarded_abs_power,
                       nyquist_cutoff, quadrature, theta_m_values)


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
        names = list(self.terms)
        header = "t,residual," + ",".join(f"term_{i+1}" for i in range(len(names)))
        cols = [self.times, self.residual] + [self.terms[n] for n in names]
        with open(path, "w") as fh:
            fh.write("# terms: " + ",".join(names) + "\n")
            fh.write(header + "\n")
            for row in zip(*cols):
                fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _prepare(traj: Trajectory, path: WienerPath, model: NoiseModel):
    """(n snapshots, whether noise terms enter, the left-point increment
    starting at each snapshot), after checking the snapshots are per-step."""
    n = len(traj.times)
    if traj.snapshot_indices != list(range(n)):
        raise StrideError("identity checks require per-step snapshots (stride 1)")
    if n - 1 > path.n_steps or n > 1 and abs(traj.times[1] - traj.times[0] - path.dt) > 1e-14:
        raise StrideError("trajectory and path live on different time grids")
    # the last snapshot starts no increment
    db = np.vstack([path.increments[:n - 1], np.zeros((1, path.n_modes))])
    return n, traj.flags.noise and model.n_modes > 0, db


CHUNK_POINTS = 2048
"""Grid points per chunk of stacked snapshots (32 snapshots at n = 64).  It
bounds the memory of the stacked terms, which for a whole trajectory grows
with its length: 8 GB per array over 2000 steps at d = 3, n = 64."""


def _chunks(traj: Trajectory, grid: Grid):
    """(row slice, (rows, *grid.shape) stack) over the snapshots in order."""
    size = max(1, CHUNK_POINTS // grid.n ** grid.d)
    snaps = traj.snapshots
    for a in range(0, len(snaps), size):
        block = snaps[a:a + size]
        yield slice(a, a + len(block)), np.stack([s.values for s in block])


def _re_inner(grid: Grid, us: list, vs: list) -> np.ndarray:
    """sum_a Re int u_a conj(v_a) of each row."""
    return sum(quadrature(grid, np.multiply(u, np.conj(v)).real) for u, v in zip(us, vs))


def _report(name, traj, path, lhs, terms) -> IdentityReport:
    """Accumulate per-snapshot increments (the last one unused) into series."""
    n = len(traj.times)
    series = {k: np.concatenate(([0.0], np.cumsum(v[:-1]))) for k, v in terms.items()}
    rhs = lhs[0] + sum(series.values()) if series else np.full(n, lhs[0])
    residual = lhs - rhs
    residual[0] = 0.0   # exact by construction: all accumulators start at 0
    return IdentityReport(name, traj.times.copy(), residual, lhs, series,
                          path.dt, path.increments)


def mass_identity(traj: Trajectory, path: WienerPath, model: NoiseModel) -> IdentityReport:
    """|X(t)|_2^2 against |x|_2^2 + 2 sum_j int Re mu_j <X, X e_j> dbeta_j."""
    n, use_noise, db = _prepare(traj, path, model)
    grid = model.grid
    lhs = np.empty(n)
    noise_incr = np.zeros(n)
    for rows, v in _chunks(traj, grid):
        abs2 = guarded_abs_power(v, 2.0)
        lhs[rows] = quadrature(grid, abs2)
        if not use_noise:
            continue
        for j, (mode, e) in enumerate(zip(model.modes, model.e_fields)):
            re_mu = complex(mode.mu).real
            if re_mu != 0.0:
                noise_incr[rows] += 2.0 * re_mu * quadrature(grid, abs2 * e) * db[rows, j]
    terms = {"noise_mart": noise_incr} if use_noise else {}
    return _report("mass", traj, path, lhs, terms)


def _gradient_noise_terms(grid: Grid, model: NoiseModel, v: np.ndarray, gv: list,
                          db: np.ndarray, dt: float):
    """Per-row increments -dt Re<grad(mu X), grad X>, dt/2 sum_j |grad(phi_j X)|_2^2
    and sum_j Re<grad(phi_j X), grad X> dbeta_j: the Hamiltonian identity's
    mu_drift, qv_grad and mart_grad; the H^1 identity's are exactly twice them."""
    g_muv = gradient_arrays(grid, np.multiply(model.mu_field, v))
    mu_drift = -dt * _re_inner(grid, g_muv, gv)
    qv_grad = np.zeros(len(v))
    mart_grad = np.zeros(len(v))
    for j, phi in enumerate(model.phi_fields):
        g_phiv = gradient_arrays(grid, np.multiply(phi, v))
        quad = sum(quadrature(grid, guarded_abs_power(ga, 2.0)) for ga in g_phiv)
        qv_grad += 0.5 * dt * quad
        mart_grad += _re_inner(grid, g_phiv, gv) * db[:, j]
    return mu_drift, qv_grad, mart_grad


def hamiltonian_identity(traj: Trajectory, path: WienerPath, model: NoiseModel,
                         spec: ProblemSpec) -> IdentityReport:
    """H(X(t)) against the five-term evolution formula (phi_j = mu_j e_j):

    H(x) + int Re<-grad(mu X), grad X> ds + 1/2 sum int |grad(X phi_j)|_2^2 ds
    - lam(a-1)/2 sum int int (Re phi_j)^2 |X|^{a+1} ds
    + sum int Re<grad(phi_j X), grad X> dbeta_j
    - lam sum int int Re phi_j |X|^{a+1} dbeta_j.
    """
    n, use_noise, db = _prepare(traj, path, model)
    grid = model.grid
    alpha, lam = spec.alpha, spec.lam
    p = alpha + 1.0
    dt = path.dt
    lam_eff = lam if traj.flags.nonlinear else 0

    lhs = np.empty(n)
    incr = {k: np.zeros(n) for k in
            ("mu_drift", "qv_grad", "qv_phase", "mart_grad", "mart_phase")}
    for rows, v in _chunks(traj, grid):
        abs_p = guarded_abs_power(v, p)
        lhs[rows] = 0.5 * grad_sq_norms(grid, v) - (lam_eff / p) * quadrature(grid, abs_p)
        if not use_noise:
            continue
        (incr["mu_drift"][rows], incr["qv_grad"][rows],
         incr["mart_grad"][rows]) = _gradient_noise_terms(
            grid, model, v, gradient_arrays(grid, v), db[rows], dt)
        for j, phi in enumerate(model.phi_fields):
            re_phi = phi.real
            incr["qv_phase"][rows] += (-0.5 * lam_eff * (alpha - 1.0) * dt
                                       * quadrature(grid, re_phi ** 2 * abs_p))
            incr["mart_phase"][rows] += -lam_eff * quadrature(grid, re_phi * abs_p) * db[rows, j]
    terms = incr if use_noise else {}
    return _report("hamiltonian", traj, path, lhs, terms)


def _grad_g_pointwise(v: np.ndarray, gv: list, p: float) -> list:
    """grad of g(X) = |X|^{p-2} X from grad X via the pointwise product decomposition
    ((p-2)/2)|X|^{p-4} X^2 grad(conj X) + (p/2)|X|^{p-2} grad X, guarded at 0."""
    f1 = 0.5 * p * guarded_abs_power(v, p - 2.0)
    f2 = 0.5 * (p - 2.0) * guarded_abs_power(v, p - 4.0) * v * v
    return [np.multiply(f1, ga) + np.multiply(f2, np.conj(ga)) for ga in gv]


def lp_identity(traj: Trajectory, path: WienerPath, model: NoiseModel,
                spec: ProblemSpec) -> IdentityReport:
    """|X(t)|_p^p (p = alpha+1) against

    |x|_p^p - p int Re int i grad g . grad conj(X) ds
    + p(p-2)/2 sum int int (Re phi_j)^2 |X|^p ds
    + p sum int int Re phi_j |X|^p dbeta_j.
    """
    n, use_noise, db = _prepare(traj, path, model)
    grid = model.grid
    p = spec.alpha + 1.0
    dt = path.dt
    use_grad = traj.flags.linear

    lhs = np.empty(n)
    incr = {k: np.zeros(n) for k, on in [("grad_drift", True), ("qv_phase", use_noise),
                                         ("mart_phase", use_noise)] if on}
    for rows, v in _chunks(traj, grid):
        abs_p = guarded_abs_power(v, p)
        lhs[rows] = quadrature(grid, abs_p)
        if use_grad:
            gv = gradient_arrays(grid, v)
            gg = _grad_g_pointwise(v, gv, p)
            val = _re_inner(grid, [1j * ga for ga in gg], gv)
            incr["grad_drift"][rows] = -p * val * dt
        if use_noise:
            for j, phi in enumerate(model.phi_fields):
                re_phi = phi.real
                incr["qv_phase"][rows] += (0.5 * p * (p - 2.0) * dt
                                           * quadrature(grid, re_phi ** 2 * abs_p))
                incr["mart_phase"][rows] += (p * quadrature(grid, re_phi * abs_p)
                                             * db[rows, j])
    return _report("lp", traj, path, lhs, incr)


def h1_identity(traj: Trajectory, path: WienerPath, model: NoiseModel,
                spec: ProblemSpec, m: float | None = None) -> IdentityReport:
    """|grad X(t)|_2^2 against

    |grad x|_2^2 + 2 int Re<-grad(mu X), grad X> ds
    + sum int |grad(X phi_j)|_2^2 ds - 2 lam int Re int i grad g_m . grad conj(X) ds
    + 2 sum int Re<grad(phi_j X), grad X> dbeta_j,

    where g_m is the Fourier cutoff of g at scale m (default: grid Nyquist,
    i.e. the cutoff acts as the identity on every resolved mode).
    """
    n, use_noise, db = _prepare(traj, path, model)
    grid = model.grid
    alpha, lam = spec.alpha, spec.lam
    dt = path.dt
    use_lam = traj.flags.nonlinear
    cutoff = nyquist_cutoff(grid) if m is None else m

    lhs = np.empty(n)
    incr = {k: np.zeros(n) for k, on in [("mu_drift", use_noise), ("qv_grad", use_noise),
                                         ("lam_drift", use_lam), ("mart_grad", use_noise)] if on}
    for rows, v in _chunks(traj, grid):
        lhs[rows] = grad_sq_norms(grid, v)
        gv = gradient_arrays(grid, v)
        if use_noise:
            # twice the Hamiltonian terms: scaling by 2 is exact
            (incr["mu_drift"][rows], incr["qv_grad"][rows], incr["mart_grad"][rows]) = (
                2.0 * t for t in _gradient_noise_terms(grid, model, v, gv, db[rows], dt))
        if use_lam:
            g = np.multiply(guarded_abs_power(v, alpha - 1.0), v)
            ggm = gradient_arrays(grid, theta_m_values(grid, g, cutoff))
            val = _re_inner(grid, [1j * ga for ga in ggm], gv)
            incr["lam_drift"][rows] = -2.0 * lam * val * dt
    return _report("h1", traj, path, lhs, incr)


ALL_IDENTITIES = {
    "mass": lambda traj, path, model, spec: mass_identity(traj, path, model),
    "hamiltonian": hamiltonian_identity,
    "lp": lp_identity,
    "h1": h1_identity,
}
