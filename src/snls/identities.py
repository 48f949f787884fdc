"""Residual checks for the exact evolution formulas along simulated paths.

Each check recomputes the right-hand side of one closed identity --
mass, Hamiltonian, L^p power (p = alpha+1), or gradient energy -- from
per-step snapshots, with deterministic ds-integrals as left-Riemann sums and
stochastic integrals as left-point (Ito) sums on the same grid.  The
residual series r(t) = LHS(t) - RHS(t) starts at exactly zero and, for a
correct scheme, shrinks under coupled path refinement.

Substep test flags are honored: terms sourced by a disabled substep are
dropped so the identity matches the equation actually integrated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ProblemSpec, Trajectory, guarded_abs_power
from .noise import NoiseModel, WienerPath
from .spectral import Field, Grid, gradient_arrays, nyquist_cutoff, theta_m


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


def _check_stride(traj: Trajectory, path: WienerPath):
    n = len(traj.times)
    if traj.snapshot_indices != list(range(n)):
        raise StrideError("identity checks require per-step snapshots (stride 1)")
    if n - 1 > path.n_steps or abs(traj.times[1] - traj.times[0] - path.dt) > 1e-14:
        raise StrideError("trajectory and path live on different time grids")


def _grad_sq_norm(grid: Grid, values: np.ndarray) -> float:
    vhat = np.fft.fftn(values)
    w = grid.cell_volume / grid.n ** grid.d
    return w * float(np.sum(grid.k_squared * (vhat.real ** 2 + vhat.imag ** 2)))


def _integral(grid: Grid, arr) -> float:
    return grid.cell_volume * float(np.sum(arr))


def _report(name, traj, path, lhs, terms) -> IdentityReport:
    n = len(traj.times)
    series = {k: np.concatenate(([0.0], np.cumsum(v))) for k, v in terms.items()}
    rhs = lhs[0] + sum(series.values()) if series else np.full(n, lhs[0])
    residual = lhs - rhs
    residual[0] = 0.0   # exact by construction: all accumulators start at 0
    return IdentityReport(name, traj.times.copy(), residual, lhs, series,
                          path.dt, path.increments)


def mass_identity(traj: Trajectory, path: WienerPath, model: NoiseModel) -> IdentityReport:
    """|X(t)|_2^2 against |x|_2^2 + 2 sum_j int Re mu_j <X, X e_j> dbeta_j."""
    _check_stride(traj, path)
    grid = model.grid
    n_steps = len(traj.times) - 1
    use_noise = traj.flags.noise and model.n_modes > 0
    lhs = np.empty(n_steps + 1)
    noise_incr = np.zeros(n_steps)
    for i, snap in enumerate(traj.snapshots):
        v = snap.values
        abs2 = v.real ** 2 + v.imag ** 2
        lhs[i] = _integral(grid, abs2)
        if use_noise and i < n_steps:
            s = 0.0
            for j, (mode, e) in enumerate(zip(model.modes, model.e_fields)):
                re_mu = complex(mode.mu).real
                if re_mu != 0.0:
                    s += 2.0 * re_mu * _integral(grid, abs2 * e) * path.increments[i, j]
            noise_incr[i] = s
    terms = {"noise_mart": noise_incr} if use_noise else {}
    return _report("mass", traj, path, lhs, terms)


def hamiltonian_identity(traj: Trajectory, path: WienerPath, model: NoiseModel,
                         spec: ProblemSpec) -> IdentityReport:
    """H(X(t)) against the five-term evolution formula (phi_j = mu_j e_j):

    H(x) + int Re<-grad(mu X), grad X> ds + 1/2 sum int |grad(X phi_j)|_2^2 ds
    - lam(a-1)/2 sum int int (Re phi_j)^2 |X|^{a+1} ds
    + sum int Re<grad(phi_j X), grad X> dbeta_j
    - lam sum int int Re phi_j |X|^{a+1} dbeta_j.
    """
    _check_stride(traj, path)
    grid = model.grid
    alpha, lam = spec.alpha, spec.lam
    p = alpha + 1.0
    n_steps = len(traj.times) - 1
    dt = path.dt
    use_noise = traj.flags.noise and model.n_modes > 0
    lam_eff = lam if traj.flags.nonlinear else 0

    lhs = np.empty(n_steps + 1)
    incr = {k: np.zeros(n_steps) for k in
            ("mu_drift", "qv_grad", "qv_phase", "mart_grad", "mart_phase")}
    for i, snap in enumerate(traj.snapshots):
        v = snap.values
        grad2 = _grad_sq_norm(grid, v)
        abs_p = guarded_abs_power(v, p)
        lhs[i] = 0.5 * grad2 - (lam_eff / p) * _integral(grid, abs_p)
        if not use_noise or i == n_steps:
            continue
        gv = gradient_arrays(grid, v)
        g_muv = gradient_arrays(grid, model.mu_field * v)
        incr["mu_drift"][i] = -dt * sum(
            _integral(grid, (ga * np.conj(gb)).real) for ga, gb in zip(g_muv, gv))
        for j, phi in enumerate(model.phi_fields):
            g_phiv = gradient_arrays(grid, phi * v)
            quad = sum(_integral(grid, ga.real ** 2 + ga.imag ** 2) for ga in g_phiv)
            incr["qv_grad"][i] += 0.5 * dt * quad
            re_phi = phi.real
            incr["qv_phase"][i] += (-0.5 * lam_eff * (alpha - 1.0) * dt
                                    * _integral(grid, re_phi ** 2 * abs_p))
            cross = sum(_integral(grid, (ga * np.conj(gb)).real)
                        for ga, gb in zip(g_phiv, gv))
            db = path.increments[i, j]
            incr["mart_grad"][i] += cross * db
            incr["mart_phase"][i] += -lam_eff * _integral(grid, re_phi * abs_p) * db
    terms = incr if use_noise else {}
    return _report("hamiltonian", traj, path, lhs, terms)


def _grad_g_pointwise(grid: Grid, v: np.ndarray, p: float) -> list:
    """grad of g(X) = |X|^{p-2} X via the pointwise product decomposition
    ((p-2)/2)|X|^{p-4} X^2 grad(conj X) + (p/2)|X|^{p-2} grad X, guarded at 0."""
    gv = gradient_arrays(grid, v)
    f1 = 0.5 * p * guarded_abs_power(v, p - 2.0)
    f2 = 0.5 * (p - 2.0) * guarded_abs_power(v, p - 4.0) * v * v
    return [f1 * ga + f2 * np.conj(ga) for ga in gv]


def lp_identity(traj: Trajectory, path: WienerPath, model: NoiseModel,
                spec: ProblemSpec) -> IdentityReport:
    """|X(t)|_p^p (p = alpha+1) against

    |x|_p^p - p int Re int i grad g . grad conj(X) ds
    + p(p-2)/2 sum int int (Re phi_j)^2 |X|^p ds
    + p sum int int Re phi_j |X|^p dbeta_j.
    """
    _check_stride(traj, path)
    grid = model.grid
    p = spec.alpha + 1.0
    n_steps = len(traj.times) - 1
    dt = path.dt
    use_noise = traj.flags.noise and model.n_modes > 0
    use_grad = traj.flags.linear

    lhs = np.empty(n_steps + 1)
    incr = {"grad_drift": np.zeros(n_steps)}
    if use_noise:
        incr["qv_phase"] = np.zeros(n_steps)
        incr["mart_phase"] = np.zeros(n_steps)
    for i, snap in enumerate(traj.snapshots):
        v = snap.values
        abs_p = guarded_abs_power(v, p)
        lhs[i] = _integral(grid, abs_p)
        if i == n_steps:
            continue
        if use_grad:
            gg = _grad_g_pointwise(grid, v, p)
            gv = gradient_arrays(grid, v)
            val = sum(_integral(grid, (1j * ga * np.conj(gb)).real)
                      for ga, gb in zip(gg, gv))
            incr["grad_drift"][i] = -p * val * dt
        if use_noise:
            for j, phi in enumerate(model.phi_fields):
                re_phi = phi.real
                incr["qv_phase"][i] += (0.5 * p * (p - 2.0) * dt
                                        * _integral(grid, re_phi ** 2 * abs_p))
                incr["mart_phase"][i] += (p * _integral(grid, re_phi * abs_p)
                                          * path.increments[i, j])
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
    _check_stride(traj, path)
    grid = model.grid
    alpha, lam = spec.alpha, spec.lam
    n_steps = len(traj.times) - 1
    dt = path.dt
    use_noise = traj.flags.noise and model.n_modes > 0
    use_lam = traj.flags.nonlinear
    cutoff = nyquist_cutoff(grid) if m is None else m

    lhs = np.empty(n_steps + 1)
    incr = {}
    if use_noise:
        incr["mu_drift"] = np.zeros(n_steps)
        incr["qv_grad"] = np.zeros(n_steps)
    if use_lam:
        incr["lam_drift"] = np.zeros(n_steps)
    if use_noise:
        incr["mart_grad"] = np.zeros(n_steps)
    for i, snap in enumerate(traj.snapshots):
        v = snap.values
        lhs[i] = _grad_sq_norm(grid, v)
        if i == n_steps:
            continue
        gv = gradient_arrays(grid, v)
        if use_noise:
            g_muv = gradient_arrays(grid, model.mu_field * v)
            incr["mu_drift"][i] = -2.0 * dt * sum(
                _integral(grid, (ga * np.conj(gb)).real) for ga, gb in zip(g_muv, gv))
            for j, phi in enumerate(model.phi_fields):
                g_phiv = gradient_arrays(grid, phi * v)
                incr["qv_grad"][i] += dt * sum(
                    _integral(grid, ga.real ** 2 + ga.imag ** 2) for ga in g_phiv)
                cross = sum(_integral(grid, (ga * np.conj(gb)).real)
                            for ga, gb in zip(g_phiv, gv))
                incr["mart_grad"][i] += 2.0 * cross * path.increments[i, j]
        if use_lam:
            g = guarded_abs_power(v, alpha - 1.0) * v
            gm = theta_m(Field(grid, g), cutoff).values
            ggm = gradient_arrays(grid, gm)
            val = sum(_integral(grid, (1j * ga * np.conj(gb)).real)
                      for ga, gb in zip(ggm, gv))
            incr["lam_drift"][i] = -2.0 * lam * val * dt
    return _report("h1", traj, path, lhs, incr)


ALL_IDENTITIES = {
    "mass": lambda traj, path, model, spec: mass_identity(traj, path, model),
    "hamiltonian": hamiltonian_identity,
    "lp": lp_identity,
    "h1": h1_identity,
}
