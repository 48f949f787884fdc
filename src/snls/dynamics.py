"""Time integration for the stochastic NLS and its pathwise rescaled form.

Two coupled discretizations of the same equation:

* direct scheme: Strang composition of the exact nonlinear phase flow, the
  exact dispersive group, and the exact noise factor
  exp(dW - (mu + mu_tilde) dt).  The noise factor solves the linear Ito SDE
  dX = X dW - mu X dt exactly because the quadratic variation of W is
  2 mu_tilde dt, so no Ito-discretization bias enters.

* rescaled scheme: substitute X = e^W y and step the resulting nonautonomous
  PDE  dy/dt = -i(Lap + b.grad + c) y - i lam e^{(a-1)Re W} |y|^{a-1} y  with
  classical RK4, coefficients frozen at the step's left endpoint
  (b = 2 grad W,  c = sum (d_j W)^2 + Lap W - i(mu + mu_tilde)).

Also: exponent-regime classification, admissible space-time pair arithmetic,
the mild-equation fixed-point solver with adaptive contraction windows, and
threshold-based blowup detection.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .noise import NoiseModel, WienerPath, _mode_row, _mode_sum
from .spectral import (Field, Grid, apply_symbol, boundary_ratios, fft_trailing,
                       grad_sq_norms, guarded_abs_power, quadrature)
from .functionals import energy_critical_alpha, mass_critical_alpha

# RK4 stability interval on the imaginary axis is |z| <= 2*sqrt(2) ~ 2.83;
# we step the skew operator -i*Lap explicitly, so dt*max|k|^2 must stay
# inside it with a 10% margin.
CFL_BOUND = 2.8
CFL_SAFETY = 0.9


class CFLError(RuntimeError):
    """Requested time step violates the explicit stability bound."""


class NoContractionError(RuntimeError):
    """The fixed-point window shrank below 4 dt without contracting."""


class RegimeError(ValueError):
    """Operation requested outside its admissible exponent regime."""


# ---------------------------------------------------------------------------
# exponent regimes

REGIME_DEFOCUSING_SUB = "defocusing-subcritical"
REGIME_FOCUSING_MASS_SUB = "focusing-mass-subcritical"
REGIME_FOCUSING_MASS_CRIT = "focusing-mass-critical"
REGIME_FOCUSING_SUPER = "focusing-mass-supercritical-energy-subcritical"
REGIME_ENERGY_CRIT = "energy-critical"
REGIME_OUT_OF_RANGE = "out-of-range"


@dataclass(frozen=True)
class Regime:
    tag: str
    is_global: bool


def classify(d: int, alpha: float, lam: int) -> Regime:
    """Place (d, alpha, lam) among the wellposedness regimes.

    Global wellposedness holds exactly for defocusing alpha < 1 + 4/(d-2)_+
    and focusing alpha < 1 + 4/d; the energy-critical endpoint
    alpha = 1 + 4/(d-2) (d >= 3) is local-only.
    """
    if d not in (1, 2, 3):
        raise ValueError(f"d must be 1, 2 or 3, got {d}")
    if lam not in (1, -1):
        raise ValueError(f"lambda must be +1 or -1, got {lam}")
    a_energy = energy_critical_alpha(d)
    a_mass = mass_critical_alpha(d)
    if not alpha > 1.0:
        return Regime(REGIME_OUT_OF_RANGE, False)
    if alpha == a_energy:
        return Regime(REGIME_ENERGY_CRIT, False)
    if alpha > a_energy:
        return Regime(REGIME_OUT_OF_RANGE, False)
    if lam == -1:
        return Regime(REGIME_DEFOCUSING_SUB, True)
    if alpha < a_mass:
        return Regime(REGIME_FOCUSING_MASS_SUB, True)
    if alpha == a_mass:
        return Regime(REGIME_FOCUSING_MASS_CRIT, False)
    return Regime(REGIME_FOCUSING_SUPER, False)


def is_strichartz_pair(p: float, q: float, d: int) -> bool:
    """Admissible pair test: 2/q = d/2 - d/p inside the endpoint ranges.

    Ranges are [2, inf]^2 for d != 2 and [2, inf) x (2, inf] for d = 2.
    """
    if p < 2.0 or q < 2.0:
        return False
    if d == 2 and (p == math.inf or q == 2.0):
        return False
    lhs = 0.0 if q == math.inf else 2.0 / q
    rhs = d / 2.0 - (0.0 if p == math.inf else d / p)
    return abs(lhs - rhs) <= 1e-12


# ---------------------------------------------------------------------------
# problem definition and run options

@dataclass(frozen=True)
class ProblemSpec:
    grid: Grid
    model: NoiseModel
    alpha: float
    lam: int
    T: float

    def __post_init__(self):
        if not self.alpha > 1.0:
            raise ValueError(f"alpha must exceed 1, got {self.alpha}")
        if self.lam not in (1, -1):
            raise ValueError(f"lambda must be +1 or -1, got {self.lam}")
        if self.T <= 0:
            raise ValueError(f"T must be positive, got {self.T}")

    @property
    def d(self) -> int:
        return self.grid.d

    @property
    def regime(self) -> Regime:
        return classify(self.d, self.alpha, self.lam)


@dataclass(frozen=True)
class StepFlags:
    """Test switches for individual substeps; all on for production runs."""

    linear: bool = True
    nonlinear: bool = True
    noise: bool = True
    omit_mu_tilde: bool = False   # deliberate bias bug for test power


@dataclass(frozen=True)
class BlowupThresholds:
    h1_factor: float = 1e6
    spacetime_factor: float = 1e6


@dataclass(frozen=True)
class SolveOptions:
    stride: int = 1
    record_snapshots: bool = True
    flags: StepFlags = StepFlags()
    thresholds: BlowupThresholds = BlowupThresholds()


@dataclass(frozen=True)
class TrajectoryStatus:
    kind: str                 # "finished" | "blowup" | "numeric-failure"
    t: float | None = None
    reason: str | None = None

    @property
    def is_blowup(self) -> bool:
        return self.kind == "blowup"


class Snapshots(Sequence):
    """Kept states, the rows of one (count, *grid.shape) array: an int index or a walk gives
    Field views, a slice or a row selection the same type, and rows(a, b) rows a..b stacked.
    With betas, row i reads as X = e^W y, W from the Brownian values betas[index[i]]."""

    def __init__(self, grid: Grid, values: np.ndarray, model=None, betas=None, index=None):
        self.grid, self.values, self.model, self.betas, self.index = grid, values, model, betas, index

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):   # rows i..i+1 (i..end at -1): none is IndexError
            return Field(self.grid, self.rows(i, i + 1 or None)[0])
        index = None if self.betas is None else np.asarray(self.index)[i]
        return Snapshots(self.grid, self.values[i], self.model, self.betas, index)

    def rows(self, a: int = 0, b: int | None = None) -> np.ndarray:
        y = self.values[a:b]
        return y if self.betas is None else y_to_X(self.model, self.betas[self.index[a:b]], y)


@dataclass
class Trajectory:
    times: np.ndarray
    diagnostics: dict           # name -> series sampled at every step
    snapshot_indices: list
    snapshots: Snapshots        # the recorded states, one row per index, in one array per path
    status: TrajectoryStatus
    flags: StepFlags

    def diagnostic(self, name: str) -> np.ndarray:
        return self.diagnostics[name]


# ---------------------------------------------------------------------------
# diagnostics and blowup monitoring

def _diag_rows(grid: Grid, v: np.ndarray, alpha: float, lam: int,
               q1: float | None) -> dict:
    """Diagnostics of each row of a (..., *grid.shape) block, one array each."""
    s = guarded_abs_power(v, 2.0)   # |v|^2, reused by the even powers below
    m = quadrature(grid, s)
    grad2 = grad_sq_norms(grid, v)
    lp_p = quadrature(grid, guarded_abs_power(v, alpha + 1.0, s))
    row = {
        "mass": m,
        "hamiltonian": 0.5 * grad2 - (lam / (alpha + 1.0)) * lp_p,
        "h1": np.sqrt(m) + np.sqrt(grad2),
        "lp": lp_p ** (1.0 / (alpha + 1.0)),
    }
    if q1 is not None:
        row["lq1_pow"] = quadrature(grid, guarded_abs_power(v, q1, s))
    row["boundary"] = boundary_ratios(grid, np.abs(v))
    return row


class BlowupMonitor:
    """Crossing detector for the blowup-alternative norms, one entry per path.

    Subcritical regimes watch the H1 norm against h1_factor * initial;
    the energy-critical regime additionally accumulates the space-time
    L^{q1} power, q1 = 2(d+2)/(d-2), against a configured cap.
    """

    def __init__(self, spec: ProblemSpec, thresholds: BlowupThresholds, initial: dict):
        """initial: the diagnostics row of the initial states, (B,) arrays."""
        self.h1_cap = thresholds.h1_factor * initial["h1"]
        self.h1_watched = initial["h1"] > 0
        self.critical = spec.regime.tag == REGIME_ENERGY_CRIT
        self.accumulator = np.zeros(len(initial["h1"]))
        self.spacetime_cap = math.inf
        if self.critical:
            base = np.maximum(initial["lq1_pow"], 1.0)
            self.spacetime_cap = thresholds.spacetime_factor * base * spec.T

    def scan(self, dt: float, rows: dict, failed: np.ndarray, live: np.ndarray) -> dict:
        """Feed the diagnostics rows of a run of steps, (k, B) arrays in time
        order, with the (k, B) mask of failed (non-finite) states; column b
        is path live[b].  Returns {column: (row, kind, reason)} of each
        path's first event; a failure beats a crossing in the same row."""
        h1_hit = self.h1_watched[live] & (rows["h1"] > self.h1_cap[live])
        hit = h1_hit | failed
        if self.critical:
            # one sequential sum from the carried value, as adding row by row does
            acc = np.add.accumulate(np.concatenate([self.accumulator[None, live],
                                                    rows["lq1_pow"] * dt]))
            self.accumulator[live] = acc[-1]
            hit = hit | (acc[1:] > self.spacetime_cap[live])
        events = {}
        for b in np.flatnonzero(hit.any(axis=0)).tolist():
            j = int(hit[:, b].argmax())
            if failed[j, b]:
                events[b] = (j, "numeric-failure", None)
            else:
                events[b] = (j, "blowup", "h1-threshold" if h1_hit[j, b]
                             else "critical-spacetime-threshold")
        return events


# ---------------------------------------------------------------------------
# block steppers
#
# Both steppers advance B paths held as one (B, *grid.shape) array.  Every
# operation acts on each row alone, so a path's bits do not depend on its
# block.  Complex products fix their operand order with np.multiply: NumPy
# may evaluate `a * tmp` as `tmp *= a` on arrays of 256 KiB and more, and the
# SIMD complex multiply is not bit-commutative.

BLOCK_POINTS = 8192
"""Grid points in one stack of states: paths per block times steps per chunk
(128 KiB complex), and the path-block bound of solvers that keep trajectories.
Bits do not depend on it: the fixed operand order above holds at any size."""


def chunk_steps(n_paths: int, grid: Grid) -> int:
    """Steps per chunk of n_paths paths: their states fill BLOCK_POINTS, at least one."""
    return max(1, BLOCK_POINTS // (n_paths * grid.n ** grid.d))


class _Stepper:
    """The work that needs only the Brownian paths runs once per chunk of steps:
    path_chunk's mode sums sum_j coeffs[t, b, j] fields[j] of a chunk are one
    stack of k*B rows, which _path_arrays maps to the arrays its steps use."""

    phase = None   # the direct scheme's kept half-phase factor, one row per path

    def __init__(self, spec: ProblemSpec, paths: list, flags: StepFlags):
        self.spec, self.flags, self.grid, self.dt = spec, flags, spec.grid, paths[0].dt
        self.has_noise = flags.noise and spec.model.n_modes > 0

    def path_chunk(self, start: int, k: int, live=slice(None)) -> list:
        """The path arrays of steps start, ..., start + k - 1 of the paths `live`,
        each with a leading axis of k steps; none without noise."""
        if not self.has_noise:
            return []
        coeffs = self.coeffs[start:start + k, live]
        sums = _mode_sum(coeffs.reshape(-1, coeffs.shape[-1]), self.fields)
        return [a.reshape(k, -1, *a.shape[1:]) for a in self._path_arrays(sums)]

    def step_at(self, v: np.ndarray, t_index: int) -> np.ndarray:
        """One step from t_index with that step's own path arrays."""
        return self.step(v, [a[0] for a in self.path_chunk(t_index, 1)])


class _DirectStepper(_Stepper):
    def __init__(self, spec: ProblemSpec, paths: list, flags: StepFlags):
        super().__init__(spec, paths, flags)
        model = spec.model
        self.d, self.linear, self.nonlinear = self.grid.d, flags.linear, flags.nonlinear
        self.expo, self.half_angle = spec.alpha - 1.0, 0.5 * spec.lam * self.dt
        self.lin_mult = np.exp(1j * self.grid.k_squared * self.dt)
        damp = model.mu_field.astype(np.complex128) if flags.omit_mu_tilde else model.damping
        if self.has_noise:
            # real phi and damping (every non-conservative config) need only
            # a real exp for the noise factor, ~10x cheaper than a complex one
            real = not (np.any(model.phi_stack.imag) or np.any(damp.imag))
            self.fields = model.phi_stack.real if real else model.phi_stack
            self.damp_dt = (damp.real if real else damp) * self.dt
            self.coeffs = np.stack([p.increments for p in paths], axis=1)

    def _path_arrays(self, dW: np.ndarray) -> list:
        """The noise factor exp(dW - damping dt) of each step."""
        return [np.exp(dW - self.damp_dt)]

    def _phase(self, v: np.ndarray) -> np.ndarray:
        """exp(-i lam |v|^{alpha-1} dt/2), as cos + i sin with the complex exp's bits.
        The phase flow keeps |v|, so a step's trailing factor is the next step's leading one."""
        theta = guarded_abs_power(v, self.expo) * self.half_angle
        np.subtract(0.0, theta, out=theta)   # the negated angle, +0 at 0 as exp's form had
        out = np.empty(theta.shape, dtype=np.complex128)
        np.cos(theta, out=out.real)
        np.sin(theta, out=out.imag)
        return out

    def step(self, v: np.ndarray, arrays: list) -> np.ndarray:
        if self.nonlinear:
            v = np.multiply(v, self._phase(v) if self.phase is None else self.phase)
        if self.linear:   # inline: freeing vhat later makes glibc trim the heap every step
            vhat = fft_trailing(v, self.d)
            v = fft_trailing(np.multiply(self.lin_mult, vhat, out=vhat), self.d, inverse=True)
        if self.has_noise:
            v = np.multiply(v, arrays[0])
        if self.nonlinear:
            self.phase = self._phase(v)
            v = np.multiply(v, self.phase)
        return v


def step_direct(state: Field, t_index: int, path: WienerPath, spec: ProblemSpec,
                flags: StepFlags = StepFlags()) -> Field:
    """One Strang step of the direct equation over [t_i, t_{i+1}]."""
    stepper = _DirectStepper(spec, [path], flags)
    return Field(state.grid, stepper.step_at(state.values[None], t_index)[0]).check_finite()


def _coefficient_arrays(model: NoiseModel, sums: np.ndarray):
    """W, grad W (one array per axis) and c = sum_j (d_j W)^2 + Lap W - i(mu + mu_tilde)
    from mode sums over model.derivative_stack, of shape (..., d+2, *grid.shape)."""
    W, lap, *grads = np.moveaxis(sums, -model.grid.d - 1, 0)
    return W, grads, sum((g * g for g in grads), lap - 1j * model.damping)


def rescaled_coefficients(model: NoiseModel, path: WienerPath, t_index: int):
    """Operator coefficients at t_i, 0 <= t_index <= n_steps: b = 2 grad W and
    c = sum_j (d_j W)^2 + Lap W - i(mu + mu_tilde), from mode sums of grad phi_j, Lap phi_j."""
    _, grads, c = _coefficient_arrays(model, _mode_row(path.betas, model.derivative_stack, t_index))
    return [Field(model.grid, 2.0 * g) for g in grads], Field(model.grid, c)


class _RescaledStepper(_Stepper):
    """RK4 on the rescaled right-hand side, coefficients frozen per step."""

    def __init__(self, spec: ProblemSpec, paths: list, flags: StepFlags):
        super().__init__(spec, paths, flags)
        self.kept = None   # a block's k1 ... k4, stage, temporary and Lap (and grad if b) stack
        grid, dt = spec.grid, self.dt
        if flags.linear and dt * grid.k_max ** 2 > CFL_BOUND * CFL_SAFETY:
            raise CFLError(
                f"dt*max|k|^2 = {dt * grid.k_max ** 2:.3f} exceeds "
                f"{CFL_BOUND * CFL_SAFETY:.2f}; refine dt or coarsen the grid")
        self.coeffs = np.stack([p.betas for p in paths], axis=1)   # solve_chunks' X reads them too
        if self.has_noise:
            self.fields = spec.model.derivative_stack

    def _path_arrays(self, sums: np.ndarray) -> list:
        """b = 2 grad W (one array per axis), c and the envelope e^{(a-1)Re W},
        frozen at the step's left endpoint, from one mode sum of W and its derivatives."""
        W, grads, c = _coefficient_arrays(self.spec.model, sums)
        return [2.0 * g for g in grads] + [c, np.exp((self.spec.alpha - 1.0) * W.real)]

    def step(self, v: np.ndarray, arrays: list) -> np.ndarray:
        grid, spec, dt, flags = self.grid, self.spec, self.dt, self.flags
        *b, c, env = arrays or [None, None]   # no path arrays without noise: no b, c or envelope
        if self.kept is None or self.kept.shape[1:] != v.shape:   # rows left the block
            self.kept = np.empty((7 + len(b),) + v.shape, dtype=np.complex128)
        (k1, k2, k3, k4, stage, tmp), stack = self.kept[:6], self.kept[6:]

        def rhs(u, out):   # into out; each product and sum keeps the out-of-place operand order
            if flags.linear:
                Au, *grads = apply_symbol(grid, u, grid.symbols[:len(stack)], stack)
                for b_ax, g in zip(b, grads):
                    np.add(Au, np.multiply(b_ax, g, out=g), out=Au)
                if c is not None:
                    np.add(Au, np.multiply(c, u, out=tmp), out=Au)
                np.multiply(-1j, Au, out=out)
            else:
                out.fill(0.0)   # 0.0 - x has the bits of zeros - x
            if flags.nonlinear:
                factor = guarded_abs_power(u, spec.alpha - 1.0)
                factor = factor if env is None else np.multiply(env, factor, out=factor)
                np.multiply(1j * spec.lam, factor, out=tmp)
                np.subtract(out, np.multiply(tmp, u, out=tmp), out=out)

        rhs(v, k1)
        for k, k_next, h in ((k1, k2, 0.5 * dt), (k2, k3, 0.5 * dt), (k3, k4, dt)):
            rhs(np.add(v, np.multiply(h, k, out=stage), out=stage), k_next)
        np.add(k1, np.multiply(2.0, k2, out=k2), out=k1)
        np.add(k1, np.multiply(2.0, k3, out=k3), out=k1)
        return np.add(v, np.multiply(dt / 6.0, np.add(k1, k4, out=k1), out=k1))   # callers keep it


def step_rescaled(y: Field, t_index: int, path: WienerPath, spec: ProblemSpec,
                  flags: StepFlags = StepFlags()) -> Field:
    """One RK4 step of the rescaled equation over [t_i, t_{i+1}]."""
    stepper = _RescaledStepper(spec, [path], flags)
    return Field(y.grid, stepper.step_at(y.values[None], t_index)[0]).check_finite()


# ---------------------------------------------------------------------------
# block solver

_STEPPERS = {"direct": _DirectStepper, "rescaled": _RescaledStepper}


def each_chunk(chunks, trajectories: list):
    """A solve_chunks generator's chunks; then `trajectories` holds the ones it returns."""
    trajectories[:] = yield from chunks


def solve_chunks(x, paths: list, spec: ProblemSpec,
                 options: SolveOptions = SolveOptions(), scheme: str = "direct"):
    """Integrate one scheme along each of `paths` (one time grid) from x (one Field, or one
    initial state per path) as one (B, *grid.shape) block, in chunks of chunk_steps(B, grid).
    A path stops at its first event (non-finite state or blowup crossing) and its row leaves
    the block.  Yields the kept rows of row 0 and then of each chunk that has one as (t, b, X):
    a path's rows before its stop, and a blowup row.  Snapshots X's row i is path b[i] at time
    index t[i], read as e^W y for the rescaled scheme.  Returns one Trajectory per path (y for
    the rescaled scheme), whose snapshots are its kept rows due by stride and a blowup row.
    It yields in the caller's error state."""
    if spec.regime.tag == REGIME_OUT_OF_RANGE:
        raise RegimeError(
            f"(d={spec.d}, alpha={spec.alpha}, lambda={spec.lam}) is out of range")
    if scheme not in _STEPPERS:
        raise ValueError(f"unknown scheme {scheme!r}")
    if not paths or len({(p.n_steps, p.dt) for p in paths}) != 1:
        raise ValueError("a path block needs at least one path, all on one time grid")
    grid, n_paths, n_steps = spec.grid, len(paths), paths[0].n_steps
    chunk = chunk_steps(n_paths, grid)
    stepper = _STEPPERS[scheme](spec, paths, options.flags)
    q1 = 2.0 * (spec.d + 2) / (spec.d - 2) if spec.regime.tag == REGIME_ENERGY_CRIT else None
    x0 = np.broadcast_to(x.values if isinstance(x, Field) else x, (n_paths, *grid.shape))
    v = np.array(x0, dtype=np.complex128, order="C")
    states = v[None]   # row 0: a chunk of one row that no step made
    rows, events = _diag_rows(grid, states, spec.alpha, spec.lam, q1), {}
    series = {k: np.full((n_paths, n_steps + 1), np.nan) for k in rows}
    # room for every stride-th row and a blowup row; pages that are never written cost nothing
    cap = n_steps // options.stride + 2 if options.record_snapshots else 0
    snaps, indices = [np.empty((cap, *grid.shape), complex) for _ in paths], [[] for _ in paths]
    monitor = BlowupMonitor(spec, options.thresholds, {k: r[0] for k, r in rows.items()})
    statuses = [TrajectoryStatus("finished", p.horizon) for p in paths]
    last = np.full(n_paths, n_steps)
    live = np.arange(n_paths)   # the path of each row of the block
    betas = stepper.coeffs.reshape((n_steps + 1) * n_paths, -1) if scheme == "rescaled" else None
    for start in chain([-1], range(0, n_steps, chunk)):
        if start >= 0:
            k = min(chunk, n_steps - start)
            # a path's state may overflow before its non-finite row stops it; the
            # caller's error state is back before the chunk is handed off
            with np.errstate(over="ignore", invalid="ignore"):
                states = np.empty((k, len(live), *grid.shape), dtype=np.complex128)
                arrays = stepper.path_chunk(start, k, live)
                for j, step_arrays in enumerate(zip(*arrays) if arrays else [()] * k):
                    v = states[j] = stepper.step(v, step_arrays)
                del arrays, step_arrays   # the chunk's path arrays go before its diagnostics
                rows = _diag_rows(grid, states, spec.alpha, spec.lam, q1)
                failed = ~np.isfinite(states).reshape(k, len(live), -1).all(axis=2)
                if failed.any():
                    for r in rows.values():
                        r[failed] = np.nan
                events = monitor.scan(stepper.dt, rows, failed, live)
        for key, r in rows.items():
            series[key][live, start + 1:start + len(states) + 1] = r.T
        kept = np.full(len(live), len(states))   # a path's rows before its stop, and a blowup row
        for row, (stop, kind, reason) in events.items():
            b = live[row]
            last[b] = start + stop + 1
            statuses[b] = TrajectoryStatus(kind, float(paths[b].times[last[b]]), reason)
            kept[row] = stop + (kind == "blowup")
        # kept row r of states[j] is path live[r] after step start + j + 1
        j, r = np.nonzero(np.arange(len(states))[:, None] < kept)
        t, b = start + 1 + j, live[r]
        # row i of X is states[j[i], r[i]]: a view of the chunk unless a path stopped in it
        X = states.reshape(-1, *grid.shape) if len(j) == len(states) * len(live) else states[j, r]
        for row, p in enumerate(live.tolist() if options.record_snapshots else []):
            i = np.flatnonzero(r == row)   # snapshots: the kept rows due by stride, a blowup row
            i = i[(t[i] % options.stride == 0) | (t[i] == last[p]) & statuses[p].is_blowup]
            n = len(indices[p])   # one copy of the path's rows, unbuffered (mode="clip")
            np.take(X, i, axis=0, out=snaps[p][n:n + len(i)], mode="clip")
            indices[p] += t[i].tolist()
        if len(t):
            yield t, b, Snapshots(grid, X, spec.model, betas, t * n_paths + b)
        del states, X, j, r, t, b   # not held while the next chunk is solved
        if events:   # a stopped path's row leaves the block
            keep = [row for row in range(len(live)) if row not in events]
            if not keep:
                break
            live, v = live[keep], v[keep]
            if stepper.phase is not None:
                stepper.phase = stepper.phase[keep]
    return [Trajectory(np.asarray(path.times[:last[b] + 1]),
                       {k: s[b, :last[b] + 1] for k, s in series.items()},
                       indices[b], Snapshots(grid, snaps[b][:len(indices[b])]),
                       statuses[b], options.flags)
            for b, path in enumerate(paths)]


def solve_block(x, paths: list, spec: ProblemSpec,
                options: SolveOptions = SolveOptions(), scheme: str = "direct") -> list:
    """solve_chunks' trajectories, its chunks dropped as they are handed off: nothing reads X,
    so no rescaled row is turned into X."""
    trajectories = []   # a for loop would hold each chunk while the next is solved
    deque(each_chunk(solve_chunks(x, paths, spec, options, scheme), trajectories), maxlen=0)
    return trajectories


def solve_direct(x: Field, path: WienerPath, spec: ProblemSpec,
                 options: SolveOptions = SolveOptions()) -> Trajectory:
    """Integrate the direct equation along the path grid."""
    return solve_block(x, [path], spec, options, "direct")[0]


def solve_rescaled(x: Field, path: WienerPath, spec: ProblemSpec,
                   options: SolveOptions = SolveOptions()) -> Trajectory:
    """Integrate the rescaled equation; the trajectory holds y-variables."""
    return solve_block(x, [path], spec, options, "rescaled")[0]


def transform(u: Field, W_t: Field, direction: str) -> Field:
    """Pointwise rescaling factor: to_X multiplies by e^W, to_y by e^{-W}."""
    if direction not in ("to_X", "to_y"):
        raise ValueError(f"direction must be 'to_X' or 'to_y', got {direction!r}")
    W = W_t.values if direction == "to_X" else -W_t.values
    return Field(u.grid, np.multiply(u.values, np.exp(W)))


@np.errstate(over="ignore", invalid="ignore")   # a kept row's e^W may overflow as its next state
def y_to_X(model: NoiseModel, betas: np.ndarray, y: np.ndarray) -> np.ndarray:
    """X = e^W y of each state of a stack y, W = sum_j phi_j betas[..., j] one mode sum.  Each
    product is np.multiply(y, e^W), as in transform, so it rounds as one state's."""
    e = _mode_sum(betas.reshape(math.prod(betas.shape[:-1]), betas.shape[-1]), model.phi_stack)
    e = np.exp(e, out=e).reshape(y.shape)
    return np.multiply(y, e, out=e)


def rescaled_to_X(traj: Trajectory, path: WienerPath, model: NoiseModel) -> Snapshots:
    """Companion X-snapshots e^{W(t_i)} y(t_i) of a rescaled trajectory, computed when read."""
    return Snapshots(model.grid, traj.snapshots.values, model, path.betas, traj.snapshot_indices)


def propagator_apply(u0: Field, s_index: int, t_index: int, path: WienerPath,
                     model: NoiseModel) -> Field:
    """Apply the evolution system U(t, s) of the rescaled linear part."""
    if not 0 <= s_index <= t_index <= path.n_steps:
        raise IndexError(f"need 0 <= s={s_index} <= t={t_index} <= {path.n_steps}")
    spec = ProblemSpec(model.grid, model, alpha=2.0, lam=1, T=path.horizon)
    stepper = _RescaledStepper(spec, [path], StepFlags(nonlinear=False))
    v = u0.values.astype(np.complex128)[None]
    for i in range(s_index, t_index):
        v = stepper.step_at(v, i)
    return Field(u0.grid, v[0]).check_finite()


# ---------------------------------------------------------------------------
# mild-equation fixed point

@dataclass
class PicardDiagnostics:
    window: float
    iterations: int
    distances: list
    contraction_factor: float
    trace: list = field(default_factory=list)   # (tau, factor, accepted)


def picard_solve(x: Field, path: WienerPath, spec: ProblemSpec,
                 window_policy: str = "adaptive", tau: float | None = None,
                 tol: float = 1e-10, max_iter: int = 50):
    """Solve the mild equation y = U(t,0)x - i lam int_0^t U(t,s) e^{(a-1)ReW} g(y) ds
    by fixed-point iteration on [0, tau], trapezoid quadrature on the path grid.

    The adaptive policy halves tau whenever the measured iterate-distance
    ratio exceeds 1/2 (the empirical surrogate for the contraction bound) and
    signals NoContractionError if tau falls below 4 dt without contracting.
    Returns (field at window end, PicardDiagnostics).
    """
    if window_policy not in ("adaptive", "fixed"):
        raise ValueError(f"unknown window policy {window_policy!r}")
    grid, dt = spec.grid, path.dt
    if tau is None:
        tau = path.horizon
    K = int(round(tau / dt))
    if K < 1 or K > path.n_steps:
        raise ValueError(f"window tau={tau} not representable on the path grid")

    stepper = _RescaledStepper(spec, [path], StepFlags(nonlinear=False))
    trace = []

    while True:
        # free part u_i = U(t_i, 0)x and envelopes, one row per grid time,
        # computed once per window size
        u = np.empty((K + 1, *grid.shape), dtype=np.complex128)
        u[0] = x.values
        for i in range(K):
            u[i + 1] = stepper.step_at(u[i:i + 1], i)[0]
        envs = np.exp((spec.alpha - 1.0) * _mode_sum(path.betas[:K + 1], spec.model.phi_stack).real)

        y = u.copy()
        distances = []
        converged = False
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(max_iter):
                f = envs * guarded_abs_power(y, spec.alpha - 1.0) * y
                v = np.zeros_like(u)
                for i in range(K):
                    v[i + 1] = (stepper.step_at(v[i:i + 1] + (0.5 * dt) * f[i], i)[0]
                                + (0.5 * dt) * f[i + 1])
                new = u - 1j * spec.lam * v
                new[0] = u[0]
                diff = new - y
                dist = float(np.sqrt(quadrature(grid, guarded_abs_power(diff, 2.0))).max())
                distances.append(dist)
                y = new
                if not math.isfinite(dist):
                    break            # diverged; window cannot be accepted
                if dist < tol:
                    converged = True
                    break
        # contraction factor over pre-floor pairs
        factor = 0.0
        for a, b in zip(distances, distances[1:]):
            if a > 10.0 * tol and math.isfinite(a):
                factor = max(factor, b / a if math.isfinite(b) else math.inf)
        accepted = converged and (window_policy == "fixed" or factor <= 0.5)
        trace.append((K * dt, factor, accepted))
        if accepted:
            diag = PicardDiagnostics(K * dt, len(distances), distances, factor, trace)
            return Field(grid, y[K].copy()), diag
        if window_policy == "fixed":
            raise NoContractionError(
                f"fixed window tau={K * dt} did not converge "
                f"(factor {factor:.3f} after {len(distances)} iterations)")
        K //= 2
        if K < 4:
            raise NoContractionError(
                "window shrank below 4 dt without contraction; "
                "no existence window found at this resolution")
