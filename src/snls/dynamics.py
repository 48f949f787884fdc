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
from dataclasses import dataclass, field

import numpy as np

from .noise import NoiseModel, WienerPath, _mode_row, _mode_sum
from .spectral import (Field, Grid, boundary_ratios, fft_trailing, grad_sq_norms,
                       guarded_abs_power, quadrature)
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


@dataclass
class Trajectory:
    times: np.ndarray
    diagnostics: dict           # name -> series sampled at every step
    snapshot_indices: list
    snapshots: list             # Fields, one per recorded index
    status: TrajectoryStatus
    flags: StepFlags

    def diagnostic(self, name: str) -> np.ndarray:
        return self.diagnostics[name]


# ---------------------------------------------------------------------------
# diagnostics and blowup monitoring

def _critical_spacetime_exponent(d: int) -> float:
    return 2.0 * (d + 2) / (d - 2)


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

    def scan(self, dt: float, rows: dict, failed: np.ndarray, live=slice(None)) -> dict:
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


def detect_blowup(trajectory: Trajectory, spec: ProblemSpec,
                  thresholds: BlowupThresholds = BlowupThresholds()) -> TrajectoryStatus:
    """Replay a trajectory's diagnostic series through the blowup monitor, as
    solve_block does; a NaN row is a failed state."""
    rows = {k: s[:, None] for k, s in trajectory.diagnostics.items()}
    monitor = BlowupMonitor(spec, thresholds, {k: r[0] for k, r in rows.items()})
    later = {k: r[1:] for k, r in rows.items()}
    times = trajectory.times
    if len(times) == 1:
        return TrajectoryStatus("finished", float(times[0]))
    events = monitor.scan(times[1] - times[0], later, np.isnan(later["h1"]))  # solve_block's dt
    j, kind, reason = events.get(0, (len(times) - 2, "finished", None))
    return TrajectoryStatus(kind, float(times[j + 1]), reason)


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
    """The work that needs only the Brownian paths runs for `chunk` steps at
    a time: the mode sums sum_j coeffs[t, b, j] fields[j] of the chunk's steps
    are one stack of k*B rows, and _path_chunk maps it to the arrays the steps
    use, each reshaped to a leading axis of k steps."""

    phase = None   # the direct scheme's kept half-phase factor, one row per path
    rows = slice(None)   # the paths still in the block, as indices into `paths`

    def __init__(self, spec: ProblemSpec, paths: list, flags: StepFlags, chunk: int):
        self.spec, self.flags, self.grid, self.chunk = spec, flags, spec.grid, chunk
        self.dt, self.n_steps = paths[0].dt, paths[0].n_steps
        self.has_noise = flags.noise and spec.model.n_modes > 0
        self._start = self._stop = 0

    def _path_rows(self, t_index: int) -> list:
        if not self._start <= t_index < self._stop:
            self._start, self._stop = t_index, min(t_index + self.chunk, self.n_steps)
            coeffs = self.coeffs[self._start:self._stop, self.rows]
            fields = _mode_sum(coeffs.reshape(-1, coeffs.shape[-1]), self.fields)
            self._arrays = [a.reshape(len(coeffs), -1, *a.shape[1:])
                            for a in self._path_chunk(fields)]
        rows = [a[t_index - self._start] for a in self._arrays]
        if t_index + 1 == self._stop:   # free the chunk's arrays with its last step
            self._stop, self._arrays = 0, None
        return rows


class _DirectStepper(_Stepper):
    def __init__(self, spec: ProblemSpec, paths: list, flags: StepFlags, chunk: int = 1):
        super().__init__(spec, paths, flags, chunk)
        model = spec.model
        self.lin_mult = np.exp(1j * self.grid.k_squared * self.dt)
        damp = model.mu_field.astype(np.complex128) if flags.omit_mu_tilde else model.damping
        if self.has_noise:
            # real phi and damping (every non-conservative config) need only
            # a real exp for the noise factor, ~10x cheaper than a complex one
            real = not (np.any(model.phi_stack.imag) or np.any(damp.imag))
            self.fields = model.phi_stack.real if real else model.phi_stack
            self.damp_dt = (damp.real if real else damp) * self.dt
            self.coeffs = np.stack([p.increments for p in paths], axis=1)

    def _path_chunk(self, dW: np.ndarray) -> list:
        """The noise factor exp(dW - damping dt) of each step."""
        return [np.exp(dW - self.damp_dt)]

    def _phase(self, v: np.ndarray) -> np.ndarray:
        """exp(-i lam |v|^{alpha-1} dt/2), as cos + i sin with the complex exp's bits.
        The phase flow keeps |v|, so a step's trailing factor is the next step's leading one."""
        theta = guarded_abs_power(v, self.spec.alpha - 1.0) * (0.5 * self.spec.lam * self.dt)
        np.subtract(0.0, theta, out=theta)   # the negated angle, +0 at 0 as exp's form had
        out = np.empty(theta.shape, dtype=np.complex128)
        np.cos(theta, out=out.real)
        np.sin(theta, out=out.imag)
        return out

    def step(self, v: np.ndarray, t_index: int) -> np.ndarray:
        if self.flags.nonlinear:
            v = np.multiply(v, self._phase(v) if self.phase is None else self.phase)
        if self.flags.linear:
            vhat = fft_trailing(v, self.grid.d)
            v = fft_trailing(np.multiply(self.lin_mult, vhat, out=vhat), self.grid.d, inverse=True)
        if self.has_noise:
            (factor,) = self._path_rows(t_index)
            v = np.multiply(v, factor)
        if self.flags.nonlinear:
            self.phase = self._phase(v)
            v = np.multiply(v, self.phase)
        return v


def step_direct(state: Field, t_index: int, path: WienerPath, spec: ProblemSpec,
                flags: StepFlags = StepFlags()) -> Field:
    """One Strang step of the direct equation over [t_i, t_{i+1}]."""
    stepper = _DirectStepper(spec, [path], flags)
    return Field(state.grid, stepper.step(state.values[None], t_index)[0]).check_finite()


def _coefficient_arrays(model: NoiseModel, sums: np.ndarray):
    """W, grad W (one array per axis) and c = sum_j (d_j W)^2 + Lap W - i(mu + mu_tilde)
    from mode sums over model.derivative_stack, of shape (..., d+2, *grid.shape)."""
    W, *grads, lap = np.moveaxis(sums, -model.grid.d - 1, 0)
    return W, grads, sum((g * g for g in grads), lap - 1j * model.damping)


def rescaled_coefficients(model: NoiseModel, path: WienerPath, t_index: int):
    """Operator coefficients at t_i, 0 <= t_index <= n_steps: b = 2 grad W and
    c = sum_j (d_j W)^2 + Lap W - i(mu + mu_tilde), from mode sums of grad phi_j, Lap phi_j."""
    _, grads, c = _coefficient_arrays(model, _mode_row(path.betas, model.derivative_stack, t_index))
    return [Field(model.grid, 2.0 * g) for g in grads], Field(model.grid, c)


class _RescaledStepper(_Stepper):
    """RK4 on the rescaled right-hand side, coefficients frozen per step."""

    def __init__(self, spec: ProblemSpec, paths: list, flags: StepFlags, chunk: int = 1):
        super().__init__(spec, paths, flags, chunk)
        grid, dt = spec.grid, self.dt
        if flags.linear and dt * grid.k_max ** 2 > CFL_BOUND * CFL_SAFETY:
            raise CFLError(
                f"dt*max|k|^2 = {dt * grid.k_max ** 2:.3f} exceeds "
                f"{CFL_BOUND * CFL_SAFETY:.2f}; refine dt or coarsen the grid")
        if self.has_noise:
            self.fields = spec.model.derivative_stack
            self.coeffs = np.stack([p.betas for p in paths], axis=1)

    def _path_chunk(self, sums: np.ndarray) -> list:
        """b = 2 grad W (one array per axis), c and the envelope e^{(a-1)Re W},
        frozen at the step's left endpoint, from one mode sum of W and its derivatives."""
        W, grads, c = _coefficient_arrays(self.spec.model, sums)
        return [2.0 * g for g in grads] + [c, np.exp((self.spec.alpha - 1.0) * W.real)]

    def step(self, v: np.ndarray, t_index: int) -> np.ndarray:
        grid, spec, dt, d = self.grid, self.spec, self.dt, self.grid.d
        b = c = env = None
        if self.has_noise:
            *b, c, env = self._path_rows(t_index)

        def rhs(u):
            out = np.zeros_like(u)
            if self.flags.linear:
                uhat = fft_trailing(u, d)
                Au = fft_trailing(-grid.k_squared * uhat, d, inverse=True)
                if b is not None:
                    for b_ax, km in zip(b, grid.k_meshes):
                        Au = Au + np.multiply(b_ax, fft_trailing(1j * km * uhat, d, inverse=True))
                    Au = Au + np.multiply(c, u)
                out = -1j * Au
            if self.flags.nonlinear:
                power = guarded_abs_power(u, spec.alpha - 1.0)
                factor = power if env is None else env * power
                out = out - 1j * spec.lam * factor * u
            return out

        k1 = rhs(v)
        k2 = rhs(v + (0.5 * dt) * k1)
        k3 = rhs(v + (0.5 * dt) * k2)
        k4 = rhs(v + dt * k3)
        return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_rescaled(y: Field, t_index: int, path: WienerPath, spec: ProblemSpec,
                  flags: StepFlags = StepFlags()) -> Field:
    """One RK4 step of the rescaled equation over [t_i, t_{i+1}]."""
    stepper = _RescaledStepper(spec, [path], flags)
    return Field(y.grid, stepper.step(y.values[None], t_index)[0]).check_finite()


# ---------------------------------------------------------------------------
# block solver

_STEPPERS = {"direct": _DirectStepper, "rescaled": _RescaledStepper}


def solve_block(x, paths: list, spec: ProblemSpec,
                options: SolveOptions = SolveOptions(),
                scheme: str = "direct", consume=None) -> list:
    """Integrate one scheme along each of `paths` (one time grid), stepped as
    one block from x: one Field for every path, or a (B, *grid.shape) stack of
    one initial state per path.  One Trajectory per path (y-variables for the
    rescaled scheme); each keeps its own finite check, blowup crossing, status
    and stop index.  Steps run in chunks of chunk_steps(B, grid): the finite
    check and the diagnostics of a chunk's stacked states run once, and their
    rows pass through the blowup monitor in time order.  A path stops at its
    first event; later rows are dropped and its row leaves the block.
    consume(start, states, live, kept), if given, sees row 0, then each chunk:
    states[j, r] is path live[r] at time index start + j, and its first kept[r]
    rows are kept, as snapshots are: those before its stop, and a blowup row."""
    if spec.regime.tag == REGIME_OUT_OF_RANGE:
        raise RegimeError(
            f"(d={spec.d}, alpha={spec.alpha}, lambda={spec.lam}) is out of range")
    if scheme not in _STEPPERS:
        raise ValueError(f"unknown scheme {scheme!r}")
    if not paths or len({(p.n_steps, p.dt) for p in paths}) != 1:
        raise ValueError("a path block needs at least one path, all on one time grid")
    grid, n_paths, n_steps = spec.grid, len(paths), paths[0].n_steps
    chunk = chunk_steps(n_paths, grid)
    stepper = _STEPPERS[scheme](spec, paths, options.flags, chunk)
    q1 = _critical_spacetime_exponent(spec.d) if spec.regime.tag == REGIME_ENERGY_CRIT else None
    x0 = np.broadcast_to(x.values if isinstance(x, Field) else x, (n_paths, *grid.shape))
    v = np.array(x0, dtype=np.complex128, order="C")
    row = _diag_rows(grid, v, spec.alpha, spec.lam, q1)
    series = {k: np.full((n_paths, n_steps + 1), np.nan) for k in row}
    for k, s in series.items():
        s[:, 0] = row[k]
    snaps = [[] for _ in paths]
    monitor = BlowupMonitor(spec, options.thresholds, row)
    statuses = [TrajectoryStatus("finished", p.horizon) for p in paths]
    last = np.full(n_paths, n_steps)
    live = np.arange(n_paths)   # the path of each row of the block

    def record(start, states, live, kept):   # snapshots: the kept rows due by stride, a blowup row
        for row, b in enumerate(live):
            snaps[b] += [(i, states[i - start, row].copy()) for i in range(start, start + kept[row])
                         if i % options.stride == 0 or i == last[b] and statuses[b].is_blowup]

    consumers = [c for c in (options.record_snapshots and record, consume) if c]
    for c in consumers:
        c(0, v[None], live, np.ones(n_paths, dtype=int))

    # a path's state may overflow before its non-finite row stops it
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, chunk):
            k = min(chunk, n_steps - start)
            states = np.empty((k, len(live), *grid.shape), dtype=np.complex128)
            for j in range(k):
                v = states[j] = stepper.step(v, start + j)
            rows = _diag_rows(grid, states, spec.alpha, spec.lam, q1)
            failed = ~np.isfinite(states).reshape(k, len(live), -1).all(axis=2)
            if failed.any():
                for r in rows.values():
                    r[failed] = np.nan
            for key, r in rows.items():
                series[key][live, start + 1:start + k + 1] = r.T
            events = monitor.scan(stepper.dt, rows, failed, live)
            for row, (stop, kind, reason) in events.items():
                b = live[row]
                last[b] = start + stop + 1
                statuses[b] = TrajectoryStatus(kind, float(paths[b].times[last[b]]), reason)
            if consumers:
                kept = np.full(len(live), k)
                kept[list(events)] = [stop + (kind == "blowup") for stop, kind, _ in events.values()]
                for c in consumers:
                    c(start + 1, states, live, kept)
            if events:   # a stopped path's row leaves the block
                keep = [row for row in range(len(live)) if row not in events]
                if not keep:
                    break
                live, v, stepper.rows = live[keep], v[keep], live[keep]
                if stepper.phase is not None:
                    stepper.phase = stepper.phase[keep]
    return [Trajectory(np.asarray(path.times[:last[b] + 1]),
                       {k: s[b, :last[b] + 1] for k, s in series.items()},
                       [i for i, _ in snaps[b]], [Field(grid, a) for _, a in snaps[b]],
                       statuses[b], options.flags)
            for b, path in enumerate(paths)]


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
    return Field(u.grid, u.values * np.exp(W_t.values if direction == "to_X" else -W_t.values))


def y_to_X(model: NoiseModel, betas: np.ndarray, y: np.ndarray) -> np.ndarray:
    """X = e^W y of each state of a stack y, W = sum_j phi_j betas[..., j] one mode sum.  Each
    product rounds as one state's y * exp(W), which NumPy runs as exp(W) *= y from 256 KiB."""
    e = np.exp(_mode_sum(betas.reshape(math.prod(betas.shape[:-1]), -1), model.phi_stack))
    e = e.reshape(y.shape)
    state_bytes = y.itemsize * model.grid.n ** model.grid.d
    return np.multiply(*((e, y) if state_bytes >= 256 * 1024 else (y, e)), out=e)


def rescaled_to_X(traj: Trajectory, path: WienerPath, model: NoiseModel) -> list:
    """Companion X-snapshots e^{W(t_i)} y(t_i) for a rescaled trajectory, one at a time."""
    return [Field(model.grid, y_to_X(model, path.betas[idx], snap.values))
            for idx, snap in zip(traj.snapshot_indices, traj.snapshots)]


def X_consumer(consume, paths: list, model: NoiseModel, scheme: str):
    """consume as a solve_block consumer of X: e^W y for the rescaled scheme."""
    if scheme != "rescaled":
        return consume
    betas = np.stack([p.betas for p in paths], axis=1)   # (n_steps + 1, B, N)
    return lambda start, y, live, kept: consume(
        start, y_to_X(model, betas[start:start + len(y), live], y), live, kept)


def propagator_apply(u0: Field, s_index: int, t_index: int, path: WienerPath,
                     model: NoiseModel) -> Field:
    """Apply the evolution system U(t, s) of the rescaled linear part."""
    if not 0 <= s_index <= t_index <= path.n_steps:
        raise IndexError(f"need 0 <= s={s_index} <= t={t_index} <= {path.n_steps}")
    spec = ProblemSpec(model.grid, model, alpha=2.0, lam=1, T=path.horizon)
    stepper = _RescaledStepper(spec, [path], StepFlags(nonlinear=False))
    v = u0.values.astype(np.complex128)[None]
    for i in range(s_index, t_index):
        v = stepper.step(v, i)
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
            u[i + 1] = stepper.step(u[i:i + 1], i)[0]
        envs = np.exp((spec.alpha - 1.0) * _mode_sum(path.betas[:K + 1], spec.model.phi_stack).real)

        y = u.copy()
        distances = []
        converged = False
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(max_iter):
                f = envs * guarded_abs_power(y, spec.alpha - 1.0) * y
                v = np.zeros_like(u)
                for i in range(K):
                    v[i + 1] = (stepper.step(v[i:i + 1] + (0.5 * dt) * f[i], i)[0]
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
