"""The three verification workloads: their inputs, one pass, and its checks.

Every input comes from a config file under bench/configs, parsed with
snls.config.parse_config and built with build_problem / build_initial; the
benchmark seed replaces the config's [run] seed.  A pass solves every
(path, level, scheme) of the workload once through the public library API,
checks the outputs against properties the method must have, and writes its
result files.  One operation is one solve; it fails when the status is not
"finished", a diagnostic is non-finite, or the boundary ratio reaches 1e-8
(the README's trust limit, which the program does not apply itself).

Library functions are always looked up on their module at call time, so a
traced pass sees the span wrappers that bench/spans.py installs.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

import snls.config as config
import snls.dynamics as dynamics
import snls.identities as identities
import snls.montecarlo as montecarlo
import snls.noise as noise

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")

BOUNDARY_TRUST = 1e-8
IDENTITY_NAMES = ("mass", "hamiltonian", "lp", "h1")
EXACT_RESIDUAL_MAX = 1e-10
MIN_HALVING_RATE = 0.8


@dataclass
class Problem:
    cfg: object
    spec: object
    x: object


def load(name: str, seed: int, **run) -> Problem:
    """Parse bench/configs/<name>.cfg with [run] seed set to `seed` (and any
    other [run] fields given), then build its problem and initial datum."""
    with open(os.path.join(CONFIG_DIR, name + ".cfg")) as fh:
        cfg = config.parse_config(fh.read())
    cfg = replace(cfg, run=replace(cfg.run, seed=seed, **run))
    spec = config.build_problem(cfg)
    return Problem(cfg, spec, config.build_initial(cfg, spec.grid))


def operation_ok(status, diagnostics: dict, exempt_boundary: bool = False) -> bool:
    """A solve succeeded: finished, finite diagnostics, boundary ratio < 1e-8."""
    ok = status.kind == "finished" and all(
        np.all(np.isfinite(s)) for s in diagnostics.values())
    if ok and not exempt_boundary:
        ok = float(np.max(diagnostics["boundary"])) < BOUNDARY_TRUST
    return ok


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    path_steps: int = 0
    solver_s: float = 0.0
    wall_s: float = 0.0
    problems: list = field(default_factory=list)    # failed checks
    details: dict = field(default_factory=dict)     # the checked figures
    digest: str = ""                                # of the checked outputs

    def timed_solve(self, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.solver_s += time.perf_counter() - t0
        return out

    def count(self, steps: int, ok: bool):
        """Count one operation of `steps` path-steps."""
        self.attempted += 1
        self.path_steps += steps
        self.failed += not ok

    def count_solve(self, traj, exempt_boundary: bool = False):
        self.count(len(traj.times) - 1,
                   operation_ok(traj.status, traj.diagnostics, exempt_boundary))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# ensemble-1d

MARTINGALE_Z = 5.0


def martingale_check(mass: np.ndarray, increments: np.ndarray, a: float,
                     dt: float, n_checkpoints: int = 10,
                     details: dict | None = None) -> list:
    """Exact discrete martingale property of the mass, at n_checkpoints times.

    mass is (paths, times) and increments (paths, steps), the Brownian
    increments that drove each path.  The phase and dispersive substeps
    conserve mass and the exact noise factor f has E|f|^2 = 1, so the
    one-step relative change u_i = m_{i+1}/m_i - 1 has conditional mean 0.
    So does v_i = exp(2 a db_i - 2 a^2 dt) - 1, the same change for a field
    sitting where Re phi = a; it tracks u_i closely, which takes out the
    log-normal spread of the mass itself.  Per path, the sum of u_i - v_i
    up to each checkpoint must have mean 0 across paths within
    MARTINGALE_Z standard errors (plus a roundoff floor).
    """
    n_steps = increments.shape[1]
    u = mass[:, 1:] / mass[:, :-1] - 1.0
    v = np.expm1(2.0 * a * increments - 2.0 * a * a * dt)
    partial = np.cumsum(u - v, axis=1)
    idx = np.unique(np.linspace(1, n_steps, n_checkpoints).astype(int))
    if len(idx) < n_checkpoints:
        return [f"only {len(idx)} martingale checkpoints"]
    sums = partial[:, idx - 1]
    mean = sums.mean(axis=0)
    se = sums.std(axis=0, ddof=1) / math.sqrt(sums.shape[0])
    z = np.abs(mean) / np.maximum(se, 1e-300)
    if details is not None:
        details["martingale_max_z"] = float(np.max(z))
    bad = np.abs(mean) > MARTINGALE_Z * se + 1e-12 * idx
    if np.any(bad):
        k = int(np.argmax(z))
        return [f"martingale: mean one-step mass change {mean[k]:.3e} is "
                f"{z[k]:.1f} SE from 0 at step {idx[k]}, "
                f"{int(bad.sum())} of {len(idx)} checkpoints beyond {MARTINGALE_Z:g} SE"]
    return []


class Ensemble1D:
    name = "ensemble-1d"
    default_seed = 20250810
    # Measured passes run every path in this process: two busy processes on
    # a 2-core machine slow each other by a third, with jitter that spreads
    # repeated width-2 passes by ~17% against ~2% at width 1.  The traced
    # run measures the pool at POOL_WIDTH against the width-1 pass.
    POOL_WIDTH = min(2, os.cpu_count() or 1)

    def __init__(self, seed: int, flags: dynamics.StepFlags = dynamics.StepFlags()):
        self.problem = load("ensemble-1d", seed, flags=flags)

    def ensemble_config(self, width: int):
        cfg = self.problem.cfg
        return montecarlo.EnsembleConfig(
            n_paths=cfg.run.n_paths, seed=cfg.run.seed, n_steps=cfg.n_steps,
            observables=("mass", "hamiltonian", "h1", "lp", "boundary"),
            width=width, scheme="direct",
            options=config.solve_options(cfg, record_snapshots=False))

    def run_pass(self, out_dir: str, width: int = 1) -> PassResult:
        cfg, spec, x = self.problem.cfg, self.problem.spec, self.problem.x
        res = PassResult()
        t0 = time.perf_counter()
        report = res.timed_solve(montecarlo.run_ensemble, x, spec,
                                 self.ensemble_config(width))
        per_path = report.per_path
        good = np.array([operation_ok(status, {o: per_path[o][i] for o in per_path})
                         for i, status in enumerate(report.statuses)])
        for ok in good:
            res.count(cfg.n_steps, ok)
        # the library's own test, as `snls ensemble` runs it; the verdict
        # below is the benchmark's own computation
        m0 = spec.grid.cell_volume * float(np.sum(np.abs(x.values) ** 2))
        montecarlo.martingale_test(report, m0)
        montecarlo.moment_monitor(report, p=2.0, alpha=cfg.alpha)
        report.to_csv(os.path.join(out_dir, "ensemble.csv"))
        if good.sum() < 2:
            res.problems.append("fewer than two paths survived")
        else:
            dB = np.stack([noise.sample_path(spec.model, spec.T, cfg.n_steps,
                                             cfg.run.seed, int(pid)).increments[:, 0]
                           for pid in np.flatnonzero(good)])
            peak = int(np.argmax(np.abs(x.values)))
            a = float(spec.model.phi_fields[0].real.flat[peak])
            res.problems += martingale_check(per_path["mass"][good], dB, a,
                                             cfg.dt, details=res.details)
        res.wall_s = time.perf_counter() - t0
        res.digest = _digest(*(per_path[o] for o in per_path),
                             np.array([s.kind for s in report.statuses]))
        return res


# ---------------------------------------------------------------------------
# identities-1d

def ladder_check(sup_residual: dict, details: dict | None = None) -> list:
    """Mean over paths of sup_t |residual(t)| strictly decreases per level.

    The identities hold at every t, so the residual series is judged whole.
    The mean of its sup over 32 paths is steadier than the median terminal
    residual: resampling 32 of 320 paths, strict decrease of the median
    terminal residual fails for a fifth of the draws, and of this mean for
    none of 10000 (worst level-to-level ratio 0.996, median 0.77).
    """
    problems = []
    for name, arr in sup_residual.items():
        mean = arr.mean(axis=0)
        if details is not None:
            details[f"{name}_mean_sup_residual"] = mean.tolist()
        if not np.all(np.diff(mean) < 0):
            problems.append(f"identity {name}: mean sup residual not strictly "
                            "decreasing " + " ".join(f"{m:.3e}" for m in mean))
    return problems


def exact_check(sup_residual: dict) -> list:
    problems = []
    for name, arr in sup_residual.items():
        worst = float(np.max(arr))
        if not worst <= EXACT_RESIDUAL_MAX:
            problems.append(f"exact case: identity {name} residual "
                            f"{worst:.3e} > {EXACT_RESIDUAL_MAX:g}")
    return problems


def identity_ladder(problem: Problem, res: PassResult, exempt_boundary=False,
                    out_dir: str | None = None, rescaled: bool = False) -> dict:
    """Coupled dyadic ladder over [verify] paths and levels, every step
    snapshotted, all four identities per solve.  Returns
    {name: (paths, levels) array of sup_t |residual(t)|}.

    `rescaled=True` hands the identities solve_rescaled's y-trajectory in
    place of X, a deliberately wrong input the ladder check must reject.
    """
    cfg, spec, x = problem.cfg, problem.spec, problem.x
    levels, n_paths = cfg.verify.levels, cfg.verify.paths
    opts = config.solve_options(cfg, stride=1)
    fns = {
        "mass": lambda tr, p: identities.mass_identity(tr, p, spec.model),
        "hamiltonian": lambda tr, p: identities.hamiltonian_identity(tr, p, spec.model, spec),
        "lp": lambda tr, p: identities.lp_identity(tr, p, spec.model, spec),
        "h1": lambda tr, p: identities.h1_identity(tr, p, spec.model, spec),
    }
    sup_residual = {name: np.zeros((n_paths, levels)) for name in IDENTITY_NAMES}
    for pid in range(n_paths):
        path = noise.sample_path(spec.model, spec.T, cfg.n_steps, cfg.run.seed, pid)
        for level in range(levels):
            solve = dynamics.solve_rescaled if rescaled else dynamics.solve_direct
            traj = res.timed_solve(solve, x, path, spec, opts)
            res.count_solve(traj, exempt_boundary)
            for name, fn in fns.items():
                rep = fn(traj, path)
                sup_residual[name][pid, level] = float(np.max(np.abs(rep.residual)))
                if out_dir is not None and pid == 0 and level == levels - 1:
                    rep.to_csv(os.path.join(out_dir, f"identity_{name}.csv"))
            if level + 1 < levels:
                path = noise.refine_path(path)
    return sup_residual


class Identities1D:
    name = "identities-1d"
    default_seed = 2025

    def __init__(self, seed: int):
        self.problem = load("identities-1d", seed)
        self.exact = load("exact-1d", seed)

    def run_pass(self, out_dir: str) -> PassResult:
        res = PassResult()
        t0 = time.perf_counter()
        ladder = identity_ladder(self.problem, res, out_dir=out_dir)
        res.problems += ladder_check(ladder, res.details)
        # a plane wave is not localised, so the boundary rule does not apply
        exact = identity_ladder(self.exact, res, exempt_boundary=True)
        res.problems += exact_check(exact)
        res.wall_s = time.perf_counter() - t0
        res.digest = _digest(*(ladder[n] for n in IDENTITY_NAMES),
                             *(exact[n] for n in IDENTITY_NAMES))
        return res


# ---------------------------------------------------------------------------
# schemes-2d

def l2_distance(grid, a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return math.sqrt(grid.cell_volume * float(np.sum(d.real ** 2 + d.imag ** 2)))


def schemes_check(sups: np.ndarray, details: dict | None = None) -> list:
    """sups[path, level] = sup_t |X_direct - X_rescaled|_2: strictly
    decreasing per path, with median halving rate >= MIN_HALVING_RATE."""
    problems = []
    for pid, row in enumerate(sups):
        if not np.all(np.diff(row) < 0):
            problems.append(f"path {pid}: sup differences not decreasing "
                            + " ".join(f"{s:.3e}" for s in row))
    rates = [float(np.median(np.log2(row[:-1] / row[1:]))) for row in sups]
    rate = float(np.median(rates))
    if details is not None:
        details.update(sups=sups.tolist(), halving_rate=rate)
    if not rate >= MIN_HALVING_RATE:
        problems.append(f"median halving rate {rate:.3f} < {MIN_HALVING_RATE}")
    return problems


class Schemes2D:
    name = "schemes-2d"
    default_seed = 7

    def __init__(self, seed: int):
        self.problem = load("schemes-2d", seed)

    def run_pass(self, out_dir: str, rescale: bool = True) -> PassResult:
        """`rescale=False` compares y itself with X_direct (a wrong
        comparison the check must reject)."""
        cfg, spec, x = self.problem.cfg, self.problem.spec, self.problem.x
        grid, model = spec.grid, spec.model
        levels, n_paths = cfg.verify.levels, cfg.run.n_paths
        opts = config.solve_options(cfg, stride=1)
        res = PassResult()
        t0 = time.perf_counter()
        sups = np.zeros((n_paths, levels))
        written = []
        for pid in range(n_paths):
            path = noise.sample_path(model, spec.T, cfg.n_steps, cfg.run.seed, pid)
            for level in range(levels):
                td = res.timed_solve(dynamics.solve_direct, x, path, spec, opts)
                ty = res.timed_solve(dynamics.solve_rescaled, x, path, spec, opts)
                res.count_solve(td)
                res.count_solve(ty)
                Xs = dynamics.rescaled_to_X(ty, path, model) if rescale else ty.snapshots
                sups[pid, level] = max(l2_distance(grid, a.values, b.values)
                                       for a, b in zip(td.snapshots, Xs))
                if level == levels - 1:
                    written += self._write_snapshots(out_dir, pid, ty, Xs, res)
                del td, ty, Xs
                if level + 1 < levels:
                    path = noise.refine_path(path)
        res.problems += schemes_check(sups, res.details)
        res.wall_s = time.perf_counter() - t0
        res.digest = _digest(sups, *written)
        return res

    def _write_snapshots(self, out_dir, pid, traj, Xs, res) -> list:
        """Write every stride-th X snapshot, read it back, compare bits."""
        stride = self.problem.cfg.run.stride
        values = []
        for idx, snap in zip(traj.snapshot_indices, Xs):
            if idx % stride:
                continue
            fname = os.path.join(out_dir, f"X_path{pid}_{idx:06d}.bin")
            t = float(traj.times[idx])
            config.write_snapshot(fname, snap, t)
            back, t_back = config.read_snapshot(fname)
            if t_back != t or back.values.tobytes() != snap.values.tobytes():
                res.problems.append(f"snapshot {fname} did not read back bit-identical")
            values.append(snap.values)
        return values


WORKLOADS = {w.name: w for w in (Ensemble1D, Identities1D, Schemes2D)}
