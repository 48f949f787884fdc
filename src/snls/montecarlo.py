"""Ensemble execution and statistical verification.

Paths are independent by construction (counter-based seeds keyed on the path
index) and are solved in consecutive blocks whose sizes depend on the grid,
the path count and the parallel width, while a path's bits depend on neither
its block nor its block-mates; the reduction is an ordered fold by path index
and ensemble reports are bit-reproducible for a fixed (master seed, config).
The identity ladder, the continuity probe and convergence_order loop over
solve_chunks' kept rows as X while they are solved (the ladder makes all four
identities' terms in one identity_terms pass per chunk); convergence_order keeps
only the rows some level has not yet passed, advancing its levels side by side
for the sup-in-t error and one after another at the horizon.
"""

from __future__ import annotations

import math
import os
import warnings
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .config import ConfigError, write_table
from .dynamics import (BLOCK_POINTS, ProblemSpec, RegimeError, SolveOptions, each_chunk,
                       solve_block, solve_chunks)
# not called here: the benchmark's tracer (bench/spans.py) patches these names
from .dynamics import solve_direct, solve_rescaled  # noqa: F401
from .identities import IDENTITY_NAMES, identity_report, identity_terms
from .noise import ladder_paths
from .spectral import Field, Grid, boundary_ratios, h1_norm, quadrature


ENSEMBLE_POINTS = 4 * BLOCK_POINTS
"""Grid points of one step's states in a run_ensemble block, which keeps no
trajectory: 512 KiB complex, 128 paths on a 256-point line sharing each call."""


def block_size(grid: Grid, points: int = BLOCK_POINTS) -> int:
    """Paths per block: one step's states fill `points` grid points (at least one)."""
    return max(1, points // grid.n ** grid.d)


@dataclass(frozen=True)
class EnsembleConfig:
    n_paths: int
    seed: int
    n_steps: int
    levels: int = 1
    observables: tuple = ("mass", "hamiltonian", "h1", "lp")
    width: int | None = None
    scheme: str = "direct"
    options: SolveOptions = SolveOptions(record_snapshots=False)


@dataclass
class EnsembleReport:
    times: np.ndarray
    per_path: dict            # observable -> (n_paths, n_times) array, NaN after a stop
    statuses: list            # TrajectoryStatus per path
    config: EnsembleConfig

    @property
    def n_paths(self) -> int:
        return self.config.n_paths

    @property
    def blowup_count(self) -> int:
        return sum(1 for s in self.statuses if s.kind == "blowup")

    @property
    def failure_count(self) -> int:
        return sum(1 for s in self.statuses if s.kind == "numeric-failure")

    # NaN at times with too few finite paths, without numpy's warning about them
    def mean(self, obs: str) -> np.ndarray:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Mean of empty slice", RuntimeWarning)
            return np.nanmean(self.per_path[obs], axis=0)

    def variance(self, obs: str) -> np.ndarray:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Degrees of freedom <= 0", RuntimeWarning)
            return np.nanvar(self.per_path[obs], axis=0, ddof=1)

    def stderr(self, obs: str) -> np.ndarray:
        finite = np.sum(np.isfinite(self.per_path[obs]), axis=0)
        return np.sqrt(self.variance(obs) / finite)

    def to_csv(self, path):
        columns = {"t": self.times}
        for obs in self.per_path:
            columns.update({f"{obs}_mean": self.mean(obs), f"{obs}_var": self.variance(obs),
                            f"{obs}_ci3": 3.0 * self.stderr(obs)})
        write_table(path, columns)


def ensemble_width(config: EnsembleConfig) -> int:
    if config.width is not None:
        if config.width < 1:
            raise ValueError(f"ensemble width must be at least 1, got {config.width}")
        return config.width
    env = os.environ.get("SNLS_THREADS", "").strip()
    if not env:
        return max(1, os.cpu_count() or 1)
    if not (env.isdigit() and int(env) >= 1):
        raise ConfigError(f"SNLS_THREADS must be a positive integer, got {env!r}")
    return int(env)


_WORKER_CTX = {}


def _worker_init(task):
    _WORKER_CTX["task"] = task


def _worker_block(ids):
    return _WORKER_CTX["task"](ids)


def _map_blocks(task, config: EnsembleConfig, block: int) -> list:
    """task(ids) over the config's path ids in max(ceil(n_paths / block), width)
    consecutive blocks (at most n_paths) whose sizes differ by at most one,
    in-process at width 1 or over a pool; the per-path results in path order."""
    n_paths, width = config.n_paths, ensemble_width(config)
    n_blocks = max(-(-n_paths // block), min(width, n_paths))
    blocks = [range(n_paths * j // n_blocks, n_paths * (j + 1) // n_blocks)
              for j in range(n_blocks)]
    if width == 1 or len(blocks) == 1:
        parts = [task(ids) for ids in blocks]
    else:
        with ProcessPoolExecutor(max_workers=min(width, len(blocks)),
                                 initializer=_worker_init, initargs=(task,)) as ex:
            parts = list(ex.map(_worker_block, blocks))
    return [r for part in parts for r in part]


def _ensemble_block(x: Field, spec: ProblemSpec, config: EnsembleConfig, ids) -> list:
    *_, paths = ladder_paths(spec.model, spec.T, config.n_steps, config.seed, ids,
                             config.levels)
    n_times = paths[0].n_steps + 1
    return [({obs: np.concatenate([tr.diagnostic(obs), np.full(n_times - len(tr.times), np.nan)])
              for obs in config.observables}, tr.status)
            for tr in solve_block(x, paths, spec, config.options, config.scheme)]


def run_ensemble(x: Field, spec: ProblemSpec, config: EnsembleConfig) -> EnsembleReport:
    """Run n_paths independent paths; blowup paths are recorded, not fatal."""
    if config.n_paths < 1:
        raise ValueError("need at least one path")
    results = _map_blocks(partial(_ensemble_block, x, spec, config), config,
                          block_size(spec.grid, ENSEMBLE_POINTS))
    n_times = config.n_steps * 2 ** (config.levels - 1) + 1
    times = np.linspace(0.0, spec.T, n_times)
    per_path = {obs: np.vstack([r[0][obs] for r in results])
                for obs in config.observables}
    statuses = [r[1] for r in results]
    return EnsembleReport(times, per_path, statuses, config)


# ---------------------------------------------------------------------------
# martingale test

@dataclass
class MartingaleResult:
    passed: bool
    checkpoint_times: np.ndarray
    deviations: np.ndarray     # |mean - m0|
    allowances: np.ndarray     # 3*SE + bias
    z_scores: np.ndarray

    def summary_lines(self):
        yield f"martingale_pass={str(self.passed).lower()}"
        yield f"martingale_max_z={max(self.z_scores):.6g}"


def martingale_test(report: EnsembleReport, initial_mass: float,
                    n_checkpoints: int = 10, bias=None) -> MartingaleResult:
    """E mass(X(t)) = mass(x) within 3*SE plus a scheme-bias allowance.

    A roundoff floor of 1e-12 * initial mass keeps the zero-variance
    conservative case (mass pathwise constant, SE = 0) from failing on
    accumulated floating-point drift.
    """
    if report.n_paths < 100:
        raise ValueError("martingale test needs at least 100 paths")
    n_times = len(report.times)
    idx = np.unique(np.linspace(1, n_times - 1, n_checkpoints).astype(int))
    mean = report.mean("mass")[idx]
    se = report.stderr("mass")[idx]
    b = np.zeros(len(idx)) if bias is None else np.asarray(bias, dtype=float)
    dev = np.abs(mean - initial_mass)
    allow = 3.0 * se + b + 1e-12 * abs(initial_mass)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, dev / se, np.where(dev > allow, np.inf, 0.0))
    return MartingaleResult(bool(np.all(dev <= allow)), report.times[idx],
                            dev, allow, z)


def estimate_mass_bias(x: Field, spec: ProblemSpec, config: EnsembleConfig,
                       n_checkpoints: int = 10) -> np.ndarray:
    """Scheme-bias allowance from one dt halving on a coupled sub-ensemble:
    |mean mass at dt - mean mass at dt/2| at the shared checkpoints."""
    coarse = run_ensemble(x, spec, config)
    fine = run_ensemble(x, spec, replace(config, levels=config.levels + 1))
    n_times = len(coarse.times)
    idx = np.unique(np.linspace(1, n_times - 1, n_checkpoints).astype(int))
    return np.abs(coarse.mean("mass")[idx] - fine.mean("mass")[2 * idx])


# ---------------------------------------------------------------------------
# moment monitor

@dataclass
class MomentReport:
    p: float
    e_sup_mass_p: float
    e_sup_energy: float
    divergent: bool

    def summary_lines(self):
        yield f"moment_divergent={str(self.divergent).lower()}"
        if not self.divergent:
            yield f"moment_e_sup_mass_p={self.e_sup_mass_p!r}"
            yield f"moment_e_sup_energy={self.e_sup_energy!r}"


def moment_monitor(report: EnsembleReport, p: float, alpha: float) -> MomentReport:
    """Empirical E sup_t |X|_2^p and E sup_t (|grad X|_2^2 + |X|_{a+1}^{a+1}).

    Any path that did not finish flips the divergence flag instead of
    contributing a value.
    """
    if any(s.kind != "finished" for s in report.statuses):
        return MomentReport(p, math.nan, math.nan, True)
    mass = report.per_path["mass"]
    h1 = report.per_path["h1"]
    lp = report.per_path["lp"]
    grad_l2 = h1 - np.sqrt(mass)
    sup_mass_p = np.max(mass ** (p / 2.0), axis=1)
    sup_energy = np.max(grad_l2 ** 2 + lp ** (alpha + 1.0), axis=1)
    return MomentReport(p, float(np.mean(sup_mass_p)), float(np.mean(sup_energy)),
                        False)


# ---------------------------------------------------------------------------
# strong convergence order

@dataclass
class ConvergenceReport:
    levels: list
    errors: list               # strong errors vs the finest level
    order: float
    inconclusive: bool
    scheme: str
    unfinished_paths: int     # paths left out: not finished at every level

    def summary_lines(self):
        yield f"convergence_scheme={self.scheme}"
        for lv, e in zip(self.levels, self.errors):
            yield f"convergence_error_level_{lv}={e!r}"
        yield f"convergence_order={self.order:.4f}"
        yield f"convergence_unfinished_paths={self.unfinished_paths}"
        yield f"convergence_inconclusive={str(self.inconclusive).lower()}"


def _convergence_block(x: Field, spec: ProblemSpec, config: EnsembleConfig,
                       sup_over_time: bool, ids) -> list:
    """Per path, its error at each coarser level, or None if it did not finish every level.
    For each compared base index i, finest level first, each level is pulled until it has
    passed i (row i * strides[l] at level l), and at the last i to its end; each coarser level's
    X at base indices up to i then raises a running max of its L2 distance to the finest's, and
    those rows go.  At the horizon, the only i, the levels so run one after another."""
    B, opts = len(ids), replace(config.options, record_snapshots=False)
    solves = [solve_chunks(x, paths, spec, opts, config.scheme) for paths in ladder_paths(
        spec.model, spec.T, config.n_steps, config.seed, ids, config.levels)]
    # sup-in-t compares at every base-grid time; the default at the horizon only
    strides = [2 ** lv * (1 if sup_over_time else config.n_steps) for lv in range(config.levels)]
    last = config.n_steps if sup_over_time else 1   # the last compared base index
    passed = np.full(config.levels, -1.0)   # the base time each level's rows have reached
    # each level's rows not yet compared, as base index * B + path and X, in that order
    waiting = [(np.empty(0, dtype=int), np.empty((0, *spec.grid.shape), complex))] * config.levels
    errors = np.zeros((B, config.levels - 1))
    finished = np.ones(B, dtype=bool)
    for i in range(last + 1) if sup_over_time else [last]:
        for level in reversed(range(config.levels)):
            while passed[level] < (i if i < last else math.inf):
                try:
                    t, b, X = next(solves[level])
                except StopIteration as done:
                    finished &= [traj.status.kind == "finished" for traj in done.value]
                    passed[level] = math.inf
                    continue
                passed[level], due = t[-1] / strides[level], t % strides[level] == 0
                waiting[level] = [np.concatenate(pair) for pair in zip(
                    waiting[level], (t[due] // strides[level] * B + b[due], X[due].rows()))]
        n = [np.searchsorted(key, (i + 1) * B) for key, _ in waiting]   # the rows up to base index i
        top, finest = (a[:n[-1]] for a in waiting[-1])
        for level, ((key, rows), m) in enumerate(zip(waiting[:-1], n)):
            _, mine, theirs = np.intersect1d(key[:m], top, assume_unique=True, return_indices=True)
            with np.errstate(over="ignore", invalid="ignore"):   # a row whose e^W overflowed
                diff = np.abs(rows[mine] - finest[theirs]) ** 2
                np.maximum.at(errors[:, level], key[mine] % B, np.sqrt(quadrature(spec.grid, diff)))
        waiting = [(key[m:], rows[m:].copy()) for m, (key, rows) in zip(n, waiting)]
    return [e if ok else None for e, ok in zip(errors, finished)]


def convergence_order(x: Field, spec: ProblemSpec, config: EnsembleConfig,
                      sup_over_time: bool = False) -> ConvergenceReport:
    """Strong L2 errors against the finest of `levels` coupled dt levels,
    with the fitted log2 slope.  Errors are taken at the horizon unless
    sup_over_time is set, which compares at every base-grid time with the
    levels advanced side by side; at the horizon they run one after another.
    No level's X is kept whole.  A path that does not finish at every level
    is left out of the errors and makes the report inconclusive; RegimeError
    if no path finishes."""
    if config.levels < 3:
        raise ValueError("order fit needs at least 3 levels")
    results = _map_blocks(partial(_convergence_block, x, spec, config, sup_over_time), config,
                          block_size(spec.grid))
    finished = [errs for errs in results if errs is not None]
    if not finished:
        raise RegimeError(f"convergence: none of {config.n_paths} paths finished every level")
    errors = [float(np.mean([errs[level] for errs in finished]))
              for level in range(config.levels - 1)]
    levels = list(range(config.levels - 1))
    logs = np.log2(np.maximum(errors, 1e-300))
    slope = float(np.polyfit(levels, logs, 1)[0])
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    unfinished = len(results) - len(finished)
    return ConvergenceReport(levels, errors, -slope, not monotone or unfinished > 0,
                             config.scheme, unfinished)


# ---------------------------------------------------------------------------
# Ito-identity ladder

@dataclass
class IdentityLadder:
    terminal: dict            # identity -> (n_paths, levels) |terminal residual|
    sup: dict                 # identity -> (n_paths, levels) sup_t |residual|
    finest: dict              # identity -> IdentityReport of path 0, finest level
    boundary_max: float       # largest boundary ratio of X over paths, levels and steps
    statuses: np.ndarray      # (n_paths, levels) TrajectoryStatus kind

    @property
    def unfinished_paths(self) -> int:
        """Paths that stopped early (blowup or numeric failure) at some level."""
        return int(np.sum(np.any(self.statuses != "finished", axis=1)))


def _identity_block(x: Field, spec: ProblemSpec, config: EnsembleConfig, ids) -> list:
    """Per path, each identity's |terminal| and sup_t |residual| at each level, its
    largest boundary ratio of X, its finest reports if it is path 0, and its statuses:
    the per-path series of one identity_terms pass over each chunk's kept rows, as X."""
    terminal = np.zeros((len(ids), len(IDENTITY_NAMES), config.levels))
    sup = np.zeros_like(terminal)
    boundary = np.zeros((len(ids), config.levels))
    statuses = np.empty((len(ids), config.levels), dtype=object)
    finest = [None] * len(ids)
    ladder = ladder_paths(spec.model, spec.T, config.n_steps, config.seed, ids, config.levels)
    for level, paths in enumerate(ladder):
        dt, count, trajs = paths[0].dt, np.zeros(len(ids), dtype=int), []
        db = np.zeros((paths[0].n_steps + 1, len(ids), spec.model.n_modes))
        db[:-1] = np.stack([p.increments for p in paths], axis=1)   # the last row starts none
        series = {name: defaultdict(partial(np.empty, (len(ids), len(db))))
                  for name in IDENTITY_NAMES}
        for t, b, X in each_chunk(solve_chunks(x, paths, spec, replace(
                config.options, record_snapshots=False), config.scheme), trajs):
            with np.errstate(over="ignore", invalid="ignore"):   # a row whose e^W overflowed
                X = X.rows()
                np.maximum.at(boundary[:, level], b, boundary_ratios(spec.grid, np.abs(X)))
                np.add.at(count, b, 1)
                for name, rows in identity_terms(X, db[t, b], dt, spec.model, spec,
                                                 config.options.flags, IDENTITY_NAMES).items():
                    for key, r in rows.items():
                        series[name][key][b, t] = r
        for b, (traj, path, m) in enumerate(zip(trajs, paths, count)):
            # a path's reports end at its last row handed over: before a numeric failure
            reports = {name: identity_report(name, path.times[:m], path,
                                             {k: s[b, :m].copy() for k, s in rows.items()})
                       for name, rows in series.items()}
            statuses[b, level] = traj.status.kind
            terminal[b, :, level] = [abs(r.terminal_residual) for r in reports.values()]
            sup[b, :, level] = [np.max(np.abs(r.residual)) for r in reports.values()]
            if ids[b] == 0 and level == config.levels - 1:
                finest[b] = reports
    return list(zip(terminal, sup, boundary, finest, statuses))


def identity_ladder(x: Field, spec: ProblemSpec, config: EnsembleConfig) -> IdentityLadder:
    """Every Ito identity on each of n_paths paths at each of `levels` coupled
    dt levels, each step checked as it is solved.  A block keeps 22 series per path and
    time: 8 * BLOCK_POINTS path-times hold them to 11 MB (32 paths over 2000 steps)."""
    n_times = config.n_steps * 2 ** (config.levels - 1) + 1
    results = _map_blocks(partial(_identity_block, x, spec, config), config,
                          max(1, min(block_size(spec.grid), 8 * BLOCK_POINTS // n_times)))
    terminal, sup, boundary, statuses = (np.stack([r[i] for r in results]) for i in (0, 1, 2, 4))
    return IdentityLadder({name: terminal[:, k] for k, name in enumerate(IDENTITY_NAMES)},
                          {name: sup[:, k] for k, name in enumerate(IDENTITY_NAMES)},
                          results[0][3], float(np.max(boundary)), statuses)


# ---------------------------------------------------------------------------
# continuous-dependence probe

@dataclass
class ContinuityReport:
    deltas: list
    ratios: np.ndarray        # (n_paths, n_deltas)
    spread: float             # max over paths of max/min across deltas
    bounded: bool


def _continuity_block(x: Field, deltas: list, spec: ProblemSpec, config: EnsembleConfig,
                      direction: Field, ids) -> list:
    """Per path, its ratio at each delta.  The base run and the perturbed runs
    of every path in `ids` are rows of one solve; each chunk raises the running
    sup_t |X_delta - X_base|_{H1} of each (path, delta)."""
    starts = np.stack([x.values] + [x.values + d * direction.values for d in deltas])
    (paths,) = ladder_paths(spec.model, spec.T, config.n_steps, config.seed, ids, 1)
    paths = [path for path in paths for _ in starts]
    sup, trajs = np.zeros((len(ids), len(deltas))), []
    for t, b, X in each_chunk(solve_chunks(np.concatenate([starts] * len(ids)), paths, spec,
                                           replace(config.options, record_snapshots=False),
                                           config.scheme), trajs):
        if len(X) != len(paths) * len(np.unique(t)):   # a run has stopped: the probe fails below
            continue
        X = X.rows().reshape(-1, len(ids), len(starts), *spec.grid.shape)
        with np.errstate(over="ignore", invalid="ignore"):   # a row whose e^W overflowed
            for diffs in np.subtract(X[:, :, 1:], X[:, :, :1]):
                np.maximum(sup, [[h1_norm(Field(spec.grid, u)) for u in d] for d in diffs], out=sup)
    for a, traj in enumerate(trajs):
        if traj.status.kind != "finished":
            run = f"delta={deltas[a % len(starts) - 1]}" if a % len(starts) else "base"
            raise RegimeError(f"continuity probe: {run} run ended with {traj.status.kind}")
    return list(sup / (np.array(deltas) * h1_norm(direction)))


def continuity_probe(x: Field, deltas, spec: ProblemSpec, config: EnsembleConfig,
                     direction: Field, spread_cap: float = 10.0) -> ContinuityReport:
    """Per path and per delta: sup_t |X(x + delta v) - X(x)|_{H1} / (delta |v|_{H1}),
    with each path's base and perturbed runs solved in one path block."""
    deltas = [float(d) for d in deltas]
    if any(d <= 0 for d in deltas):
        raise ValueError("deltas must be positive")
    ratios = np.array(_map_blocks(partial(_continuity_block, x, deltas, spec, config, direction),
                                  config, max(1, block_size(spec.grid) // (1 + len(deltas)))))
    spread = float(np.max(np.max(ratios, axis=1) / np.min(ratios, axis=1)))
    return ContinuityReport(deltas, ratios, spread, spread <= spread_cap)
