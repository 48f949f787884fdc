"""Command-line front end: simulate / ensemble / verify-identities /
convergence / blowup-scan, all driven by one config file.

Every command writes a diagnostics CSV, optional binary snapshots, and a
machine-parseable key=value summary block.  Exit codes: 0 ok, 1 error,
2 blowup detected (simulate only).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .config import (ConfigError, RunConfig, SnapshotError, build_initial,
                     build_problem, parse_config, solve_options, write_snapshot)
from .dynamics import (CFLError, NoContractionError, RegimeError, Trajectory,
                       X_consumer, solve_block)
from .identities import ALL_IDENTITIES
from .montecarlo import (EnsembleConfig, convergence_order, identity_ladder,
                         martingale_test, moment_monitor, run_ensemble)
from .noise import ladder_paths, sample_path
from .spectral import BOUNDARY_DECAY_TOL, NumericFailure, boundary_ratios


def _setup(args):
    """(config with --seed/--out applied, its created out directory, problem, initial datum)."""
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    given = {k: v for k, v in (("seed", args.seed), ("out", args.out)) if v is not None}
    cfg = replace(cfg, run=replace(cfg.run, **given))
    os.makedirs(cfg.run.out, exist_ok=True)
    spec = build_problem(cfg)
    return cfg, cfg.run.out, spec, build_initial(cfg, spec.grid)


def _schemes(cfg: RunConfig) -> tuple:
    return ("direct", "rescaled") if cfg.scheme == "both" else (cfg.scheme,)


def _ensemble_config(cfg: RunConfig, scheme: str, **fields) -> EnsembleConfig:
    """[run] m, seed and threads, no snapshots (engines record their own); `fields` override."""
    fields.setdefault("n_paths", cfg.run.n_paths)
    return EnsembleConfig(seed=cfg.run.seed, n_steps=cfg.n_steps, scheme=scheme,
                          width=cfg.run.threads or None,
                          options=solve_options(cfg, record_snapshots=False), **fields)


def _trust_lines(boundary_max: float, prefix: str = "") -> list:
    """The README's trust rule: a field that reaches the box faces is not trusted."""
    return [f"{prefix}boundary_max={boundary_max!r}",
            f"{prefix}boundary_trusted={str(boundary_max < BOUNDARY_DECAY_TOL).lower()}"]


def _write_diagnostics(path, traj: Trajectory):
    cols = ("mass", "hamiltonian", "h1", "lp")
    with open(path, "w") as fh:
        fh.write("t,mass,hamiltonian,h1,l_alpha_plus_1\n")
        for i, t in enumerate(traj.times):
            vals = ",".join(repr(float(traj.diagnostic(c)[i])) for c in cols)
            fh.write(f"{t!r},{vals}\n")


def _write_summary(out: str, lines: list):
    with open(os.path.join(out, "summary.txt"), "w") as fh:
        fh.writelines(line + "\n" for line in lines)


def _relative_drift(series: np.ndarray) -> float:
    drift = np.max(np.abs(series - series[0]))
    return float(drift / abs(series[0]) if series[0] != 0.0 else drift)


def cmd_simulate(args) -> int:
    cfg, out, spec, x = _setup(args)
    summary = ["command=simulate", f"seed={cfg.run.seed}",
               f"regime={cfg.regime.tag}"]
    path = sample_path(spec.model, spec.T, cfg.n_steps, cfg.run.seed)
    code = 0
    for scheme in _schemes(cfg):
        ratios = []   # X's boundary ratio at each kept row; the diagnostics are y's
        track = X_consumer(lambda start, X, live, kept: ratios.extend(
            boundary_ratios(spec.grid, np.abs(X[:kept[0], 0]))), [path], spec.model, scheme)
        (traj,) = solve_block(x, [path], spec, solve_options(cfg), scheme, track)
        _write_diagnostics(os.path.join(out, f"diagnostics_{scheme}.csv"), traj)
        for idx, snap in zip(traj.snapshot_indices, traj.snapshots):
            write_snapshot(os.path.join(out, f"snapshot_{scheme}_{idx:06d}.bin"),
                           snap, float(traj.times[idx]))
        summary.append(f"{scheme}_status={traj.status.kind}")
        if traj.status.kind == "blowup":
            summary.append(f"{scheme}_blowup_time={traj.status.t!r}")
            summary.append(f"{scheme}_blowup_reason={traj.status.reason}")
            code = 2
        for name in ("mass", "hamiltonian"):
            drift = _relative_drift(traj.diagnostic(name))
            summary.append(f"{scheme}_{name}_drift_rel={drift!r}")
        summary.extend(_trust_lines(float(np.max(ratios)), f"{scheme}_"))
    summary.append(f"exit_code={code}")
    _write_summary(out, summary)
    return code


def cmd_ensemble(args) -> int:
    cfg, out, spec, x = _setup(args)
    econf = _ensemble_config(cfg, _schemes(cfg)[0],
                             observables=("mass", "hamiltonian", "h1", "lp", "boundary"))
    report = run_ensemble(x, spec, econf)
    report.to_csv(os.path.join(out, "ensemble.csv"))
    summary = ["command=ensemble", f"seed={cfg.run.seed}",
               f"paths={cfg.run.n_paths}",
               f"blowup_paths={report.blowup_count}",
               f"numeric_failure_paths={report.failure_count}"]
    if spec.model.n_modes > 0 and cfg.run.n_paths >= 100:
        summary.extend(martingale_test(report, report.per_path["mass"][0, 0]).summary_lines())
    summary.extend(moment_monitor(report, p=2.0, alpha=cfg.alpha).summary_lines())
    summary.extend(_trust_lines(float(np.nanmax(report.per_path["boundary"]))))
    _write_summary(out, summary)
    return 0


def cmd_verify_identities(args) -> int:
    cfg, out, spec, x = _setup(args)
    levels, n_paths = cfg.verify.levels, cfg.verify.paths
    ladder = identity_ladder(x, spec, _ensemble_config(cfg, _schemes(cfg)[0],
                                                       n_paths=n_paths, levels=levels))

    summary = ["command=verify-identities", f"seed={cfg.run.seed}",
               f"paths={n_paths}", f"levels={levels}"]
    all_ok = ladder.unfinished_paths == 0
    for name in ALL_IDENTITIES:
        med, mean_sup = np.median(ladder.terminal[name], axis=0), np.mean(ladder.sup[name], axis=0)
        summary += [f"identity_{name}_median_level_{lv}={float(v)!r}" for lv, v in enumerate(med)]
        summary += [f"identity_{name}_mean_sup_level_{lv}={float(v)!r}"
                    for lv, v in enumerate(mean_sup)]
        # the verdict: each level cuts the mean over paths of sup_t |residual| (the median
        # terminal residual is quadrature noise at few paths) or is at the roundoff floor
        floor = 1e-12 * float(np.max(np.abs(ladder.finest[name].lhs)))
        monotone = bool(np.all((np.diff(mean_sup) < 0) | (mean_sup[1:] <= floor)))
        if levels > 1:
            slope = -float(np.polyfit(np.arange(levels), np.log2(np.maximum(med, 1e-300)), 1)[0])
            summary.append(f"identity_{name}_order={slope:.4f}")
        summary.append(f"identity_{name}_roundoff_floor={floor!r}")
        summary.append(f"identity_{name}_monotone={str(monotone).lower()}")
        summary.append(f"identity_{name}_terminal={float(med[-1])!r}")
        all_ok = all_ok and monotone
        ladder.finest[name].to_csv(os.path.join(out, f"identity_{name}.csv"))
    summary.append(f"identity_unfinished_paths={ladder.unfinished_paths}")
    summary.append(f"identities_pass={str(all_ok).lower()}")
    summary.extend(_trust_lines(ladder.boundary_max))
    _write_summary(out, summary)
    return 0


def cmd_convergence(args) -> int:
    cfg, out, spec, x = _setup(args)
    levels = max(3, cfg.verify.levels)
    summary = ["command=convergence", f"seed={cfg.run.seed}", f"levels={levels}"]
    for scheme in _schemes(cfg):
        rep = convergence_order(x, spec, _ensemble_config(cfg, scheme, levels=levels))
        summary.extend(rep.summary_lines())
        with open(os.path.join(out, f"convergence_{scheme}.csv"), "w") as fh:
            fh.write("level,strong_error\n")
            for lv, e in zip(rep.levels, rep.errors):
                fh.write(f"{lv},{e!r}\n")
    _write_summary(out, summary)
    return 0


def cmd_blowup_scan(args) -> int:
    cfg, out, spec, x = _setup(args)
    levels = max(2, cfg.verify.levels)
    opts = solve_options(cfg, record_snapshots=False)
    summary = ["command=blowup-scan", f"seed={cfg.run.seed}",
               f"regime={cfg.regime.tag}"]
    t_stars = []
    for level, paths in enumerate(ladder_paths(spec.model, spec.T, cfg.n_steps,
                                               cfg.run.seed, [0], levels)):
        (traj,) = solve_block(x, paths, spec, opts)
        t_star = traj.status.t if traj.status.kind == "blowup" else None
        summary.append(f"blowup_level_{level}="
                       + (repr(float(t_star)) if t_star is not None else "none"))
        t_stars.append(t_star)
    raised = all(t is not None for t in t_stars)
    summary.append(f"blowup_detected={str(raised).lower()}")
    if raised:
        finest = t_stars[-1]
        stability = max(abs(t - finest) for t in t_stars) / finest
        summary.append(f"blowup_t_star={finest!r}")
        summary.append(f"blowup_stability={stability!r}")
    _write_summary(out, summary)
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "ensemble": cmd_ensemble,
    "verify-identities": cmd_verify_identities,
    "convergence": cmd_convergence,
    "blowup-scan": cmd_blowup_scan,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snls",
        description="Spectral stochastic-NLS simulator and verification lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run config file")
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
        p.add_argument("--out", default=None, help="override [run] out directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, SnapshotError, RegimeError, NoContractionError, CFLError,
            NumericFailure, OSError) as exc:
        print(f"snls: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
