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
                       solve_direct, solve_rescaled)
from .identities import ALL_IDENTITIES
from .montecarlo import (EnsembleConfig, convergence_order, identity_ladder,
                         martingale_test, moment_monitor, run_ensemble)
from .noise import ladder_paths, sample_path
from .spectral import BOUNDARY_DECAY_TOL, NumericFailure


def _load(args) -> RunConfig:
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    if args.seed is not None:
        cfg = replace(cfg, run=replace(cfg.run, seed=args.seed))
    if args.out is not None:
        cfg = replace(cfg, run=replace(cfg.run, out=args.out))
    return cfg


def _outdir(cfg: RunConfig) -> str:
    os.makedirs(cfg.run.out, exist_ok=True)
    return cfg.run.out


def _write_diagnostics(path, traj: Trajectory):
    cols = ("mass", "hamiltonian", "h1", "lp")
    with open(path, "w") as fh:
        fh.write("t,mass,hamiltonian,h1,l_alpha_plus_1\n")
        for i, t in enumerate(traj.times):
            vals = ",".join(repr(float(traj.diagnostic(c)[i])) for c in cols)
            fh.write(f"{t!r},{vals}\n")


def _write_summary(path, lines):
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def _relative_drift(series: np.ndarray) -> float:
    base = abs(series[0])
    if base == 0.0:
        return float(np.max(np.abs(series - series[0])))
    return float(np.max(np.abs(series - series[0])) / base)


def _simulate_one(cfg: RunConfig, scheme: str, out: str, summary: list) -> int:
    spec = build_problem(cfg)
    x = build_initial(cfg, spec.grid)
    path = sample_path(spec.model, spec.T, cfg.n_steps, cfg.run.seed)
    solver = solve_direct if scheme == "direct" else solve_rescaled
    traj = solver(x, path, spec, solve_options(cfg))
    _write_diagnostics(os.path.join(out, f"diagnostics_{scheme}.csv"), traj)
    for idx, snap in zip(traj.snapshot_indices, traj.snapshots):
        write_snapshot(os.path.join(out, f"snapshot_{scheme}_{idx:06d}.bin"),
                       snap, float(traj.times[idx]))
    summary.append(f"{scheme}_status={traj.status.kind}")
    if traj.status.kind == "blowup":
        summary.append(f"{scheme}_blowup_time={traj.status.t!r}")
        summary.append(f"{scheme}_blowup_reason={traj.status.reason}")
    summary.append(f"{scheme}_mass_drift_rel={_relative_drift(traj.diagnostic('mass'))!r}")
    summary.append(
        f"{scheme}_hamiltonian_drift_rel={_relative_drift(traj.diagnostic('hamiltonian'))!r}")
    boundary_max = float(np.max(traj.diagnostic("boundary")))
    summary.append(f"{scheme}_boundary_max={boundary_max!r}")
    summary.append(f"{scheme}_boundary_trusted={str(boundary_max < BOUNDARY_DECAY_TOL).lower()}")
    return 2 if traj.status.kind == "blowup" else 0


def cmd_simulate(args) -> int:
    cfg = _load(args)
    out = _outdir(cfg)
    summary = ["command=simulate", f"seed={cfg.run.seed}",
               f"regime={cfg.regime.tag}"]
    schemes = ("direct", "rescaled") if cfg.scheme == "both" else (cfg.scheme,)
    code = 0
    for scheme in schemes:
        code = max(code, _simulate_one(cfg, scheme, out, summary))
    summary.append(f"exit_code={code}")
    _write_summary(os.path.join(out, "summary.txt"), summary)
    return code


def cmd_ensemble(args) -> int:
    cfg = _load(args)
    out = _outdir(cfg)
    spec = build_problem(cfg)
    x = build_initial(cfg, spec.grid)
    scheme = "direct" if cfg.scheme == "both" else cfg.scheme
    econf = EnsembleConfig(
        n_paths=cfg.run.n_paths, seed=cfg.run.seed, n_steps=cfg.n_steps,
        width=cfg.run.threads or None, scheme=scheme,
        options=solve_options(cfg, record_snapshots=False))
    report = run_ensemble(x, spec, econf)
    report.to_csv(os.path.join(out, "ensemble.csv"))
    summary = ["command=ensemble", f"seed={cfg.run.seed}",
               f"paths={cfg.run.n_paths}",
               f"blowup_paths={report.blowup_count}",
               f"numeric_failure_paths={report.failure_count}"]
    m0 = float(report.per_path["mass"][0, 0])
    if spec.model.n_modes > 0 and cfg.run.n_paths >= 100:
        mart = martingale_test(report, m0)
        summary.extend(mart.summary_lines())
    moments = moment_monitor(report, p=2.0, alpha=cfg.alpha)
    summary.extend(moments.summary_lines())
    _write_summary(os.path.join(out, "summary.txt"), summary)
    return 0


def cmd_verify_identities(args) -> int:
    cfg = _load(args)
    out = _outdir(cfg)
    spec = build_problem(cfg)
    x = build_initial(cfg, spec.grid)
    levels = max(1, cfg.verify.levels)
    n_paths = max(1, cfg.verify.paths)
    econf = EnsembleConfig(
        n_paths=n_paths, seed=cfg.run.seed, n_steps=cfg.n_steps, levels=levels,
        width=cfg.run.threads or None,
        scheme="direct" if cfg.scheme == "both" else cfg.scheme,
        options=solve_options(cfg))
    ladder = identity_ladder(x, spec, econf)

    summary = ["command=verify-identities", f"seed={cfg.run.seed}",
               f"paths={n_paths}", f"levels={levels}"]
    all_ok = True
    for name in ALL_IDENTITIES:
        med = np.median(ladder.terminal[name], axis=0)
        for lv, val in enumerate(med):
            summary.append(f"identity_{name}_median_level_{lv}={float(val)!r}")
        monotone = bool(np.all(np.diff(med) < 0)) if levels > 1 else True
        if levels > 1:
            slope = -float(np.polyfit(np.arange(levels), np.log2(np.maximum(med, 1e-300)), 1)[0])
            summary.append(f"identity_{name}_order={slope:.4f}")
        summary.append(f"identity_{name}_monotone={str(monotone).lower()}")
        summary.append(f"identity_{name}_terminal={float(med[-1])!r}")
        all_ok = all_ok and monotone
        ladder.finest[name].to_csv(os.path.join(out, f"identity_{name}.csv"))
    summary.append(f"identities_pass={str(all_ok).lower()}")
    summary.append(f"boundary_max={ladder.boundary_max!r}")
    summary.append(f"boundary_trusted={str(ladder.boundary_max < BOUNDARY_DECAY_TOL).lower()}")
    _write_summary(os.path.join(out, "summary.txt"), summary)
    return 0


def cmd_convergence(args) -> int:
    cfg = _load(args)
    out = _outdir(cfg)
    spec = build_problem(cfg)
    x = build_initial(cfg, spec.grid)
    levels = max(3, cfg.verify.levels)
    summary = ["command=convergence", f"seed={cfg.run.seed}", f"levels={levels}"]
    schemes = ("direct", "rescaled") if cfg.scheme == "both" else (cfg.scheme,)
    for scheme in schemes:
        econf = EnsembleConfig(
            n_paths=cfg.run.n_paths, seed=cfg.run.seed, n_steps=cfg.n_steps,
            levels=levels, width=cfg.run.threads or None, scheme=scheme,
            options=solve_options(cfg, record_snapshots=False))
        rep = convergence_order(x, spec, econf)
        summary.extend(rep.summary_lines())
        with open(os.path.join(out, f"convergence_{scheme}.csv"), "w") as fh:
            fh.write("level,strong_error\n")
            for lv, e in zip(rep.levels, rep.errors):
                fh.write(f"{lv},{e!r}\n")
    _write_summary(os.path.join(out, "summary.txt"), summary)
    return 0


def cmd_blowup_scan(args) -> int:
    cfg = _load(args)
    out = _outdir(cfg)
    spec = build_problem(cfg)
    x = build_initial(cfg, spec.grid)
    levels = max(2, cfg.verify.levels)
    opts = solve_options(cfg, record_snapshots=False)
    summary = ["command=blowup-scan", f"seed={cfg.run.seed}",
               f"regime={cfg.regime.tag}"]
    t_stars = []
    ladder = ladder_paths(spec.model, spec.T, cfg.n_steps, cfg.run.seed, [0], levels)
    for level, (path,) in enumerate(ladder):
        traj = solve_direct(x, path, spec, opts)
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
    _write_summary(os.path.join(out, "summary.txt"), summary)
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
