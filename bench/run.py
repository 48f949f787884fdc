#!/usr/bin/env python3
"""snls benchmark: run one verification workload and print its metrics.

    python3 bench/run.py --workload ensemble-1d --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from src/.
--trace 0 times whole passes of the workload until --seconds have elapsed
(always whole passes, at least one) and reports the end-to-end metrics.
--trace 1 runs one untraced and one traced pass, plus the per-layer
microbenchmarks, and reports the per-layer metrics; spans go to
bench/runs/<run>/spans.json.  Every pass checks its outputs; a failed check
exits 1.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(BENCH, "runs")

SETUP_REPEATS = 7

# The ensemble pool is the only parallelism the benchmark measures; BLAS
# threads on top of it oversubscribe the cores and add run-to-run spread.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "snls", "__init__.py")):
        sys.exit(f"bench: no snls package under {SRC}")
    sys.path[:0] = [SRC, BENCH]
    import snls
    if os.path.dirname(os.path.dirname(os.path.abspath(snls.__file__))) != SRC:
        sys.exit(f"bench: imported snls from {snls.__file__}, not from {SRC}")


def _setup_seconds(workload: str, seed: int) -> float:
    """Median cold set-up time over SETUP_REPEATS fresh interpreters."""
    probe = os.path.join(BENCH, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, probe, workload, str(seed)],
                             check=True, capture_output=True, text=True,
                             timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest reaped child (pool workers
    and set-up probes), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _one_pass(run_pass, run_dir, **kwargs):
    pass_dir = tempfile.mkdtemp(prefix="pass-", dir=run_dir)
    try:
        return run_pass(pass_dir, **kwargs)
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def _verdict(passes) -> list:
    problems = [p for r in passes for p in r.problems]
    if len({r.digest for r in passes}) > 1:
        problems.append("checked outputs differ between passes of the same inputs")
    return problems


def end_to_end(workload, seed: int, seconds: float, run_dir: str):
    setup_s = _setup_seconds(workload.name, seed)
    wl = workload(seed)
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(_one_pass(wl.run_pass, run_dir))
    metrics = {
        "wall_s": (statistics.median(r.wall_s for r in passes), "s"),
        "setup_s": (setup_s, "s"),
        "path_steps_per_s": (statistics.median(r.path_steps / r.solver_s
                                               for r in passes), "1/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    return passes, metrics


def per_layer(workload, seed: int, run_dir: str):
    import layers
    from spans import IDENTITY_SPANS, SOLVER_SPANS, Tracer

    setups = []
    for _ in range(SETUP_REPEATS):
        with Tracer() as tr:
            wl = workload(seed)
        setups.append(tr)
    untraced = _one_pass(wl.run_pass, run_dir)
    with Tracer() as tr:
        traced = _one_pass(wl.run_pass, run_dir)
    passes = [untraced, traced]
    pool = Tracer()
    width = getattr(wl, "POOL_WIDTH", 0)
    if width:
        with pool:
            passes.append(_one_pass(wl.run_pass, run_dir, width=width))
        pool.dump(os.path.join(run_dir, f"spans_width{width}.json"))
    tr.dump(os.path.join(run_dir, "spans.json"))
    own = tr.self_times()

    def self_s(*names):
        return sum((own.get(n, 0.0) for n in names), 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    def wall(tracer, name):
        return sum((s.duration for s in tracer.named(name)), 0.0)

    solves = tr.named(*SOLVER_SPANS)
    identity = tr.named(*IDENTITY_SPANS)
    checked_snaps = sum(s.attrs["snapshots"] for s in tr.named("identities.mass"))
    ens_1 = wall(tr, "montecarlo.run_ensemble")
    ens_w = wall(pool, "montecarlo.run_ensemble")
    solve_s = self_s(*SOLVER_SPANS)
    m = {
        "config.parse_ms": 1e3 * statistics.median(
            wall(t, "config.parse_config") for t in setups),
        "config.build_ms": 1e3 * statistics.median(
            wall(t, "config.build_problem") + wall(t, "config.build_initial")
            for t in setups),
        "config.write_snapshot_ms": 1e3 * self_s("config.write_snapshot"),
        "config.bytes_written": sum(s.attrs["bytes"]
                                    for s in tr.named("config.write_snapshot")),
        "dynamics.solve_s": solve_s,
        "dynamics.fft_per_path_step": ratio(sum(s.ffts for s in solves),
                                            sum(s.attrs["steps"] for s in solves)),
        "dynamics.rescaled_to_X_s": self_s("dynamics.rescaled_to_X"),
        "identities.mass_s": self_s("identities.mass"),
        "identities.hamiltonian_s": self_s("identities.hamiltonian"),
        "identities.lp_s": self_s("identities.lp"),
        "identities.h1_s": self_s("identities.h1"),
        "identities.fft_per_snapshot": ratio(sum(s.ffts for s in identity),
                                             checked_snaps),
        "identities.to_csv_ms": 1e3 * self_s("identities.to_csv"),
        "montecarlo.run_ensemble_s": ens_w,
        "montecarlo.run_ensemble_width1_s": ens_1,
        "montecarlo.width": width,
        "montecarlo.pool_overhead_s": ens_w - ratio(solve_s, width),
        "montecarlo.parallel_efficiency": ratio(ens_1, width * ens_w),
        "montecarlo.martingale_test_ms": 1e3 * self_s("montecarlo.martingale_test"),
        "montecarlo.to_csv_ms": 1e3 * self_s("montecarlo.to_csv"),
        "trace.untraced_pass_s": untraced.wall_s,
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
    }
    m.update(layers.all_metrics(seed))
    return passes, {name: (value, unit_of(name)) for name, value in m.items()}


def unit_of(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix) or f"{suffix}." in name:
            return unit
    if name.endswith("parallel_efficiency"):
        return "1"
    return "count"


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    os.environ.update(SINGLE_THREADED)
    _import_library()
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's config seed)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    signal.signal(signal.SIGTERM, _interrupt)

    os.makedirs(RUNS, exist_ok=True)
    run_dir = tempfile.mkdtemp(
        prefix=f"{args.workload}-s{seed}-t{args.trace}-", dir=RUNS)
    try:
        if args.trace:
            passes, metrics = per_layer(workload, seed, run_dir)
        else:
            passes, metrics = end_to_end(workload, seed, args.seconds, run_dir)
    except KeyboardInterrupt:
        print("bench: interrupted", file=sys.stderr)
        return 130
    problems = _verdict(passes)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in passes),
        "failed": sum(r.failed for r in passes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=seed, trace=args.trace,
                  problems=problems, details=passes[0].details,
                  passes=[{"wall_s": r.wall_s, "solver_s": r.solver_s,
                           "path_steps": r.path_steps} for r in passes])
    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
