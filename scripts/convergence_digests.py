#!/usr/bin/env python3
"""Bit digests of convergence_order over a sweep of small problems.

Runs convergence_order on four problems (one real noise mode, one complex
mode mu = 0.6+0.5i, no noise, and one real mode with an H1 cap that one
path crosses) x both schemes x the error at the horizon and the sup-in-t
error x widths 1 and 2: 32 cases on a 64-point line, a Gaussian datum, 6
paths of 50 base steps, 3 coupled dt levels and seed 3.  The setting is fixed:
the capped problem's cap lies halfway between the two largest H1 ratios at
this setting, so that exactly one path crosses it.  It prints one line per case:

    problem scheme horizon|sup width=W errors=HEX,... order=HEX unfinished=K inconclusive=B

with every error and the order as float.hex.  Two trees whose convergence
arithmetic is the same print the same lines, so `diff` of their output is a
bit check of convergence_order:

    python3 scripts/convergence_digests.py > tree.txt

The package comes from this checkout's src/.
"""

import argparse
import os
import sys
from dataclasses import replace
from itertools import product

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBLEMS = ("real", "complex", "zero-mode", "one-unfinished")
N, PATHS, STEPS, LEVELS, SEED = 64, 6, 50, 3, 3   # grid points, paths, base steps, dt levels


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    from snls.dynamics import BlowupThresholds, ProblemSpec, SolveOptions
    from snls.montecarlo import EnsembleConfig, convergence_order, run_ensemble
    from snls.noise import GaussianProfile, NoiseMode, build_model
    from snls.spectral import Field, Grid

    grid = Grid(1, N, 16.0)

    def gaussian(amp):
        return Field(grid, amp * np.exp(-grid.meshes[0] ** 2 / 2.0))

    def problem(name, scheme):
        # the rescaled scheme's cap is on y, whose H1 passes its start only when focusing
        lam, x = (1, gaussian(2.0)) if name == "one-unfinished" and scheme == "rescaled" else (
            -1, gaussian(1.0))
        mu = {"real": 1.0 + 0j, "complex": 0.6 + 0.5j, "zero-mode": None}.get(name, 1.0 + 0j)
        modes = [] if mu is None else [NoiseMode(mu, GaussianProfile(1.0, 3.0, (0, 0, 0)))]
        return ProblemSpec(grid, build_model(modes, grid), 3.0, lam, 0.25), x

    for name, scheme, sup_over_time, width in product(PROBLEMS, ("direct", "rescaled"),
                                                       (False, True), (1, 2)):
        spec, x = problem(name, scheme)
        config = EnsembleConfig(n_paths=PATHS, seed=SEED, n_steps=STEPS, levels=LEVELS,
                                width=width, scheme=scheme,
                                options=SolveOptions(record_snapshots=False))
        if name == "one-unfinished":   # halfway between the two largest sup_t h1(t)/h1(0)
            h1 = run_ensemble(x, spec, config).per_path["h1"]
            cap = float(np.mean(np.sort(np.max(h1, axis=1) / h1[:, 0])[-2:]))
            config = replace(config, options=SolveOptions(
                record_snapshots=False, thresholds=BlowupThresholds(h1_factor=cap)))
        rep = convergence_order(x, spec, config, sup_over_time)
        print(name, scheme, "sup" if sup_over_time else "horizon", f"width={width}",
              "errors=" + ",".join(float.hex(e) for e in rep.errors),
              f"order={float.hex(rep.order)}", f"unfinished={rep.unfinished_paths}",
              f"inconclusive={str(rep.inconclusive).lower()}", flush=True)


if __name__ == "__main__":
    main()
