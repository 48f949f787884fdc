"""Per-layer microbenchmarks: a fixed amount of work per grid, one path, in
one process.  Every figure is the median over REPEATS of the mean time per
call, or per path-step for the solver figures."""

from __future__ import annotations

import statistics
import time

import snls.config as config
import snls.dynamics as dynamics
import snls.functionals as functionals
import snls.noise as noise
import snls.spectral as spectral

REPEATS = 5

# grid tag -> (d, n, L, calls per repeat, direct steps, rescaled steps)
GRIDS = {
    "d1n256": (1, 256, 32.0, 400, 400, 50),
    "d2n128": (2, 128, 24.0, 40, 30, 5),
    "d3n64": (3, 64, 24.0, 3, 2, 1),
}

# cubic defocusing, one real Gaussian mode, as in ensemble-1d; dt = 1e-3
# keeps the rescaled scheme inside its stability bound on all three grids
_TEMPLATE = """
[problem]
d = {d}
n = {n}
L = {L}
alpha = 3.0
lambda = -1
T = {T}
dt = 1e-3
initial = gaussian

[noise.1]
mu_re = 1.0
mu_im = 0.0
profile = gaussian
height = 1.0
width = 3.0

[run]
seed = {seed}
"""

# flags of the direct-scheme variants; each single-substep figure is that
# variant's time minus the all-off (diagnostics row and loop only) time
_OFF = dict(linear=False, nonlinear=False, noise=False)
DIRECT_VARIANTS = {
    "direct_step": dynamics.StepFlags(),
    "direct_diag": dynamics.StepFlags(**_OFF),
    "direct_nonlinear": dynamics.StepFlags(**{**_OFF, "nonlinear": True}),
    "direct_linear": dynamics.StepFlags(**{**_OFF, "linear": True}),
    "direct_noise": dynamics.StepFlags(**{**_OFF, "noise": True}),
}


def _per_call_us(fn, calls: int) -> float:
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for i in range(calls):
            fn(i)
        samples.append((time.perf_counter() - t0) / calls)
    return 1e6 * statistics.median(samples)


def _direct_us(x, path, spec) -> dict:
    """us per path-step of solve_direct for each flag variant.  The variants
    run in turn within each repeat, and the single-substep figures are
    medians of differences taken within a repeat, so that slow drift of the
    machine's speed does not leak into them."""
    samples = {name: [] for name in DIRECT_VARIANTS}
    for _ in range(REPEATS):
        for name, flags in DIRECT_VARIANTS.items():
            opts = dynamics.SolveOptions(record_snapshots=False, flags=flags)
            t0 = time.perf_counter()
            dynamics.solve_direct(x, path, spec, opts)
            samples[name].append(1e6 * (time.perf_counter() - t0) / path.n_steps)
    diag = samples["direct_diag"]
    return {name: statistics.median(
                ts if name in ("direct_step", "direct_diag")
                else [t - d for t, d in zip(ts, diag)])
            for name, ts in samples.items()}


def grid_metrics(tag: str, seed: int) -> dict:
    d, n, L, calls, direct_steps, rescaled_steps = GRIDS[tag]
    steps = max(direct_steps, rescaled_steps)
    cfg = config.parse_config(_TEMPLATE.format(d=d, n=n, L=L, T=steps * 1e-3,
                                               seed=seed))
    spec = config.build_problem(cfg)
    grid, model = spec.grid, spec.model
    x = config.build_initial(cfg, grid)
    path = noise.sample_path(model, spec.T, steps, seed)
    out = {
        "spectral.fft_pair_us": _per_call_us(
            lambda _: spectral.inverse(grid, spectral.forward(x)), calls),
        "spectral.gradient_us": _per_call_us(
            lambda _: spectral.gradient_arrays(grid, x.values), calls),
        "noise.step_dW_us": _per_call_us(
            lambda i: noise.step_dW(model, path, i % steps), calls),
        "noise.eval_W_us": _per_call_us(
            lambda i: noise.eval_W(model, path, i % steps), calls),
        "functionals.mass_us": _per_call_us(lambda _: functionals.mass(x), calls),
        "functionals.hamiltonian_us": _per_call_us(
            lambda _: functionals.hamiltonian(x, cfg.alpha, cfg.lam), calls),
        "dynamics.rescaled_coefficients_us": _per_call_us(
            lambda i: dynamics.rescaled_coefficients(model, path, i % steps), calls),
    }
    direct_path = noise.sample_path(model, direct_steps * 1e-3, direct_steps, seed)
    for name, us in _direct_us(x, direct_path, spec).items():
        out[f"dynamics.{name}_us"] = us
    rescaled_path = noise.sample_path(model, rescaled_steps * 1e-3, rescaled_steps, seed)
    nosnap = dynamics.SolveOptions(record_snapshots=False)
    out["dynamics.rescaled_step_us"] = _per_call_us(
        lambda _: dynamics.solve_rescaled(x, rescaled_path, spec, nosnap),
        1) / rescaled_steps
    return {f"{name}.{tag}": value for name, value in out.items()}


def path_metrics(seed: int, steps: int = 1000, calls: int = 200) -> dict:
    """Brownian path sampling and dyadic refinement, one mode, 1000 steps."""
    model = noise.build_model([noise.NoiseMode(1.0, noise.GaussianProfile())],
                              spectral.Grid(1, 256, 32.0))
    path = noise.sample_path(model, 0.5, steps, seed)
    return {
        "noise.sample_path_us": _per_call_us(
            lambda i: noise.sample_path(model, 0.5, steps, seed, i), calls),
        "noise.refine_path_us": _per_call_us(lambda _: noise.refine_path(path), calls),
    }


def all_metrics(seed: int) -> dict:
    out = path_metrics(seed)
    for tag in GRIDS:
        out.update(grid_metrics(tag, seed))
    return out
