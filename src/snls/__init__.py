"""Spectral simulator and verification lab for the stochastic nonlinear
Schrodinger equation with linear multiplicative Wiener noise."""

from .spectral import (Field, Grid, GridMismatchError, NumericFailure,
                       boundary_ratio, field_from_function, gradient, h1_norm,
                       inner_product, laplacian, lp_norm, nyquist_cutoff,
                       theta_m, zero_field)
from .noise import (ConstantProfile, CosineProfile, GaussianProfile, NoiseMode,
                    NoiseModel, WienerPath, build_model, eval_W, ladder_paths,
                    refine_path, sample_path)
from .functionals import hamiltonian, mass
from .dynamics import (BlowupThresholds, CFLError, NoContractionError,
                       PicardDiagnostics, ProblemSpec, Regime, RegimeError, Snapshots,
                       SolveOptions, StepFlags, Trajectory, TrajectoryStatus,
                       classify, is_strichartz_pair,
                       picard_solve, propagator_apply, rescaled_coefficients,
                       rescaled_to_X, solve_direct, solve_rescaled,
                       step_direct, step_rescaled, transform)
from .identities import (IdentityReport, StrideError, h1_identity,
                         hamiltonian_identity, lp_identity, mass_identity)
from .montecarlo import (ContinuityReport, ConvergenceReport, EnsembleConfig,
                         EnsembleReport, IdentityLadder, MartingaleResult,
                         MomentReport, continuity_probe, convergence_order,
                         identity_ladder, martingale_test, moment_monitor,
                         run_ensemble)
from .config import (ConfigError, RunConfig, build_initial, build_problem,
                     parse_config, read_snapshot, serialize_config,
                     write_snapshot)

__version__ = "0.1.0"
