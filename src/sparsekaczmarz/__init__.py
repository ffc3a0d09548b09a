"""Randomized row-action solvers for sparse solutions of consistent linear systems.

The package provides the classical randomized Kaczmarz method (RK), its
sparse variant with soft thresholding (SRK), and a greedy sampling variant
(SSKM) that draws a random row subset each iteration and projects, in the
Bregman sense, onto the most violated hyperplane in the subset. Diagnostics
verify the supporting convergence theory (contraction factors, error bounds,
noise envelopes) directly on solver traces.
"""

from .bregman import (
    DualPair,
    StepMode,
    bregman_distance,
    conjugate_value,
    exact_step,
    inexact_step,
    objective_value,
    project_hyperplane,
    soft_threshold,
)
from .linsys import LinearSystem, normalize_rows, residual
from .sampling import (
    SamplerConfig,
    Selection,
    SelectionRule,
    sample_subset,
    select_motzkin,
)
from .solvers import (
    IterationTrace,
    RunStatus,
    SolverSpec,
    StoppingRule,
    init_state,
    run,
    step_once,
)
from .diagnostics import (
    SingularValues,
    TheoryReport,
    build_theory_report,
    contraction_factor,
    density,
    error_bound_margin,
    gamma_from_residuals,
    min_abs_nonzero,
    mse,
    noisy_envelope,
    one_two_norm,
    replay_duals,
    smallest_nonzero_singular_value,
)
from .harness import (
    ExperimentConfig,
    add_noise,
    child_rng,
    child_seed,
    compare_methods,
    gaussian_instance,
    load_config,
    real_matrix_bench,
    resolve_beta,
    solve_single,
    sweep_beta,
    sweep_lambda,
)
from .matrixmarket import read_matrix_market, write_matrix_market

__version__ = "0.1.0"

__all__ = [
    "DualPair",
    "ExperimentConfig",
    "IterationTrace",
    "LinearSystem",
    "RunStatus",
    "SamplerConfig",
    "Selection",
    "SelectionRule",
    "SingularValues",
    "SolverSpec",
    "StepMode",
    "StoppingRule",
    "TheoryReport",
    "add_noise",
    "bregman_distance",
    "build_theory_report",
    "child_rng",
    "child_seed",
    "compare_methods",
    "conjugate_value",
    "contraction_factor",
    "density",
    "error_bound_margin",
    "exact_step",
    "gamma_from_residuals",
    "gaussian_instance",
    "inexact_step",
    "init_state",
    "load_config",
    "min_abs_nonzero",
    "mse",
    "noisy_envelope",
    "normalize_rows",
    "objective_value",
    "one_two_norm",
    "project_hyperplane",
    "read_matrix_market",
    "real_matrix_bench",
    "replay_duals",
    "residual",
    "resolve_beta",
    "run",
    "sample_subset",
    "select_motzkin",
    "smallest_nonzero_singular_value",
    "soft_threshold",
    "solve_single",
    "step_once",
    "sweep_beta",
    "sweep_lambda",
    "write_matrix_market",
]
