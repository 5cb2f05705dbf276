"""Adaptive cubic-regularized Newton optimizer with diagonal curvature.

The cubic weight is the dual variable of a cubically-constrained model
subproblem, solved per step by a safeguarded scalar Newton iteration; the
Hessian diagonal is estimated from Hessian-vector products with Rademacher
probes.
"""

from .config import (AdaCubicConfig, IterationClass, TrustRegionState,
                     accept_step, classify_iteration, update_xi)
from .driver import (StepRecord, Trajectory, adacubic_step, adam_step, rho,
                     run, run_baseline, sgd_step)
from .hutchinson import exhaustive_diag, hutchinson_diag, rademacher_vector
from .problems import (Objective, brute_force_subproblem_min, draw_batch,
                       finite_difference_hvp, load_logistic_csv, make_logistic,
                       make_quadratic, make_rosenbrock, make_saddle,
                       make_synthetic_logistic)
from .subproblem import (KktResidual, ShiftNotPositiveDefiniteError,
                         SolverStallError, SubproblemSolution, SubproblemStatus,
                         dphi_dnu, hard_case_step, kkt_residual, phi,
                         root_finder, solve_shifted)

__version__ = "0.1.0"

__all__ = [
    "AdaCubicConfig", "IterationClass", "TrustRegionState", "accept_step",
    "classify_iteration", "update_xi",
    "StepRecord", "Trajectory", "adacubic_step", "adam_step", "rho", "run",
    "run_baseline", "sgd_step",
    "exhaustive_diag", "hutchinson_diag", "rademacher_vector",
    "Objective", "brute_force_subproblem_min", "draw_batch",
    "finite_difference_hvp", "load_logistic_csv", "make_logistic",
    "make_quadratic", "make_rosenbrock", "make_saddle", "make_synthetic_logistic",
    "KktResidual", "ShiftNotPositiveDefiniteError", "SolverStallError",
    "SubproblemSolution", "SubproblemStatus", "dphi_dnu", "hard_case_step",
    "kkt_residual", "phi", "root_finder", "solve_shifted",
]
