"""Adaptive cubic-regularized Newton optimizer with diagonal curvature.

The cubic weight is the dual variable of a cubically-constrained model
subproblem, solved per step by a safeguarded scalar Newton iteration; the
Hessian diagonal is estimated from Hessian-vector products with Rademacher
probes.
"""

from .config import AdaCubicConfig, IterationClass, update_xi
from .driver import (StepRecord, Trajectory, adacubic_step, adam_step, run,
                     run_baseline)
from .hutchinson import hutchinson_diag
from .problems import (Objective, draw_batch, load_logistic_csv, make_logistic,
                       make_quadratic, make_rosenbrock, make_saddle,
                       make_synthetic_logistic)
from .subproblem import (SolverStallError, SubproblemSolution, SubproblemStatus,
                         root_finder)

__version__ = "0.1.0"

__all__ = [
    "AdaCubicConfig", "IterationClass", "update_xi",
    "StepRecord", "Trajectory", "adacubic_step", "adam_step", "run",
    "run_baseline",
    "hutchinson_diag",
    "Objective", "draw_batch", "load_logistic_csv", "make_logistic",
    "make_quadratic", "make_rosenbrock", "make_saddle", "make_synthetic_logistic",
    "SolverStallError", "SubproblemSolution", "SubproblemStatus", "root_finder",
]
