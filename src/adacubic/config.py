"""Hyperparameters and the trust-region rule that accepts a step and resizes xi."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class IterationClass(enum.Enum):
    VERY_SUCCESSFUL = "VerySuccessful"
    SUCCESSFUL = "Successful"
    UNSUCCESSFUL = "Unsuccessful"


# fixed constants of the trust-region rule, as in ARC, not hyperparameters
ETA1 = 0.05
ETA2 = 0.75
ALPHA1 = 2.5
ALPHA2 = 0.25


@dataclass(frozen=True)
class AdaCubicConfig:
    """The xi floor, the Hutchinson probe count and the initial xi.

    The defaults are the fixed values used across all benchmarks.  The
    trust-region rule's ETA1, ETA2, ALPHA1 and ALPHA2 are constants above,
    and the solver's tolerances constants of ``subproblem.py``.  Every check
    is written so that NaN fails it.
    """

    eps_m: float = 1e-6
    hutchinson_samples: int = 1
    xi0: float = 1.0

    def __post_init__(self):
        if not (self.eps_m > 0.0):
            raise ValueError(f"eps_m must be positive, got {self.eps_m}")
        count = self.hutchinson_samples
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ValueError(f"hutchinson_samples must be an integer >= 1, got {count!r}")
        if not (self.eps_m <= self.xi0 < math.inf):
            raise ValueError(f"need eps_m <= xi0 < inf, got {self.xi0}")


def update_xi(xi: float, rho: float, step_norm_cubed: float,
              cfg: AdaCubicConfig) -> tuple[IterationClass, float]:
    """Class of an iteration with ratio ``rho``, and the new value of xi.

    The step is accepted exactly when the class is not UNSUCCESSFUL.  At
    rho >= ETA2 it is very successful and xi grows toward ALPHA1*||s||^3,
    never shrinking; at ETA1 <= rho < ETA2 (ETA1 included) it is successful
    and xi is kept; below ETA1 xi shrinks to ALPHA2*||s||^3, floored at
    ``cfg.eps_m``: with ``eps_m <= xi0``, xi >= eps_m throughout a run.
    """
    if math.isnan(rho):
        raise ValueError("rho is NaN; the step was degenerate and must be handled upstream")
    if step_norm_cubed < 0.0:
        raise ValueError("step_norm_cubed must be nonnegative")
    if rho >= ETA2:
        return IterationClass.VERY_SUCCESSFUL, max(ALPHA1 * step_norm_cubed, xi)
    if rho >= ETA1:
        return IterationClass.SUCCESSFUL, xi
    return IterationClass.UNSUCCESSFUL, max(ALPHA2 * step_norm_cubed, cfg.eps_m)
