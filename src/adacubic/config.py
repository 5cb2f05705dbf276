"""Hyperparameters and the trust-region rule that accepts a step and resizes xi."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class IterationClass(enum.Enum):
    VERY_SUCCESSFUL = "VerySuccessful"
    SUCCESSFUL = "Successful"
    UNSUCCESSFUL = "Unsuccessful"


@dataclass(frozen=True)
class AdaCubicConfig:
    """Universal hyperparameters of the method, and the initial xi.

    The defaults are the fixed, tuning-free values used across all
    benchmarks; only change them if you know why.  The subproblem solver's
    tolerances are not among them: they are constants of ``subproblem.py``.
    Every check is written so that NaN fails it.
    """

    eta1: float = 0.05
    eta2: float = 0.75
    alpha1: float = 2.5
    alpha2: float = 0.25
    eps_m: float = 1e-6
    hutchinson_samples: int = 1
    xi0: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.eta1 <= self.eta2 < 1.0):
            raise ValueError(f"need 0 < eta1 <= eta2 < 1, got {self.eta1}, {self.eta2}")
        if not (0.0 < self.alpha2 < 1.0 <= self.alpha1):
            raise ValueError(f"need 0 < alpha2 < 1 <= alpha1, got {self.alpha2}, {self.alpha1}")
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
    rho >= eta2 the iteration is very successful and xi expands toward
    alpha1*||s||^3, never shrinking; at eta1 <= rho < eta2 (the boundary
    rho == eta1 included) it is successful and xi is kept; below eta1 xi
    shrinks to alpha2*||s||^3, floored at eps_m.  With ``eps_m <= xi0``
    the floor keeps xi >= eps_m throughout a run.
    """
    if math.isnan(rho):
        raise ValueError("rho is NaN; the step was degenerate and must be handled upstream")
    if step_norm_cubed < 0.0:
        raise ValueError("step_norm_cubed must be nonnegative")
    if rho >= cfg.eta2:
        return IterationClass.VERY_SUCCESSFUL, max(cfg.alpha1 * step_norm_cubed, xi)
    if rho >= cfg.eta1:
        return IterationClass.SUCCESSFUL, xi
    return IterationClass.UNSUCCESSFUL, max(cfg.alpha2 * step_norm_cubed, cfg.eps_m)
