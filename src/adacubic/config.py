"""Hyperparameters and the trust-region rule that accepts a step and resizes xi."""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import ClassVar


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
    """The Hutchinson probe count, the one value a run may set.

    The default is the fixed value used across all benchmarks.  The xi floor
    ``eps_m`` and the initial xi ``xi0`` are constants of the class, the
    trust-region rule's ETA1, ETA2, ALPHA1 and ALPHA2 constants above, and
    the solver's tolerances constants of ``subproblem.py``.
    """

    eps_m: ClassVar[float] = 1e-6
    xi0: ClassVar[float] = 1.0
    hutchinson_samples: int = 1

    def __post_init__(self):
        count = self.hutchinson_samples
        # sys.maxsize is numpy's largest array dimension, the most rows a
        # probe block can have; a smaller count may still be too large to allocate
        if (isinstance(count, bool) or not isinstance(count, int)
                or not 1 <= count <= sys.maxsize):
            raise ValueError("hutchinson_samples must be an integer in "
                             f"[1, sys.maxsize], got {count!r}")


def update_xi(xi: float, rho: float, step_norm_cubed: float) -> tuple[IterationClass, float]:
    """Class of an iteration with ratio ``rho``, and the new value of xi.

    The step is accepted exactly when the class is not UNSUCCESSFUL.  At
    rho >= ETA2 it is very successful and xi grows toward ALPHA1*||s||^3,
    never shrinking; at ETA1 <= rho < ETA2 (ETA1 included) it is successful
    and xi is kept; below ETA1 xi shrinks to ALPHA2*||s||^3, floored at the
    constant ``AdaCubicConfig.eps_m``: as ``eps_m <= xi0``, xi >= eps_m
    throughout a run.
    """
    if math.isnan(rho):
        raise ValueError("rho is NaN; the step was degenerate and must be handled upstream")
    if step_norm_cubed < 0.0:
        raise ValueError("step_norm_cubed must be nonnegative")
    if rho >= ETA2:
        return IterationClass.VERY_SUCCESSFUL, max(ALPHA1 * step_norm_cubed, xi)
    if rho >= ETA1:
        return IterationClass.SUCCESSFUL, xi
    return IterationClass.UNSUCCESSFUL, max(ALPHA2 * step_norm_cubed, AdaCubicConfig.eps_m)
