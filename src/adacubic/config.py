"""Hyperparameters, trust-region state, and the xi-update / acceptance rules."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields


class IterationClass(enum.Enum):
    VERY_SUCCESSFUL = "VerySuccessful"
    SUCCESSFUL = "Successful"
    UNSUCCESSFUL = "Unsuccessful"


@dataclass(frozen=True)
class AdaCubicConfig:
    """Universal hyperparameters of the optimizer.

    The defaults are the fixed, tuning-free values used across all
    benchmarks; only change them if you know why.
    """

    eta1: float = 0.05
    eta2: float = 0.75
    alpha1: float = 2.5
    alpha2: float = 0.25
    kappa_easy: float = 0.01
    eps_m: float = 1e-6
    hutchinson_samples: int = 1
    max_newton_iters: int = 100
    kkt_tol: float = 1e-8
    rng_seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.eta1 <= self.eta2 < 1.0):
            raise ValueError(f"need 0 < eta1 <= eta2 < 1, got {self.eta1}, {self.eta2}")
        if not (0.0 < self.alpha2 < 1.0 <= self.alpha1):
            raise ValueError(f"need 0 < alpha2 < 1 <= alpha1, got {self.alpha2}, {self.alpha1}")
        if not (0.0 < self.kappa_easy < 1.0):
            raise ValueError(f"kappa_easy must be in (0, 1), got {self.kappa_easy}")
        if self.eps_m <= 0.0:
            raise ValueError(f"eps_m must be positive, got {self.eps_m}")
        if self.hutchinson_samples < 1:
            raise ValueError("hutchinson_samples must be >= 1")
        if self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be >= 1")
        if self.kkt_tol < 0.0:
            raise ValueError("kkt_tol must be nonnegative")

    def replace(self, **kwargs) -> "AdaCubicConfig":
        vals = {f.name: getattr(self, f.name) for f in fields(self)}
        vals.update(kwargs)
        return AdaCubicConfig(**vals)


@dataclass
class TrustRegionState:
    """Cube of the trust radius and the iteration count of one run."""

    xi: float = 1.0
    iteration: int = 0


def classify_iteration(rho: float, cfg: AdaCubicConfig) -> IterationClass:
    """Three-way split of the agreement ratio rho.

    The boundary rho == eta1 counts as Successful: the step is accepted
    and xi is kept.
    """
    if math.isnan(rho):
        raise ValueError("rho is NaN; the step was degenerate and must be handled upstream")
    if rho >= cfg.eta2:
        return IterationClass.VERY_SUCCESSFUL
    if rho >= cfg.eta1:
        return IterationClass.SUCCESSFUL
    return IterationClass.UNSUCCESSFUL


def accept_step(rho: float, cfg: AdaCubicConfig) -> bool:
    if math.isnan(rho):
        raise ValueError("rho is NaN; the step was degenerate and must be handled upstream")
    return rho >= cfg.eta1


def update_xi(state: TrustRegionState, rho: float, step_norm_cubed: float,
              cfg: AdaCubicConfig) -> float:
    """New value of xi after one iteration with ratio ``rho``.

    Very successful iterations expand toward alpha1*||s||^3, successful
    ones keep xi, unsuccessful ones shrink to alpha2*||s||^3 floored at
    eps_m.  The floor guarantees xi >= eps_m for every subsequent solve.
    """
    if step_norm_cubed < 0.0:
        raise ValueError("step_norm_cubed must be nonnegative")
    cls = classify_iteration(rho, cfg)
    if cls is IterationClass.VERY_SUCCESSFUL:
        return max(cfg.alpha1 * step_norm_cubed, state.xi)
    if cls is IterationClass.SUCCESSFUL:
        return state.xi
    return max(cfg.alpha2 * step_norm_cubed, cfg.eps_m)
