"""Cubically-constrained model minimizer for diagonal curvature.

Solves  min_s  g^T s + 1/2 s^T Diag(b) s   s.t.  ||s||_2^3 <= xi
via one bracketed Newton-bisection loop on the dual variable nu of the
constraint (More & Sorensen 1983; Conn, Gould & Toint 2000, ch. 7), with
one closed-form shifted solve per pass (the curvature is diagonal) and an
explicit negative-curvature branch for the hard case.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# the solver's own accuracy parameters, not hyperparameters of the method:
# the relative radius band of the boundary search, the scale of its
# stationarity stop test, and its budget of Newton-bisection passes
KAPPA_EASY = 0.01
KKT_TOL = 1e-8
MAX_NEWTON_ITERS = 100


class SolverStallError(RuntimeError):
    """The boundary search spent its ``MAX_NEWTON_ITERS`` passes without
    meeting its stop test on a well-posed instance; carries the last iterate."""

    def __init__(self, message: str, best: "SubproblemSolution"):
        super().__init__(message)
        self.best = best


class SubproblemStatus(enum.Enum):
    INTERIOR = "Interior"
    BOUNDARY = "Boundary"
    HARD_CASE = "HardCase"


@dataclass(frozen=True)
class SubproblemSolution:
    s: np.ndarray
    nu: float
    status: SubproblemStatus
    newton_iters: int
    newton_iters_to_band: int
    model_decrease: float


def _solve(b, g, nu: float, r: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The shift b + nu r / 2, which must be positive, s = -g / shift and ||s||."""
    shift = b + 0.5 * nu * r
    s = -g / shift
    # sqrt(v.dot(v)) is how np.linalg.norm computes a vector's 2-norm; on a
    # contiguous v, as s is here, v.dot(v) == v @ v and costs less
    return shift, s, math.sqrt(s.dot(s))


def _dphi(shift: np.ndarray, s: np.ndarray, ns: float, r: float) -> float:
    """d(phi)/d(nu) from an already computed shift, s and ||s|| (see verify.dphi_dnu)."""
    return float(0.5 * r * np.add.reduce(s * s / shift) / ns ** 3)


def hard_case_step(b: np.ndarray, g: np.ndarray, s_reg: np.ndarray,
                   xi: float) -> tuple[np.ndarray, float]:
    """Extend an interior regularized solve to the boundary along e_j, j = argmin b.

    For diagonal curvature the most-negative eigenvector is a coordinate
    axis.  Of the two roots of ||s_reg + alpha e_j|| = xi^(1/3), the one
    with the larger model decrease wins; ties go to the larger alpha.
    """
    r = xi ** (1.0 / 3.0)
    j = int(np.argmin(b))  # smallest index on ties, for determinism
    rest = float(s_reg @ s_reg - s_reg[j] ** 2)
    disc = r * r - rest
    if disc < 0.0:
        raise AssertionError("hard case invoked with ||s_reg|| >= radius")
    root = np.sqrt(disc)
    candidates = []
    for alpha in (-s_reg[j] + root, -s_reg[j] - root):
        s = s_reg.copy()
        s[j] += alpha
        # both candidates share ||s|| = r, so the cubic term ranks nothing
        candidates.append((_model_decrease(b, g, s, 0.0, r), float(alpha), s))
    _, alpha, s = max(candidates, key=lambda c: c[:2])
    return s, alpha


def _model_decrease(b, g, s, nu, ns) -> float:
    return float(-(g @ s + 0.5 * s @ (b * s) + nu / 6.0 * ns ** 3))


def root_finder(b: np.ndarray, g: np.ndarray, xi: float) -> SubproblemSolution:
    """Full model-minimizer search: interior / boundary / hard-case branches.

    On the boundary the dual variable is found by one bracketed
    Newton-bisection loop on the secular equation.  Each pass solves the
    shifted system once; it stops when ||s|| is inside the relative radius
    band ``KAPPA_EASY`` and the stationarity residual is below
    ``KKT_TOL * (1 + ||g||)`` (a few extra quadratic-phase passes), so
    emitted steps satisfy the KKT conditions tightly.  Otherwise it narrows
    the bracket and takes the Newton step, or bisects (doubles while the
    bracket has no upper end) when that step leaves the bracket.  At most
    ``MAX_NEWTON_ITERS`` steps are taken; then :class:`SolverStallError`
    carries the last iterate.  Needs 0 < xi < inf and finite 1-D b and g of
    one length; otherwise raises ``ValueError`` before any solve.
    """
    b = np.asarray(b, dtype=float)
    g = np.asarray(g, dtype=float)
    if b.ndim != 1 or b.shape != g.shape:
        raise ValueError("b and g must be 1-D arrays of one length")
    if not (0.0 < xi < math.inf):  # NaN fails
        raise ValueError(f"need 0 < xi < inf, got {xi!r}")
    lam = float(np.minimum.reduce(b))
    gg = g @ g
    # b is finite iff its extremes are; g iff g @ g is, unless that overflows
    if not (math.isfinite(lam) and math.isfinite(np.maximum.reduce(b))
            and (math.isfinite(gg) or np.isfinite(g).all())):
        raise ValueError("b and g must be finite")

    r = xi ** (1.0 / 3.0)
    # shift > 0 at this nu (lam > 0, or the margin below lam) and at every later, no smaller nu
    nu = 0.0 if lam > 0.0 else -2.0 * (lam - max(1e-8, 1e-8 * abs(lam))) / r
    shift, s, ns = _solve(b, g, nu, r)

    if ns ** 3 <= xi:
        # s = 0 (g = 0) is interior or a hard-case escape, never on the boundary
        if ns > 0.0 and abs(ns ** 3 - xi) <= 1e-12 * xi:
            status = SubproblemStatus.BOUNDARY
        elif lam >= 0.0:
            status, nu = SubproblemStatus.INTERIOR, 0.0
        else:
            status = SubproblemStatus.HARD_CASE
            s, _ = hard_case_step(b, g, s, xi)
            ns = math.sqrt(s.dot(s))
        return SubproblemSolution(s, nu, status, 0, 0, _model_decrease(b, g, s, nu, ns))

    # ||s||^3 > xi: the constraint is active and phi(nu, r) < 0 here
    tol_abs = KKT_TOL * (1.0 + math.sqrt(gg))
    nu_lo, nu_hi = nu, math.inf
    iters_to_band = -1
    for iters in range(MAX_NEWTON_ITERS + 1):
        gap = abs(ns - r)
        if gap <= KAPPA_EASY * r:
            if iters_to_band < 0:
                iters_to_band = iters
            if 0.5 * nu * gap * float(np.maximum.reduce(np.abs(s))) <= tol_abs:
                return SubproblemSolution(s, nu, SubproblemStatus.BOUNDARY, iters,
                                          iters_to_band, _model_decrease(b, g, s, nu, ns))
        if iters == MAX_NEWTON_ITERS:
            break
        phi_val = 1.0 / ns - 1.0 / r
        if phi_val < 0.0:
            nu_lo = max(nu_lo, nu)
        else:
            nu_hi = min(nu_hi, nu)
        proposal = nu - phi_val / _dphi(shift, s, ns, r)
        if not (nu_lo < proposal < nu_hi):
            proposal = 0.5 * (nu_lo + nu_hi) if math.isfinite(nu_hi) else 2.0 * max(nu, 1.0)
        nu = proposal
        shift, s, ns = _solve(b, g, nu, r)

    best = SubproblemSolution(s, nu, SubproblemStatus.BOUNDARY, iters,
                              max(iters_to_band, 0), _model_decrease(b, g, s, nu, ns))
    raise SolverStallError(
        f"dual Newton-bisection failed to converge after {iters} iterations", best)
