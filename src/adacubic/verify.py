"""Self-contained property suites behind the ``verify`` CLI command, and the
reference implementations that the suites and the tests compare against.

Each suite returns (name, passed, detail).  The random instances are
seeded, so the printed report is byte-identical across invocations.  No
run executes the references, and ``import adacubic`` does not import this
module, so they add nothing to its import time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from .hutchinson import hutchinson_diag, rademacher_probes
from .subproblem import (KAPPA_EASY, SubproblemSolution, SubproblemStatus, _dphi, _solve,
                         root_finder)

STATIONARITY_TOL = 1e-6  # criterion 1: stationarity <= this * (1 + ||g||)
CURVATURE_SLACK = 1e-10  # criterion 1: min(b) + (nu/2)||s|| >= -this
DECREASE_MARGIN = 1e-10  # criterion 5: m(s) + (nu/12)||s||^3 <= this
BAND_ITERS_BUDGET = 25  # criterion 3: Newton passes to the KAPPA_EASY band
BRUTE_FORCE_RESOLUTION = 200  # grid points per axis of the oracle below


def brute_force_subproblem_min(b: np.ndarray, g: np.ndarray, xi: float) -> np.ndarray:
    """Grid minimizer of g^T s + 1/2 s^T Diag(b) s over ||s||_2^3 <= xi.

    Reference oracle for the dual-variable solver: a grid over the bounding
    cube, masked to the ball, refined by a local projected-gradient polish
    (coordinate descent stalls on boundary minimizers, so the polish walks
    along the sphere instead).  Accuracy is O(xi^(1/3)/resolution) per
    coordinate.  Deliberately independent of any secular-equation machinery.
    Needs finite 1-D b and g of one length 1 <= d <= 3 and 0 < xi < inf;
    otherwise raises ``ValueError`` before any evaluation.

    Only the grid rows that can hold the minimum are evaluated.  A row is
    one grid line along the last axis.  The sums over all other axes are
    formed once per row; over the row's feasible interval, widened to cover
    every point the floating-point mask admits, the row's model is at least
    that sum plus the continuous minimum of g[-1] t + 1/2 b[-1] t^2, less a
    rounding slack.  One row, the one with the smallest bound, is evaluated
    for an upper bound V on the grid minimum; then only the rows whose
    bound is <= V are, in C order.  Each skipped row holds only values
    strictly above V, so the argmin, with ties going to the first point in
    C order, is the dense grid's, and every value that is evaluated is
    summed in axis order as a dense evaluation would.  Working memory is
    O(resolution^(d-1)).
    """
    b = np.asarray(b, dtype=float)
    g = np.asarray(g, dtype=float)
    d = b.size
    if b.ndim != 1 or b.shape != g.shape or not 1 <= d <= 3:
        raise ValueError("b and g must be 1-D arrays of one length 1 <= d <= 3")
    if not (0.0 < xi < math.inf):  # NaN fails
        raise ValueError(f"need 0 < xi < inf, got {xi!r}")
    if not (np.isfinite(b).all() and np.isfinite(g).all()):
        raise ValueError("b and g must be finite")
    r = xi ** (1.0 / 3.0)
    rr = r * r
    resolution = BRUTE_FORCE_RESOLUTION

    axes = [np.linspace(-r, r, resolution)] * d
    # model and squared norm summed over every axis but the last, flattened
    # in C order: one row per grid line along the last axis
    grids = np.meshgrid(*axes[:-1], indexing="ij", sparse=True)
    head_m = np.zeros((resolution,) * (d - 1))
    head_sq = np.zeros((resolution,) * (d - 1))
    for i in range(d - 1):
        head_m = head_m + g[i] * grids[i] + 0.5 * b[i] * grids[i] ** 2
        head_sq = head_sq + grids[i] ** 2
    head_m, head_sq = head_m.ravel(), head_sq.ravel()
    last = axes[-1]
    last_lin, last_quad, last_sq = g[-1] * last, 0.5 * b[-1] * last ** 2, last ** 2

    # A lower bound on every masked value of each row, with u the unit
    # round-off.  The mask admits t when fl(head_sq + fl(t^2)) <= rr, so
    # t^2 <= (rr - head_sq + 2.01 u rr)(1 + 1.01 u) < reach^2.  On
    # |t| <= reach, g t + 1/2 b t^2 is least at -g/b when b > 0 and that
    # lies inside, else at an end.  A masked value, summed as
    # fl(fl(head_m + fl(g t)) + fl(1/2 b fl(t^2))), is within 4.1 u of its
    # terms' sizes of the exact sum; the slack is 16 u of a bound on those
    # sizes, which also covers the rounding of the bound itself.  A row
    # with head_sq > rr admits no point and gets an infinite bound.
    eps = np.finfo(float).eps
    abs_g, b_last = abs(float(g[-1])), float(b[-1])
    reach = np.sqrt(np.maximum(rr - head_sq, 0.0) + 4.0 * eps * rr) * (1.0 + 4.0 * eps)
    t = np.minimum(reach, abs_g / b_last) if b_last > 0.0 else reach
    bound = (head_m + (0.5 * b_last * t - abs_g) * t
             - 8.0 * eps * (np.abs(head_m) + (abs_g + 0.5 * abs(b_last) * reach) * reach))
    bound[head_sq > rr] = np.inf

    # the first minimum, in C order, of the given rows (ascending), summed
    # into reused buffers: fresh temporaries cost more than the arithmetic
    slab_rows = min(resolution, head_m.size)
    m, sq = np.empty((slab_rows, resolution)), np.empty((slab_rows, resolution))

    def first_min(rows):
        n = rows.size
        np.add(head_m[rows, None], last_lin, out=m[:n])
        m[:n] += last_quad
        np.add(head_sq[rows, None], last_sq, out=sq[:n])
        m[:n][sq[:n] > rr] = np.inf
        k = int(np.argmin(m[:n]))
        return int(rows[k // resolution]) * resolution + k % resolution, m[:n].flat[k]

    # `upper` is a grid value, and every value of a row whose bound exceeds
    # it is strictly above it, so such a row holds no minimum and no tie of
    # one; the other rows go in C order, at most `slab_rows` at a time
    _, upper = first_min(np.array([np.argmin(bound)]))
    survivors = np.flatnonzero(bound <= upper)
    best_flat, best_val = 0, np.inf
    for start in range(0, survivors.size, slab_rows):
        flat, val = first_min(survivors[start:start + slab_rows])
        if val < best_val:  # strict: the earliest slab keeps a tie
            best_flat, best_val = flat, val
    best = np.unravel_index(best_flat, (resolution,) * d)
    s = np.array([axes[i][best[i]] for i in range(d)])

    # projected-gradient polish with backtracking, starting from the grid
    # argmin; moves along the sphere when the constraint is active
    def model(v):
        return float(g @ v + 0.5 * v @ (b * v))

    step = 1.0 / max(float(np.max(np.abs(b))), 1e-2)
    cur = model(s)
    for _ in range(1000):
        cand = s - step * (g + b * s)
        norm = math.sqrt(cand.dot(cand))  # what np.linalg.norm computes
        if norm > r:
            cand *= r / norm
        val = model(cand)
        if val < cur:
            s, cur = cand, val
            step *= 1.2
        else:
            step *= 0.5
            if step < 1e-14 * r:
                break
    return s


class ShiftNotPositiveDefiniteError(ValueError):
    """The requested diagonal shift does not make every entry positive."""


def _shifted_solve(b: np.ndarray, g: np.ndarray, nu: float,
                   r: float) -> tuple[np.ndarray, np.ndarray, float]:
    """:func:`_solve`, after checking that every entry of the shift is positive."""
    least = np.minimum.reduce(b) + 0.5 * nu * r  # min(shift), as rounding is monotone
    if least <= 0.0:
        raise ShiftNotPositiveDefiniteError(
            f"shifted curvature not positive definite: min entry {least:g}")
    return _solve(b, g, nu, r)


def phi(b: np.ndarray, g: np.ndarray, nu: float, r: float, xi: float) -> float:
    """Secular residual 1/||s(nu, r)|| - 1/xi^(1/3); zero iff ||s|| hits the radius."""
    ns = _shifted_solve(b, g, nu, r)[2]
    if ns == 0.0:
        raise ZeroDivisionError("zero step: phi undefined (g = 0); handle as interior/hard case")
    return 1.0 / ns - 1.0 / xi ** (1.0 / 3.0)


def dphi_dnu(b: np.ndarray, g: np.ndarray, nu: float, r: float) -> float:
    """d(phi)/d(nu) = (r/2) * sum_i s_i^2 / (b_i + nu r/2) / ||s||^3 > 0."""
    shift, s, ns = _shifted_solve(b, g, nu, r)
    if ns == 0.0:
        raise ZeroDivisionError("zero step: dphi undefined (g = 0)")
    return _dphi(shift, s, ns, r)


@dataclass(frozen=True)
class KktResidual:
    stationarity: float
    min_shifted_curvature: float
    slackness: float
    decrease_excess: float  # m(s) + (nu/12)||s||^3, criterion 5's quantity
    ok: bool  # criterion 1: every KKT bound holds


def kkt_residual(b: np.ndarray, g: np.ndarray, sol: SubproblemSolution,
                 xi: float) -> KktResidual:
    """First-order optimality diagnostics for a subproblem solution, and
    whether all five of criterion 1's KKT bounds hold (Moré & Sorensen 1983)."""
    b = np.asarray(b, dtype=float)
    g = np.asarray(g, dtype=float)
    s = sol.s
    ns = math.sqrt(s @ s)  # what np.linalg.norm computes
    stationarity = float(np.max(np.abs(b * s + 0.5 * sol.nu * ns * s + g)))
    min_shifted = float(b.min() + 0.5 * sol.nu * ns)
    slackness = float(sol.nu * (ns ** 3 - xi))
    excess = (float(g @ s + 0.5 * s @ (b * s) + sol.nu / 6.0 * ns ** 3)
              + sol.nu / 12.0 * ns ** 3)
    r = xi ** (1.0 / 3.0)
    ok = (sol.nu >= 0.0 and stationarity <= STATIONARITY_TOL * (1.0 + math.sqrt(g @ g))
          and min_shifted >= -CURVATURE_SLACK
          and (sol.nu == 0.0 or abs(slackness) <= 4.0 * KAPPA_EASY * xi * sol.nu)
          and (sol.status is SubproblemStatus.INTERIOR or abs(ns - r) <= KAPPA_EASY * r))
    return KktResidual(stationarity, min_shifted, slackness, excess, ok)


def exhaustive_diag(hvp: Callable[[np.ndarray], np.ndarray], d: int) -> np.ndarray:
    """Average H(v) * v over all 2^d sign vectors (test utility, d <= 12).

    Turns the unbiasedness of the estimator into a deterministic identity:
    the off-diagonal cross terms cancel exactly.
    """
    if d > 12:
        raise ValueError("exhaustive enumeration limited to d <= 12")
    acc = np.zeros(d)
    for signs in product((-1.0, 1.0), repeat=d):
        v = np.array(signs)
        acc += np.asarray(hvp(v), dtype=float) * v
    return acc / 2 ** d


def random_instance(rng: np.random.Generator, max_dim: int = 10):
    d = int(rng.integers(1, max_dim + 1))
    b = rng.uniform(-2.0, 2.0, size=d)
    g = rng.uniform(-1.0, 1.0, size=d)
    xi = float(10.0 ** rng.uniform(-4, 1))
    return b, g, xi


def cubic_model(b: np.ndarray, g: np.ndarray, nu: float, s: np.ndarray):
    """g^T s + 1/2 s^T Diag(b) s + (nu/6)||s||^3 at s, or at each row of a
    (points x d) array s."""
    return (s @ g + 0.5 * np.sum(s * (b * s), axis=-1)
            + nu / 6.0 * np.linalg.norm(s, axis=-1) ** 3)


def _model_term_sizes(b: np.ndarray, g: np.ndarray, nu: float, s: np.ndarray):
    """Summed magnitudes of the products that :func:`cubic_model` adds up,
    at s or at each row of s: the scale of its round-off."""
    a = np.abs(s)
    return (a @ np.abs(g) + 0.5 * np.sum(a * (np.abs(b) * a), axis=-1)
            + abs(nu) / 6.0 * np.linalg.norm(s, axis=-1) ** 3)


def probe_gap(b: np.ndarray, g: np.ndarray, nu: float, s: np.ndarray,
              points: np.ndarray) -> tuple[float, bool]:
    """Smallest rise m(p) - m(s) of the cubic model over the rows p of
    ``points``, and whether no row falls below m(s) by more than round-off:
    16 ulps of the summed term sizes of m(p) and m(s).  Near s the true rise
    is second order, so at a probe 1e-8 away it is smaller than the error
    of evaluating either value."""
    gaps = cubic_model(b, g, nu, points) - cubic_model(b, g, nu, s)
    below = gaps < 0.0  # only these rows can fail
    slack = 16.0 * np.finfo(float).eps * (_model_term_sizes(b, g, nu, points[below])
                                          + _model_term_sizes(b, g, nu, s))
    return float(np.min(gaps)), bool(np.all(gaps[below] >= -slack))


def kkt_instances(n: int = 500, seed: int = 12345) -> list:
    """The kkt suite's random instances (b, g, xi); at the defaults, the ones
    that criteria 1, 3 and 5 judge and tests/golden.json pins."""
    rng = np.random.default_rng(seed)
    return [random_instance(rng) for _ in range(n)]


def kkt_suite(n: int = 500, seed: int = 12345) -> tuple:
    """Criteria 1 (:func:`kkt_residual`), 5 (the decrease margin) and 3 (the
    Newton budget to the band) over :func:`kkt_instances`."""
    worst = {"stationarity": 0.0, "min_shift": 0.0, "model": -np.inf, "band_iters": 0}
    ok = True
    for b, g, xi in kkt_instances(n, seed):
        sol = root_finder(b, g, xi)
        res = kkt_residual(b, g, sol, xi)
        gn = float(np.linalg.norm(g))
        worst["stationarity"] = max(worst["stationarity"],
                                    res.stationarity / (STATIONARITY_TOL * (1.0 + gn)))
        worst["min_shift"] = min(worst["min_shift"], res.min_shifted_curvature)
        worst["model"] = max(worst["model"], res.decrease_excess)
        worst["band_iters"] = max(worst["band_iters"], sol.newton_iters_to_band)
        ok = ok and (res.ok and res.decrease_excess <= DECREASE_MARGIN
                     and sol.newton_iters_to_band <= BAND_ITERS_BUDGET)
    detail = (f"n={n} max stationarity/tol={worst['stationarity']:.3e} "
              f"min shifted curvature={worst['min_shift']:.3e} "
              f"max decrease-margin excess={worst['model']:.3e} "
              f"max iters-to-band={worst['band_iters']}")
    return "kkt", ok, detail


def duality_suite(n: int = 100, seed: int = 777) -> tuple:
    """Agreement with the brute-force constrained minimizer, and global
    optimality of the step for the unconstrained cubic model at M = nu*."""
    probes = 10000
    rng = np.random.default_rng(seed)
    ok = True
    worst_coord = 0.0
    worst_probe = -np.inf
    for _ in range(n):
        b, g, xi = random_instance(rng, max_dim=3)
        r = xi ** (1.0 / 3.0)
        sol = root_finder(b, g, xi)
        ref = brute_force_subproblem_min(b, g, xi)
        coord_err = float(np.max(np.abs(sol.s - ref))) / (2.0 * r / BRUTE_FORCE_RESOLUTION)
        worst_coord = max(worst_coord, coord_err)

        deltas = rng.standard_normal((probes, b.size))
        deltas *= (0.5 * rng.random(probes) ** (1.0 / b.size)
                   / np.linalg.norm(deltas, axis=1))[:, None]
        gap, above = probe_gap(b, g, sol.nu, sol.s, sol.s + deltas)
        worst_probe = max(worst_probe, -gap)
        if coord_err > 1.0 or not above:
            ok = False
    detail = (f"n={n} max coord err/grid-tol={worst_coord:.3f} "
              f"worst probe violation={worst_probe:.3e}")
    return "duality", ok, detail


def newton_step_stays_below(b: np.ndarray, g: np.ndarray, nu: float,
                            nu_next: float, r: float, xi: float) -> bool:
    """Whether a Newton step from phi(nu) < 0 increases nu without crossing
    the root: phi(nu_next) < 1e-12, plus eps*|nu_next|*phi'(nu_next), the
    change in phi across one ulp of nu_next that round-off alone can cause."""
    if not nu_next > nu:
        return False
    ulp_nu = np.finfo(float).eps * abs(nu_next)
    return phi(b, g, nu_next, r, xi) < 1e-12 + ulp_nu * dphi_dnu(b, g, nu_next, r)


def phi_calculus_suite(n: int = 200, seed: int = 4242) -> tuple:
    """Derivative closed form vs finite differences; monotone concave phi;
    Newton iterates stay on the phi < 0 side and increase."""
    rng = np.random.default_rng(seed)
    ok = True
    worst_fd = 0.0
    for _ in range(n):
        d = int(rng.integers(1, 11))
        b = rng.uniform(-2.0, 2.0, size=d)
        g = rng.uniform(-1.0, 1.0, size=d)
        while np.linalg.norm(g) < 1e-3:
            g = rng.uniform(-1.0, 1.0, size=d)
        r = float(rng.uniform(0.2, 2.0))
        xi = r ** 3
        nu_min = max(0.0, -2.0 * b.min() / r)
        nu = nu_min + float(rng.uniform(0.1, 3.0))

        deriv = dphi_dnu(b, g, nu, r)
        h = 1e-6 * (1.0 + nu)
        if nu - h <= nu_min:
            h = 0.5 * (nu - nu_min)
        fd = (phi(b, g, nu + h, r, xi) - phi(b, g, nu - h, r, xi)) / (2.0 * h)
        err = abs(deriv - fd)
        rel = err / max(1e-6, 1e-4 * abs(deriv))
        worst_fd = max(worst_fd, rel)
        if rel > 1.0 or deriv <= 0.0:
            ok = False

        # 50-point nu grid: strictly increasing, concave
        nus = np.linspace(nu_min + 1e-3, nu_min + 5.0, 50)
        vals = np.array([phi(b, g, t, r, xi) for t in nus])
        if not np.all(np.diff(vals) > 0.0):
            ok = False
        second = np.diff(vals, 2)
        if not np.all(second <= 1e-8):
            ok = False

        # Newton monotonicity from the phi < 0 side
        nu_it = nu_min + 1e-6 * (1.0 + abs(nu_min))
        if phi(b, g, nu_it, r, xi) < 0.0:
            for _ in range(50):
                p = phi(b, g, nu_it, r, xi)
                if abs(p) < 1e-12:
                    break
                nxt = nu_it - p / dphi_dnu(b, g, nu_it, r)
                if p < 0.0 and not newton_step_stays_below(b, g, nu_it, nxt, r, xi):
                    ok = False
                    break
                nu_it = nxt
    return "phi-calculus", ok, f"n={n} max fd err/tol={worst_fd:.3f}"


def hutchinson_suite(trials: int = 1000, seed: int = 99) -> tuple:
    """Exactness on diagonal curvature, exhaustive unbiasedness, and variance
    reduction in the sample count."""
    rng = np.random.default_rng(seed)
    ok = True

    diag = np.array([3.0, -1.0, 5.0])
    est = hutchinson_diag(lambda v: diag * v, rademacher_probes(rng, 1, 3))
    exact_err = float(np.max(np.abs(est - diag)))
    if exact_err > 1e-12:
        ok = False

    enum_err = 0.0
    for d in (2, 3, 4):
        A = rng.standard_normal((d, d))
        H = 0.5 * (A + A.T)
        err = float(np.max(np.abs(exhaustive_diag(lambda v: H @ v, d) - np.diag(H))))
        enum_err = max(enum_err, err)
    if enum_err > 1e-12:
        ok = False

    d = 6
    A = np.random.default_rng(7).standard_normal((d, d))
    H = 0.5 * (A + A.T)
    diag_H = np.diag(H)
    medians = []
    for S in (1, 4, 16):
        # one draw of every trial's rows: the rows of one draw per trial
        blocks = rademacher_probes(rng, trials * S, d).reshape(trials, S, d)
        ests = np.array([hutchinson_diag(lambda V: V @ H, probes)  # H is symmetric
                         for probes in blocks])
        medians.append(float(np.median(np.abs(ests - diag_H).max(axis=1))))
    if not (medians[0] > medians[1] > medians[2]):
        ok = False
    detail = (f"diag err={exact_err:.1e} enum err={enum_err:.1e} "
              f"median devs S=1,4,16: {medians[0]:.4f}, {medians[1]:.4f}, "
              f"{medians[2]:.4f}")
    return "hutchinson", ok, detail


def all_suites() -> list:
    return [kkt_suite(), duality_suite(), phi_calculus_suite(), hutchinson_suite()]


def report(results: list | None = None) -> tuple[str, bool]:
    results = results if results is not None else all_suites()
    lines = []
    all_ok = True
    for name, ok, detail in results:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        all_ok = all_ok and ok
    lines.append("verify: " + ("all suites passed" if all_ok else "FAILURES detected"))
    return "\n".join(lines) + "\n", all_ok
