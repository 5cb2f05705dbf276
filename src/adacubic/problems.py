"""Test problems: loss / gradient / Hessian-vector-product bundles.

Every problem is an :class:`Objective`.  Stochastic objectives (finite-sum
losses) additionally accept a batch of sample indices; ``batch=None`` means
the full dataset.  All callables are pure and safe to evaluate concurrently
at distinct points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Batch = Optional[np.ndarray]  # indices into [0, num_samples), or None for full


@dataclass(frozen=True)
class Objective:
    dim: int
    eval_fn: Callable[[np.ndarray, Batch], float]
    grad_fn: Callable[[np.ndarray, Batch], np.ndarray]
    hvp_fn: Callable[[np.ndarray, np.ndarray, Batch], np.ndarray]
    exact_diag_fn: Callable[[np.ndarray], np.ndarray] | None = None
    num_samples: int = 0  # 0 = deterministic
    # a number at most the 2-norm of grad(x) as grad_fn computes it, from one
    # pass over the data; a positive one also promises that norm is below 2^500
    grad_norm_floor_fn: Callable[[np.ndarray], float] | None = None

    def eval(self, x: np.ndarray, batch: Batch = None) -> float:
        return float(self.eval_fn(np.asarray(x, dtype=float), batch))

    def grad(self, x: np.ndarray, batch: Batch = None) -> np.ndarray:
        return self.grad_fn(np.asarray(x, dtype=float), batch)

    def hvp(self, x: np.ndarray, v: np.ndarray, batch: Batch = None) -> np.ndarray:
        return self.hvp_fn(np.asarray(x, dtype=float), np.asarray(v, dtype=float), batch)

    def exact_diag_hessian(self, x: np.ndarray) -> np.ndarray:
        if self.exact_diag_fn is None:
            raise NotImplementedError("objective has no analytic diagonal Hessian")
        return self.exact_diag_fn(np.asarray(x, dtype=float))

    def grad_norm_floor(self, x: np.ndarray) -> float:
        """A lower bound on ``||grad(x)||``, or 0.0: no certificate."""
        if self.grad_norm_floor_fn is None:
            return 0.0
        floor = float(self.grad_norm_floor_fn(np.asarray(x, dtype=float)))
        return floor if 0.0 < floor < math.inf else 0.0


def validate_batch(batch: Batch, num_samples: int) -> None:
    if batch is None:
        return
    idx = np.asarray(batch)
    if idx.size and (idx.min() < 0 or idx.max() >= num_samples):
        raise ValueError("batch indices out of range")
    if len(np.unique(idx)) != idx.size:
        raise ValueError("batch indices must be distinct")


def draw_batch(rng: np.random.Generator, num_samples: int, batch_size: int) -> np.ndarray:
    """Sample ``batch_size`` distinct indices without replacement."""
    if batch_size > num_samples:
        raise ValueError("batch_size exceeds dataset size")
    return np.sort(rng.choice(num_samples, size=batch_size, replace=False))


# ---------------------------------------------------------------------------
# Built-in problems
# ---------------------------------------------------------------------------

def make_quadratic(diag: np.ndarray, g0: np.ndarray) -> Objective:
    """f(x) = 1/2 x^T Diag(diag) x + g0^T x."""
    diag = np.asarray(diag, dtype=float)
    g0 = np.asarray(g0, dtype=float)
    if diag.shape != g0.shape:
        raise ValueError("diag and g0 must have the same length")
    d = diag.size
    return Objective(
        dim=d,
        eval_fn=lambda x, b=None: float(0.5 * x @ (diag * x) + g0 @ x),
        grad_fn=lambda x, b=None: diag * x + g0,
        hvp_fn=lambda x, v, b=None: diag * v,
        exact_diag_fn=lambda x: diag.copy(),
    )


def make_rosenbrock(d: int) -> Objective:
    """Chained Rosenbrock; global minimum at the all-ones vector.

    The Hessian is tridiagonal, so its diagonal and its products with a
    vector cost O(d) and no d x d matrix is formed.
    """
    if d < 2:
        raise ValueError("rosenbrock needs d >= 2")

    # np.add.reduce and np.zeros(shape) do the work of np.sum and
    # np.zeros_like without their Python wrappers, costly at small d
    def f(x, b=None):
        t, u = x[1:] - x[:-1] ** 2, 1.0 - x[:-1]
        return float(np.add.reduce(100.0 * t ** 2 + u ** 2))

    def g(x, b=None):
        out = np.zeros(x.shape)
        t = x[1:] - x[:-1] ** 2
        out[:-1] += -400.0 * x[:-1] * t - 2.0 * (1.0 - x[:-1])
        out[1:] += 200.0 * t
        return out

    def diag(x):
        out = np.zeros(x.shape)
        sq = x[:-1] ** 2
        out[:-1] = 2.0 - 400.0 * (x[1:] - sq) + 800.0 * sq
        out[1:] += 200.0
        return out

    def hvp(x, v, b=None):
        off = -400.0 * x[:-1]  # H[i, i+1] = H[i+1, i]
        out = diag(x) * v
        out[:-1] += off * v[1:]
        out[1:] += off * v[:-1]
        return out

    return Objective(dim=d, eval_fn=f, grad_fn=g, hvp_fn=hvp, exact_diag_fn=diag)


def make_saddle() -> Objective:
    """f(x, y) = x^2/2 - y^2/2 + y^4/4: strict saddle at 0, minima at (0, +-1)."""

    def f(x, b=None):
        return float(0.5 * x[0] ** 2 - 0.5 * x[1] ** 2 + 0.25 * x[1] ** 4)

    def g(x, b=None):
        return np.array([x[0], -x[1] + x[1] ** 3])

    def diag(x):
        return np.array([1.0, -1.0 + 3.0 * x[1] ** 2])

    return Objective(
        dim=2,
        eval_fn=f,
        grad_fn=g,
        hvp_fn=lambda x, v, b=None: diag(x) * v,
        exact_diag_fn=diag,
    )


def make_logistic(features: np.ndarray, labels: np.ndarray, l2: float = 0.0) -> Objective:
    """L2-regularized logistic regression with +-1 labels and batch support."""
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("features must be n x d with one label per row")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be +-1")
    if not (0.0 <= l2 < math.inf):  # NaN fails
        raise ValueError(f"need 0 <= l2 < inf, got {l2}")
    n, d = X.shape
    eps = float(np.finfo(float).eps)

    @functools.cache
    def row_max() -> float:
        """The largest row norm, computed by the first floor, as no other
        callable needs it; einsum forms no n x d temporary."""
        return math.sqrt(float(np.einsum("ij,ij->i", X, X).max(initial=0.0)))

    def sigmoid(m):  # 1 / (1 + exp(-m)), quietly 0 where exp(-m) overflows
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-m))

    def rows(batch):
        validate_batch(batch, n)
        if batch is None:
            return X, y
        return X[batch], y[batch]

    def f(w, batch=None):
        Xb, yb = rows(batch)
        m = -yb * (Xb @ w)
        # log(1 + exp(m)) without overflow
        loss = np.logaddexp(0.0, m).mean()
        return float(loss + 0.5 * l2 * w @ w)

    def g(w, batch=None):
        Xb, yb = rows(batch)
        m = -yb * (Xb @ w)
        sig = sigmoid(m)
        return Xb.T @ (-yb * sig) / len(yb) + l2 * w

    def hvp(w, v, batch=None):
        Xb, yb = rows(batch)
        m = -yb * (Xb @ w)
        sig = sigmoid(m)
        weights = sig * (1.0 - sig)
        return Xb.T @ (weights * (Xb @ v)) / len(yb) + l2 * v

    def diag(w):
        m = -y * (X @ w)
        sig = sigmoid(m)
        weights = sig * (1.0 - sig)
        return (weights[:, None] * X ** 2).mean(axis=0) + l2

    def grad_norm_floor(w):
        # Cauchy-Schwarz: ||grad F(w)|| >= |grad F(w) . w| / ||w||, and
        # grad F(w) . w = mean(sig(m) m) + l2 ||w||^2, so the floor needs X w
        # but not the gradient's second product with X.
        #
        # Rounding, with u = eps/2 and R the largest row norm: a sum of k
        # terms is off by at most k u times the sum of their sizes, in any
        # order, and exp is taken to be within 4 ulp.  Each m_i is then off
        # by at most d u R ||w||; as |d(sig(m) m)/dm| < 1.1 and sig' <= 1/4,
        # each sig(m_i) m_i is off by at most 1.1 d u R ||w|| + 12 u |p_i|
        # and each sig(m_i) by at most d u R ||w|| / 4 + 11 u.  So `dot` is
        # within `dot_slack` of grad F(w) . w, and grad(w), whose product
        # with X^T adds at most n u R, within `grad_slack` of grad F(w):
        # each slack is about twice the sum it bounds, which covers the
        # rounding of the slacks, of ||w|| and of the floor itself.  Where
        # ||w|| >= 2^-500 underflow adds less than 2^-520, and where
        # R + l2 ||w|| < 2^498 a positive floor leaves ||grad(w)|| below
        # 2^500.  A NaN fails the first test; one made later makes a NaN
        # floor, and an infinity a NaN or -inf one.
        ww = float(w @ w)
        norm_w = math.sqrt(ww)
        R = row_max()
        if not (2.0 ** -1000 <= ww and R + l2 * norm_w < 2.0 ** 498):
            return 0.0
        m = -y * (X @ w)
        with np.errstate(over="ignore"):  # as in sigmoid
            p = m / (1.0 + np.exp(-m))  # sig(m) m
        dot = float(p.mean()) + l2 * ww
        dot_slack = eps * ((n + 16) * float(np.abs(p).mean()) + d * R * norm_w
                           + (d + 4) * l2 * ww + abs(dot))
        grad_slack = eps * ((n + 16) * R + d * R * R * norm_w + 2.0 * l2 * norm_w)
        return ((abs(dot) - dot_slack) / (norm_w * (1.0 + (d + 4) * eps))
                - grad_slack - 2.0 ** -520)

    return Objective(dim=d, eval_fn=f, grad_fn=g, hvp_fn=hvp,
                     exact_diag_fn=diag, num_samples=n,
                     grad_norm_floor_fn=grad_norm_floor)


def make_synthetic_logistic(n: int, d: int, l2: float, seed: int) -> Objective:
    """Separable gaussian-feature logistic problem, each label flipped w.p. 0.05."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    w_true = rng.standard_normal(d)
    y = np.sign(X @ w_true)
    y[y == 0.0] = 1.0
    flips = rng.random(n) < 0.05
    y[flips] *= -1.0
    return make_logistic(X, y, l2)


def load_logistic_csv(path: str, l2: float = 0.0) -> Objective:
    """Load a logistic problem from CSV: one row per sample, +-1 label last."""
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[1] < 2:
        raise ValueError("CSV needs at least one feature column plus a label column")
    return make_logistic(data[:, :-1], data[:, -1], l2)


# ---------------------------------------------------------------------------
# Brute-force subproblem reference
# ---------------------------------------------------------------------------

BRUTE_FORCE_RESOLUTION = 200  # grid points per axis of the oracle below


def brute_force_subproblem_min(b: np.ndarray, g: np.ndarray, xi: float) -> np.ndarray:
    """Grid minimizer of g^T s + 1/2 s^T Diag(b) s over ||s||_2^3 <= xi.

    Reference oracle for the dual-variable solver: a grid over the bounding
    cube, masked to the ball, refined by a local projected-gradient polish
    (coordinate descent stalls on boundary minimizers, so the polish walks
    along the sphere instead).  Accuracy is O(xi^(1/3)/resolution) per
    coordinate.  Deliberately independent of any secular-equation machinery.

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
    if d > 3:
        raise ValueError("brute force oracle supports d <= 3 only")
    if xi <= 0.0:
        raise ValueError("xi must be positive")
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
        norm = float(np.linalg.norm(cand))
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
