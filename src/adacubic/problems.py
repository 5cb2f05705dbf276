"""Test problems: loss / gradient / Hessian-vector-product bundles.

Every problem is an :class:`Objective`.  Stochastic objectives (finite-sum
losses) additionally accept a batch of sample indices; ``batch=None`` means
the full dataset.  All callables are pure and safe to evaluate concurrently
at distinct points.
"""

from __future__ import annotations

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


def finite_difference_hvp(obj: Objective, x: np.ndarray, v: np.ndarray,
                          h: float | None = None, batch: Batch = None) -> np.ndarray:
    """Central-difference Hessian-vector product, O(h^2) accurate.

    Fallback for objectives without an analytic ``hvp_fn``.  The default
    step is sqrt(eps)*(1 + ||x||).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if h is None:
        h = np.sqrt(np.finfo(float).eps) * (1.0 + np.linalg.norm(x))
    if h <= 0.0:
        raise ValueError("h must be positive")
    out = (obj.grad(x + h * v, batch) - obj.grad(x - h * v, batch)) / (2.0 * h)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite finite-difference HVP; bad h or objective overflow")
    return out


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

    def f(x, b=None):
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    def g(x, b=None):
        out = np.zeros_like(x)
        t = x[1:] - x[:-1] ** 2
        out[:-1] += -400.0 * x[:-1] * t - 2.0 * (1.0 - x[:-1])
        out[1:] += 200.0 * t
        return out

    def diag(x):
        out = np.zeros_like(x)
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
    if l2 < 0.0:
        raise ValueError("l2 must be nonnegative")
    n, d = X.shape

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
        sig = 1.0 / (1.0 + np.exp(-m))
        return Xb.T @ (-yb * sig) / len(yb) + l2 * w

    def hvp(w, v, batch=None):
        Xb, yb = rows(batch)
        m = -yb * (Xb @ w)
        sig = 1.0 / (1.0 + np.exp(-m))
        weights = sig * (1.0 - sig)
        return Xb.T @ (weights * (Xb @ v)) / len(yb) + l2 * v

    def diag(w):
        m = -y * (X @ w)
        sig = 1.0 / (1.0 + np.exp(-m))
        weights = sig * (1.0 - sig)
        return (weights[:, None] * X ** 2).mean(axis=0) + l2

    return Objective(dim=d, eval_fn=f, grad_fn=g, hvp_fn=hvp,
                     exact_diag_fn=diag, num_samples=n)


def make_synthetic_logistic(n: int, d: int, l2: float, seed: int,
                            flip_fraction: float = 0.05) -> Objective:
    """Separable gaussian-feature logistic problem with a few flipped labels."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    w_true = rng.standard_normal(d)
    y = np.sign(X @ w_true)
    y[y == 0.0] = 1.0
    flips = rng.random(n) < flip_fraction
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

def brute_force_subproblem_min(b: np.ndarray, g: np.ndarray, xi: float,
                               resolution: int = 200) -> np.ndarray:
    """Grid minimizer of g^T s + 1/2 s^T Diag(b) s over ||s||_2^3 <= xi.

    Reference oracle for the dual-variable solver: a grid over the bounding
    cube, masked to the ball, refined by a local projected-gradient polish
    (coordinate descent stalls on boundary minimizers, so the polish walks
    along the sphere instead).  Accuracy is O(xi^(1/3)/resolution) per
    coordinate.  Deliberately independent of any secular-equation machinery.

    The grid is never held whole: the sums over all axes but the last are
    formed once, and the last axis is added one slab of the first axis at a
    time (for d = 3, slabs of resolution^2 points), so working memory is
    O(resolution^(d-1)).  Every grid value is summed in axis order, as a
    dense evaluation would, and ties go to the first point in C order, so
    the grid argmin is the dense grid's.
    """
    b = np.asarray(b, dtype=float)
    g = np.asarray(g, dtype=float)
    d = b.size
    if d > 3:
        raise ValueError("brute force oracle supports d <= 3 only")
    if resolution < 200:
        raise ValueError("resolution must be >= 200")
    if xi <= 0.0:
        raise ValueError("xi must be positive")
    r = xi ** (1.0 / 3.0)

    axes = [np.linspace(-r, r, resolution)] * d
    # model and squared norm summed over every axis but the last, flattened
    # in C order: one row per grid line along the last axis
    grids = np.meshgrid(*axes[:-1], indexing="ij", sparse=True)
    head_m = np.zeros((resolution,) * (d - 1))
    head_sq = np.zeros((resolution,) * (d - 1))
    for i in range(d - 1):
        head_m = head_m + g[i] * grids[i] + 0.5 * b[i] * grids[i] ** 2
        head_sq = head_sq + grids[i] ** 2
    head_m = head_m.reshape(-1, 1)
    head_sq = head_sq.reshape(-1, 1)
    last = axes[-1]
    last_lin, last_quad, last_sq = g[-1] * last, 0.5 * b[-1] * last ** 2, last ** 2

    # one slab of the first axis at a time, into reused buffers: fresh
    # slab-sized temporaries cost more than the arithmetic
    slab_rows = min(resolution, head_m.shape[0])
    m, sq = np.empty((slab_rows, resolution)), np.empty((slab_rows, resolution))
    best_flat, best_val = 0, np.inf
    for start in range(0, head_m.shape[0], slab_rows):
        rows = slice(start, start + slab_rows)
        np.add(head_m[rows], last_lin, out=m)
        m += last_quad
        np.add(head_sq[rows], last_sq, out=sq)
        m[sq > r * r] = np.inf
        k = int(np.argmin(m))
        if m.flat[k] < best_val:  # strict: the earliest slab keeps a tie
            best_flat, best_val = start * resolution + k, m.flat[k]
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
