"""Test problems: loss / gradient / Hessian-vector-product bundles.

Every problem is an :class:`Objective`.  Stochastic objectives (finite-sum
losses) additionally accept a batch of sample indices; ``batch=None`` means
the full dataset.  All callables are pure in their results and safe to
evaluate concurrently at distinct points.  The Rosenbrock objective keeps
the Hessian's diagonal and off-diagonal at its last HVP point, keyed on its
bytes (3d floats in all), so a rejected step's HVP reuses them.  The
logistic objective keeps its last minibatch point, with that batch's rows,
and its last two full-batch points: at each the margin, its sigmoid and the
gradient (about 4n floats at the full batch), so the calls of one iteration
gather their batch and compute each margin once.
"""

from __future__ import annotations

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
    # hvp_fn(x, v, batch) is H(x) v for v of shape (d,), and for an (S, d)
    # block v the (S, d) array of the products with its rows; every
    # estimate passes a block, so H @ v must be written v @ H.T
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
    if idx.dtype.kind not in "iu":
        raise ValueError("batch indices must be integers")
    if not idx.size:
        raise ValueError("batch must not be empty")
    s = np.sort(idx, axis=None)
    if s[0] < 0 or s[-1] >= num_samples:
        raise ValueError("batch indices out of range")
    if (s[1:] == s[:-1]).any():
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
    # np.zeros_like without their Python wrappers, costly at small d, and
    # += on a named view skips the copy back that out[i:j] += makes
    def f(x, b=None):
        t, u = x[1:] - x[:-1] ** 2, 1.0 - x[:-1]
        return float(np.add.reduce(100.0 * t ** 2 + u ** 2))

    def g(x, b=None):
        out = np.zeros(x.shape)
        t = x[1:] - x[:-1] ** 2
        lo, hi = out[:-1], out[1:]
        lo += -400.0 * x[:-1] * t - 2.0 * (1.0 - x[:-1])
        hi += 200.0 * t
        return out

    def diag(x):
        out = np.zeros(x.shape)
        sq = x[:-1] ** 2
        out[:-1] = 2.0 - 400.0 * (x[1:] - sq) + 800.0 * sq
        hi = out[1:]
        hi += 200.0
        return out

    # (x's bytes, diag(x), H[i, i+1] = H[i+1, i]) at the last HVP point: read
    # once and swapped whole, so that concurrent calls each see a consistent one
    kept = (None, None, None)

    def hvp(x, v, b=None):
        nonlocal kept
        key, dg, off = kept
        xb = x.tobytes()
        if key != xb:
            dg, off = diag(x), -400.0 * x[:-1]
            kept = (xb, dg, off)
        out = dg * v  # v is one vector or a block of rows
        lo, hi = out[..., :-1], out[..., 1:]
        lo += off * v[..., 1:]
        hi += off * v[..., :-1]
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
    """L2-regularized logistic regression with +-1 labels and batch support.

    The objective keeps its last minibatch point and its last two
    full-batch points, each keyed on the batch, read as a flat index set by
    its dtype, shape and values, and on w's dtype, shape and bytes.  A point
    holds the margin m = -y * (X w), sigmoid(m) once needed, the gradient
    once computed (returned as a copy) and its batch's rows: batch x d
    floats for the minibatch point, and about 4n floats of margins and
    sigmoids for the two full-batch points.  A new point on the kept
    minibatch point's batch reuses its rows; any other batch is validated
    and gathered afresh.  A full-batch step's trial does not evict its
    iterate.
    ``features`` and ``labels`` are read without a copy when they are
    already float arrays, so they must not be edited afterwards.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("features must be n x d with one label per row")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be +-1")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    if not (0.0 <= l2 < math.inf):  # NaN fails
        raise ValueError(f"need 0 <= l2 < inf, got {l2}")
    n, d = X.shape

    def sigmoid(m):  # 1 / (1 + exp(-m)), quietly 0 where exp(-m) overflows
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-m))

    # the kept points (key, m, sigmoid(m) or None, gradient or None, X rows,
    # y rows), most recent first: each tuple is read once and swapped whole,
    # so that concurrent calls each see a consistent one
    batch_points = full_points = ()

    def point(w, batch, need):
        # the kept point at (w, batch), or a new one, with sigmoid(m) if
        # need >= 1 and the gradient if need == 2, moved to the front
        nonlocal batch_points, full_points
        if batch is None:
            bkey, Xb, yb, kept = None, X, y, full_points
        else:
            idx = np.asarray(batch).ravel()
            bkey, kept = (idx.dtype, idx.shape, idx.tobytes()), batch_points
            if kept and kept[0][0][0] == bkey:  # the kept point's rows
                Xb, yb = kept[0][4:]
            else:
                validate_batch(idx, n)
                Xb, yb = X[idx], y[idx]
        key = (bkey, w.dtype, w.shape, w.tobytes())
        for p in kept:
            if p[0] == key:
                break
        else:
            p = (key, -yb * (Xb @ w), None, None, Xb, yb)
        if need and p[2] is None:
            p = p[:2] + (sigmoid(p[1]),) + p[3:]
        if need == 2 and p[3] is None:
            p = p[:3] + (Xb.T @ (-yb * p[2]) / len(yb) + l2 * w,) + p[4:]
        if bkey is None:
            full_points = (p,) + tuple(q for q in kept if q[0] != key)[:1]
        else:
            batch_points = (p,)
        return p

    def f(w, batch=None):
        m = point(w, batch, 0)[1]
        # log(1 + exp(m)) without overflow, averaged as .mean() does, without
        # its Python wrapper
        loss = np.add.reduce(np.logaddexp(0.0, m)) / m.size
        return float(loss + 0.5 * l2 * w @ w)

    def g(w, batch=None):
        return point(w, batch, 2)[3].copy()

    def hvp(w, v, batch=None):
        # one margin and weight vector for all rows of a block v
        _, _, sig, _, Xb, yb = point(w, batch, 1)
        weights = sig * (1.0 - sig)
        return (weights * (Xb @ v.T).T) @ Xb / len(yb) + l2 * v

    def diag(w):
        sig = point(w, None, 1)[2]
        weights = sig * (1.0 - sig)
        sq = X ** 2  # the one n x d temporary, weighted in place
        sq *= weights[:, None]
        return sq.mean(axis=0) + l2

    return Objective(dim=d, eval_fn=f, grad_fn=g, hvp_fn=hvp,
                     exact_diag_fn=diag, num_samples=n)


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
