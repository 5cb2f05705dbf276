"""Outer optimization loop plus SGD / Adam baselines."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import AdaCubicConfig, IterationClass, TrustRegionState, \
    accept_step, classify_iteration, update_xi
from .hutchinson import hutchinson_diag
from .problems import Objective, draw_batch
from .subproblem import SubproblemStatus, root_finder


@dataclass(frozen=True)
class StepRecord:
    iteration: int
    loss_before: float
    loss_after: float
    grad_norm: float
    rho: float  # NaN on degenerate (zero-step) iterations
    nu: float
    xi: float
    step_norm: float
    status: IterationClass
    subproblem_status: SubproblemStatus
    accepted: bool


@dataclass(frozen=True)
class Trajectory:
    records: list
    final_x: np.ndarray
    seed: int


def rho(loss_before: float, loss_after: float, model_value_drop: float) -> float:
    """Actual-to-predicted reduction ratio driving acceptance."""
    if not (model_value_drop > 0.0):
        raise ZeroDivisionError("model predicted no decrease; degenerate step")
    return (loss_before - loss_after) / model_value_drop


def adacubic_step(obj: Objective, x: np.ndarray, state: TrustRegionState,
                  cfg: AdaCubicConfig, rng: np.random.Generator,
                  batch_size: int | None = None,
                  current: tuple[float, np.ndarray] | None = None):
    """One iteration: estimate curvature, solve the subproblem, accept or reject.

    Loss, gradient, curvature probes, and the post-step loss are all
    evaluated on the same batch.  ``current`` is the full-batch
    ``(loss, gradient)`` at x when the caller already has it; it is taken
    only when the step draws no batch.  A degenerate step (no predicted
    decrease) evaluates no post-step loss.  Returns (x', state', record);
    x' is x when the step is rejected or degenerate.
    """
    batch = None
    if batch_size is not None and obj.num_samples > 0:
        batch = draw_batch(rng, obj.num_samples, batch_size)
    if current is None:
        loss_before, g = obj.eval(x, batch), obj.grad(x, batch)
    elif batch is None:
        loss_before, g = current
    else:
        raise ValueError("current (loss, grad) is full-batch; the step drew a batch")

    b = hutchinson_diag(lambda v: obj.hvp(x, v, batch), obj.dim,
                        cfg.hutchinson_samples, rng)
    sol = root_finder(b, g, state.xi, cfg)
    s = sol.s
    # sqrt(v @ v) is how np.linalg.norm computes a vector's 2-norm
    step_norm = math.sqrt(s @ s)
    grad_norm = math.sqrt(g @ g)

    degenerate = not (sol.model_decrease > 0.0) or not math.isfinite(sol.model_decrease)
    if degenerate:
        rec = StepRecord(state.iteration, loss_before, loss_before, grad_norm,
                         float("nan"), sol.nu, state.xi, step_norm,
                         IterationClass.UNSUCCESSFUL, sol.status, False)
        return x.copy(), TrustRegionState(xi=state.xi, iteration=state.iteration + 1), rec

    loss_after = obj.eval(x + s, batch)
    ratio = rho(loss_before, loss_after, sol.model_decrease)
    accepted = accept_step(ratio, cfg)
    new_xi = update_xi(state, ratio, step_norm ** 3, cfg)
    rec = StepRecord(state.iteration, loss_before, loss_after, grad_norm, ratio,
                     sol.nu, state.xi, step_norm, classify_iteration(ratio, cfg),
                     sol.status, accepted)
    new_x = x + s if accepted else x.copy()
    return new_x, TrustRegionState(xi=new_xi, iteration=state.iteration + 1), rec


def run(obj: Objective, x0: np.ndarray, cfg: AdaCubicConfig, max_iters: int,
        batch_size: int | None = None, stop_grad_norm: float = 0.0,
        xi0: float = 1.0) -> Trajectory:
    """Iterate :func:`adacubic_step` until the budget or gradient threshold.

    The stopping gradient is always the full-batch one, checked at the top
    of each iteration.  The check is second-order aware: a gradient below
    the threshold at a point whose estimated diagonal curvature has a
    negative entry does not stop the run, so saddle points (where the
    gradient vanishes exactly) are escaped rather than reported as
    converged.  Two runs with the same seed and config are bit-identical.

    Without a batch, the loss and gradient at the current point are
    computed once, when the point is reached, and serve the stop check and
    every step taken from it: an iteration costs one loss evaluation, one
    gradient if its step is accepted, and the Hessian-vector products.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    rng = np.random.default_rng(cfg.rng_seed)
    x = np.asarray(x0, dtype=float).copy()
    state = TrustRegionState(xi=xi0)
    records = []
    full_batch = batch_size is None or obj.num_samples == 0
    current = (obj.eval(x), obj.grad(x)) if full_batch else None

    def stationary(pt: np.ndarray, g: np.ndarray) -> bool:
        if math.sqrt(g @ g) > stop_grad_norm:
            return False
        b = hutchinson_diag(lambda v: obj.hvp(pt, v), obj.dim,
                            cfg.hutchinson_samples, rng)
        return float(b.min()) >= 0.0

    for _ in range(max_iters):
        if stationary(x, current[1] if full_batch else obj.grad(x)):
            break
        x, state, rec = adacubic_step(obj, x, state, cfg, rng, batch_size, current)
        records.append(rec)
        if full_batch:
            if math.isnan(rec.rho):
                break  # stationary model on the full objective: nothing to do
            if rec.accepted:
                current = (rec.loss_after, obj.grad(x))
    return Trajectory(records=records, final_x=x, seed=cfg.rng_seed)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def sgd_step(obj: Objective, x: np.ndarray, lr: float, momentum: float = 0.0,
             velocity: np.ndarray | None = None, batch=None,
             g: np.ndarray | None = None):
    """One SGD step; ``g`` is the gradient at x on ``batch`` if already known."""
    if g is None:
        g = obj.grad(x, batch)
    v = momentum * (velocity if velocity is not None else np.zeros_like(x)) + g
    return x - lr * v, v


def adam_step(obj: Objective, x: np.ndarray, moments, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
              batch=None, g: np.ndarray | None = None):
    """One Adam step; ``g`` is the gradient at x on ``batch`` if already known."""
    m, v, t = moments
    if g is None:
        g = obj.grad(x, batch)
    t += 1
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return x - lr * m_hat / (np.sqrt(v_hat) + eps), (m, v, t)


def run_baseline(obj: Objective, x0: np.ndarray, optimizer: str, lr: float,
                 max_iters: int, batch_size: int | None = None,
                 stop_grad_norm: float = 0.0, seed: int = 0,
                 momentum: float = 0.0, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8) -> Trajectory:
    """SGD/Adam run producing the same record schema as the main loop.

    The trust-region specific fields (rho, nu, xi, statuses) carry NaN /
    placeholder values; every step is taken unconditionally.  Each
    iteration takes the full-batch gradient for the stop check and the
    loss and gradient on its batch; without a batch the stop check's
    gradient is the step's, and the loss after one step is the loss
    before the next.  A non-finite stop-check gradient norm (a diverged
    iterate) raises ``FloatingPointError``, as AdaCubic's curvature
    estimate and subproblem solver do on non-finite input.
    """
    if optimizer not in ("sgd", "adam"):
        raise ValueError(f"unknown baseline optimizer {optimizer!r}")
    rng = np.random.default_rng(seed)
    x = np.asarray(x0, dtype=float).copy()
    vel = np.zeros_like(x)
    moments = (np.zeros_like(x), np.zeros_like(x), 0)
    records = []
    full_batch = batch_size is None or obj.num_samples == 0
    loss = obj.eval(x) if full_batch else None
    for k in range(max_iters):
        g = obj.grad(x)
        grad_norm = math.sqrt(g @ g)
        if not math.isfinite(grad_norm):
            raise FloatingPointError(f"non-finite gradient norm at iteration {k}")
        if grad_norm <= stop_grad_norm:
            break
        batch = None
        if full_batch:
            loss_before = loss
        else:
            batch = draw_batch(rng, obj.num_samples, batch_size)
            loss_before, g = obj.eval(x, batch), obj.grad(x, batch)
        if optimizer == "sgd":
            x_new, vel = sgd_step(obj, x, lr, momentum, vel, batch, g)
        else:
            x_new, moments = adam_step(obj, x, moments, lr, beta1, beta2, eps, batch, g)
        loss = obj.eval(x_new, batch)
        step = x_new - x
        records.append(StepRecord(
            k, loss_before, loss, math.sqrt(g @ g),
            float("nan"), float("nan"), float("nan"),
            math.sqrt(step @ step), IterationClass.SUCCESSFUL,
            SubproblemStatus.INTERIOR, True))
        x = x_new
    return Trajectory(records=records, final_x=x, seed=seed)
