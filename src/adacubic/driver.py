"""One iteration loop for AdaCubic and the SGD / Adam baselines, and their
update rules."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import AdaCubicConfig, IterationClass, update_xi
from .hutchinson import hutchinson_diag, rademacher_rows
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


def rho(loss_before: float, loss_after: float, model_value_drop: float) -> float:
    """Actual-to-predicted reduction ratio driving acceptance."""
    if not (model_value_drop > 0.0):
        raise ZeroDivisionError("model predicted no decrease; degenerate step")
    return (loss_before - loss_after) / model_value_drop


def _iterate(obj: Objective, x0: np.ndarray, max_iters: int,
             batch_size: int | None, stop_grad_norm: float,
             rng: np.random.Generator, step, curvature_ok=None) -> Trajectory:
    """The iteration loop of :func:`run` and :func:`run_baseline`.

    An iteration stops the run when the full-batch gradient norm at x is at
    most ``stop_grad_norm`` (and ``curvature_ok(x)``, if given); otherwise it
    draws a batch from ``rng`` unless the run is full-batch and calls
    ``step(k, x, batch, loss, g) -> (x', record)`` with the loss and
    gradient at x on it.  The full-batch loss and gradient at a point are
    each computed at most once, when an iteration first needs them.  A
    non-finite stop-check gradient norm raises ``FloatingPointError``.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    x = np.asarray(x0, dtype=float).copy()
    records = []
    full_batch = batch_size is None or obj.num_samples == 0
    loss = g_full = None  # the full-batch loss and gradient at x, once computed
    for k in range(max_iters):
        if g_full is None:
            g_full = obj.grad(x)
            # sqrt(v @ v) is how np.linalg.norm computes a vector's 2-norm
            grad_norm = math.sqrt(g_full @ g_full)
            if not math.isfinite(grad_norm):
                raise FloatingPointError(f"non-finite gradient norm at iteration {k}")
        if grad_norm <= stop_grad_norm and (curvature_ok is None or curvature_ok(x)):
            break
        if full_batch:
            loss = obj.eval(x) if loss is None else loss
            x, rec = step(k, x, None, loss, g_full)
        else:
            batch = draw_batch(rng, obj.num_samples, batch_size)
            x, rec = step(k, x, batch, obj.eval(x, batch), obj.grad(x, batch))
        records.append(rec)
        if rec.accepted:
            loss, g_full = (rec.loss_after if full_batch else None), None
        elif full_batch and math.isnan(rec.rho):
            break  # a degenerate step: stationary model on the full objective
    return Trajectory(records=records, final_x=x)


def adacubic_step(obj: Objective, x: np.ndarray, xi: float, cfg: AdaCubicConfig,
                  rng: np.random.Generator, batch=None,
                  current: tuple[float, np.ndarray] | None = None, iteration: int = 0):
    """One iteration: estimate curvature, solve the subproblem, accept or reject.

    Loss, gradient, curvature probes, and the post-step loss are all
    evaluated on ``batch`` (the full objective when it is None), the probes
    drawn from ``rng`` as :func:`hutchinson_diag` draws them.
    ``current`` is the ``(loss, gradient)`` at x on that batch when the
    caller already has it; ``iteration`` numbers the record.  A degenerate
    step (no predicted decrease) evaluates no post-step loss: its record
    has loss_after = loss_before, rho NaN and class UNSUCCESSFUL, and xi is
    kept.  Returns (x', xi', record); x' is x when the step is rejected or
    degenerate.
    """
    loss_before, g = current if current is not None else \
        (obj.eval(x, batch), obj.grad(x, batch))
    b = hutchinson_diag(lambda v: obj.hvp(x, v, batch), obj.dim,
                        cfg.hutchinson_samples, rng)
    sol = root_finder(b, g, xi)
    s = sol.s
    step_norm = math.sqrt(s.dot(s))
    x_new = x + s
    if sol.model_decrease > 0.0 and math.isfinite(sol.model_decrease):
        loss_after = obj.eval(x_new, batch)
        ratio = rho(loss_before, loss_after, sol.model_decrease)
        status, new_xi = update_xi(xi, ratio, step_norm ** 3, cfg)
    else:  # degenerate: the model predicts no decrease
        loss_after, ratio, status, new_xi = \
            loss_before, float("nan"), IterationClass.UNSUCCESSFUL, xi
    accepted = status is not IterationClass.UNSUCCESSFUL
    rec = StepRecord(iteration, loss_before, loss_after, math.sqrt(g @ g), ratio,
                     sol.nu, xi, step_norm, status, sol.status, accepted)
    return (x_new if accepted else x.copy()), new_xi, rec


def run(obj: Objective, x0: np.ndarray, cfg: AdaCubicConfig, max_iters: int,
        batch_size: int | None = None, stop_grad_norm: float = 0.0,
        seed: int = 0) -> Trajectory:
    """Iterate :func:`adacubic_step` from ``cfg.xi0`` until the budget or
    gradient threshold.

    The stop test is second-order aware: a full-batch gradient below the
    threshold at a point whose estimated diagonal curvature has a negative
    entry does not stop the run, so saddle points (where the gradient
    vanishes exactly) are escaped rather than reported as converged.  A
    degenerate full-batch step (no predicted decrease) ends the run.  Two
    runs with the same seed and config are bit-identical.
    """
    rng = np.random.default_rng(seed)
    xi = float(cfg.xi0)
    # a full-batch run draws only probes from rng, so it can draw them ahead
    full_batch = batch_size is None or obj.num_samples == 0
    probes = rademacher_rows(rng, obj.dim) if full_batch else rng

    def curvature_ok(x: np.ndarray) -> bool:
        b = hutchinson_diag(lambda v: obj.hvp(x, v), obj.dim,
                            cfg.hutchinson_samples, probes)
        return float(b.min()) >= 0.0

    def step(k, x, batch, loss, g):
        nonlocal xi
        x, xi, rec = adacubic_step(obj, x, xi, cfg, probes, batch, (loss, g), k)
        return x, rec

    return _iterate(obj, x0, max_iters, batch_size, stop_grad_norm, rng, step,
                    curvature_ok)


def sgd_step(x: np.ndarray, g: np.ndarray, lr: float, momentum: float = 0.0,
             velocity: np.ndarray | None = None):
    """One SGD step from x with gradient ``g``; returns (x', velocity')."""
    v = momentum * (velocity if velocity is not None else np.zeros_like(x)) + g
    return x - lr * v, v


def adam_step(x: np.ndarray, g: np.ndarray, moments, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One Adam step from x with gradient ``g``; returns (x', moments')."""
    m, v, t = moments
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
    """SGD/Adam run in the same loop and record schema as :func:`run`.

    The trust-region specific fields (rho, nu, xi, statuses) carry NaN /
    placeholder values; every step is taken unconditionally.
    """
    if optimizer not in ("sgd", "adam"):
        raise ValueError(f"unknown baseline optimizer {optimizer!r}")
    vel = np.zeros_like(x0, dtype=float)
    moments = (vel, vel, 0)

    def step(k, x, batch, loss, g):
        nonlocal vel, moments
        if optimizer == "sgd":
            x_new, vel = sgd_step(x, g, lr, momentum, vel)
        else:
            x_new, moments = adam_step(x, g, moments, lr, beta1, beta2, eps)
        s = x_new - x
        return x_new, StepRecord(
            k, loss, obj.eval(x_new, batch), math.sqrt(g @ g),
            float("nan"), float("nan"), float("nan"), math.sqrt(s.dot(s)),
            IterationClass.SUCCESSFUL, SubproblemStatus.INTERIOR, True)

    return _iterate(obj, x0, max_iters, batch_size, stop_grad_norm,
                    np.random.default_rng(seed), step)
