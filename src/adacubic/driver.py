"""One iteration loop for AdaCubic and the SGD / Adam baselines, and their
update rules."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import AdaCubicConfig, IterationClass, update_xi
from .hutchinson import hutchinson_diag, rademacher_blocks
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


def _iterate(obj: Objective, x0: np.ndarray, max_iters: int,
             batch_size: int | None, stop_grad_norm: float,
             seed: int, step, curvature_ok=None) -> Trajectory:
    """The iteration loop of :func:`run` and :func:`run_baseline`.

    The stop test runs at each iteration k with k % e == 0: at every
    iteration of a full-batch run (e = 1), and at each epoch boundary of a
    minibatch one, e = ceil(num_samples / batch_size).  It stops the run
    when the full-batch gradient norm at x is at most ``stop_grad_norm``
    (and ``curvature_ok(x)``, if given).  Otherwise the iteration calls
    ``step(k, x, batch, loss, g, g_norm) -> (x', record)`` with the loss,
    gradient and gradient norm at x on ``batch``: None in a full-batch run,
    else drawn from the stream of ``SeedSequence(seed).spawn(1)[0]``.  The
    full-batch loss, gradient and gradient norm at a point are each computed
    at most once, when an iteration first needs them.  A non-finite
    stop-test gradient norm raises ``FloatingPointError``; ``stop_grad_norm``
    outside [0, inf), ``x0`` not of shape (obj.dim,) or a minibatch
    ``batch_size`` outside [1, num_samples] is a ``ValueError``, raised
    before any oracle call.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if np.shape(x0) != (obj.dim,):
        raise ValueError(f"x0 has shape {np.shape(x0)}, problem dimension is {obj.dim}")
    if not (0.0 <= stop_grad_norm < math.inf):  # NaN fails
        raise ValueError(f"need 0 <= stop_grad_norm < inf, got {stop_grad_norm!r}")
    x = np.asarray(x0, dtype=float).copy()
    records = []
    full_batch = batch_size is None or obj.num_samples == 0
    if not full_batch and not 1 <= batch_size <= obj.num_samples:
        raise ValueError(f"need 1 <= batch_size <= num_samples = {obj.num_samples}, "
                         f"got {batch_size}")
    epoch = 1 if full_batch else -(-obj.num_samples // batch_size)
    batches = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    loss = g_full = None  # the full-batch loss and gradient at x, once computed
    for k in range(max_iters):
        if k % epoch == 0:
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
            x, rec = step(k, x, None, loss, g_full, grad_norm)
        else:
            batch = draw_batch(batches, obj.num_samples, batch_size)
            f, g = obj.eval(x, batch), obj.grad(x, batch)
            x, rec = step(k, x, batch, f, g, math.sqrt(g @ g))
        records.append(rec)
        if rec.accepted:
            loss, g_full = (rec.loss_after if full_batch else None), None
        elif full_batch and math.isnan(rec.rho):
            break  # a degenerate step: stationary model on the full objective
    return Trajectory(records=records, final_x=x)


def adacubic_step(obj: Objective, x: np.ndarray, xi: float, b: np.ndarray,
                  loss_before: float, g: np.ndarray, g_norm: float, batch=None,
                  iteration=0):
    """One iteration from x, whose loss, gradient, gradient norm
    ``math.sqrt(g @ g)`` and diagonal curvature estimate on ``batch`` (the
    full objective when None) are ``loss_before``, ``g``, ``g_norm`` and
    ``b``: solve the subproblem, accept or reject.

    The post-step loss is on ``batch`` too; ``iteration`` numbers the record.
    A degenerate step (no predicted decrease) evaluates no post-step loss:
    its record has loss_after = loss_before, rho NaN and class UNSUCCESSFUL,
    and xi is kept.  Returns (x', xi', record); x' is x when the step is
    rejected or degenerate.
    """
    sol = root_finder(b, g, xi)
    s = sol.s
    step_norm = math.sqrt(s.dot(s))
    x_new = x + s
    if sol.model_decrease > 0.0 and math.isfinite(sol.model_decrease):
        loss_after = obj.eval(x_new, batch)
        ratio = (loss_before - loss_after) / sol.model_decrease
        status, new_xi = update_xi(xi, ratio, step_norm ** 3)
    else:  # degenerate: the model predicts no decrease
        loss_after, ratio, status, new_xi = \
            loss_before, float("nan"), IterationClass.UNSUCCESSFUL, xi
    accepted = status is not IterationClass.UNSUCCESSFUL
    rec = StepRecord(iteration, loss_before, loss_after, g_norm, ratio,
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
    runs with the same seed and config are bit-identical.  Each curvature
    estimate, of a step or of the stop test, is one block HVP on the next
    block of ``cfg.hutchinson_samples`` probe rows, which
    :func:`rademacher_blocks` draws ahead from ``default_rng(seed)``.
    """
    xi = float(cfg.xi0)
    probes = rademacher_blocks(np.random.default_rng(seed), cfg.hutchinson_samples,
                               obj.dim)

    def curvature(x: np.ndarray, batch=None) -> np.ndarray:
        return hutchinson_diag(lambda V: obj.hvp(x, V, batch), next(probes))

    def step(k, x, batch, loss, g, g_norm):
        nonlocal xi
        x, xi, rec = adacubic_step(obj, x, xi, curvature(x, batch), loss, g, g_norm,
                                   batch, k)
        return x, rec

    return _iterate(obj, x0, max_iters, batch_size, stop_grad_norm, seed, step,
                    lambda x: float(curvature(x).min()) >= 0.0)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(x: np.ndarray, g: np.ndarray, moments, lr: float):
    """One Adam step from x with gradient ``g``, at Kingma & Ba's (2015)
    ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``; returns (x', moments')."""
    m, v, t = moments
    t += 1
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    return x - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), (m, v, t)


def run_baseline(obj: Objective, x0: np.ndarray, optimizer: str, lr: float,
                 max_iters: int, batch_size: int | None = None,
                 stop_grad_norm: float = 0.0, seed: int = 0) -> Trajectory:
    """SGD (``x - lr * g``) or Adam run in the same loop and record schema as
    :func:`run`; ``lr``, in (0, inf), is the only value either takes.

    The trust-region specific fields (rho, nu, xi, statuses) carry NaN /
    placeholder values; every step is taken unconditionally.
    """
    if optimizer not in ("sgd", "adam"):
        raise ValueError(f"unknown baseline optimizer {optimizer!r}")
    if not (0.0 < lr < math.inf):  # NaN fails
        raise ValueError(f"need 0 < lr < inf, got {lr!r}")
    zeros = np.zeros_like(x0, dtype=float)
    moments = (zeros, zeros, 0)

    def step(k, x, batch, loss, g, g_norm):
        nonlocal moments
        if optimizer == "sgd":
            x_new = x - lr * g
        else:
            x_new, moments = adam_step(x, g, moments, lr)
        s = x_new - x
        return x_new, StepRecord(
            k, loss, obj.eval(x_new, batch), g_norm,
            float("nan"), float("nan"), float("nan"), math.sqrt(s.dot(s)),
            IterationClass.SUCCESSFUL, SubproblemStatus.INTERIOR, True)

    return _iterate(obj, x0, max_iters, batch_size, stop_grad_norm, seed, step)
