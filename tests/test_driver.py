"""Outer loop behavior: acceptance, rejection, determinism, saddle escape,
and the SGD / Adam baselines."""

import math

import numpy as np
import pytest

from adacubic import (AdaCubicConfig, IterationClass, Objective, StepRecord,
                      SubproblemStatus, Trajectory, TrustRegionState,
                      accept_step, adacubic_step, adam_step, classify_iteration,
                      draw_batch, hutchinson_diag, make_quadratic,
                      make_rosenbrock, make_saddle, make_synthetic_logistic, rho,
                      root_finder, run, run_baseline, sgd_step, update_xi)
from adacubic.harness import record_to_row

CFG = AdaCubicConfig()


def test_rho_basic_values():
    assert rho(1.0, 0.5, 0.5) == pytest.approx(1.0)
    assert rho(1.0, 1.0, 0.5) == 0.0
    assert rho(1.0, 2.0, 0.5) == pytest.approx(-2.0)


def test_rho_rejects_degenerate_model():
    with pytest.raises(ZeroDivisionError):
        rho(1.0, 0.5, 0.0)
    with pytest.raises(ZeroDivisionError):
        rho(1.0, 0.5, -1.0)


def test_step_lands_on_quadratic_minimizer_when_interior():
    obj = make_quadratic(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    x = np.array([1.0, 1.0])
    state = TrustRegionState(xi=1000.0)
    x_new, state_new, rec = adacubic_step(obj, x, state, CFG,
                                          np.random.default_rng(0))
    np.testing.assert_allclose(x_new, [-1.0, -0.5], atol=1e-12)
    assert rec.subproblem_status is SubproblemStatus.INTERIOR
    assert rec.nu == 0.0
    assert rec.accepted
    # exact quadratic model: actual drop equals predicted quadratic drop
    assert rec.rho == pytest.approx(1.0)
    assert state_new.iteration == 1


def test_step_escapes_saddle_via_hard_case():
    obj = make_saddle()
    x = np.zeros(2)
    x_new, _, rec = adacubic_step(obj, x, TrustRegionState(xi=1.0), CFG,
                                  np.random.default_rng(0))
    assert rec.subproblem_status is SubproblemStatus.HARD_CASE
    assert x_new[1] != 0.0
    assert obj.eval(x_new) < obj.eval(x)
    assert rec.accepted


def test_rejected_step_keeps_point_and_shrinks_xi():
    # adversarial objective: the true loss increases where the model predicts
    # a drop, so rho < 0 and the step must be rejected
    obj = make_quadratic(np.array([1.0]), np.array([1.0]))
    lying = make_quadratic(np.array([1.0]), np.array([1.0]))
    lying = lying.__class__(
        dim=1,
        eval_fn=lambda x, b=None: float(-x[0] + x[0] ** 4),
        grad_fn=obj.grad_fn, hvp_fn=obj.hvp_fn,
        exact_diag_fn=obj.exact_diag_fn)
    x = np.array([0.0])
    state = TrustRegionState(xi=8.0)
    x_new, state_new, rec = adacubic_step(lying, x, state, CFG,
                                          np.random.default_rng(0))
    assert not rec.accepted
    assert rec.status is IterationClass.UNSUCCESSFUL
    np.testing.assert_array_equal(x_new, x)
    assert state_new.xi == max(CFG.alpha2 * rec.step_norm ** 3, CFG.eps_m)


def test_degenerate_stationary_step_is_terminal_record():
    obj = make_quadratic(np.array([1.0, 2.0]), np.zeros(2))
    x = np.zeros(2)  # gradient is exactly zero, PD curvature
    x_new, _, rec = adacubic_step(obj, x, TrustRegionState(xi=1.0), CFG,
                                  np.random.default_rng(0))
    assert math.isnan(rec.rho)
    assert not rec.accepted
    np.testing.assert_array_equal(x_new, x)


def test_run_requires_positive_budget():
    obj = make_saddle()
    with pytest.raises(ValueError):
        run(obj, np.zeros(2), CFG, 0)


def test_run_stops_at_gradient_threshold():
    obj = make_quadratic(np.arange(1.0, 11.0), np.zeros(10))
    traj = run(obj, np.ones(10), CFG, 50, stop_grad_norm=1e-10)
    assert 0 < len(traj.records) < 50
    assert float(np.linalg.norm(obj.grad(traj.final_x))) <= 1e-10


def test_run_does_not_stop_at_saddle():
    # gradient vanishes at the start but curvature is indefinite, so the
    # stop check must not fire before the saddle is escaped
    obj = make_saddle()
    traj = run(obj, np.zeros(2), CFG, 100, stop_grad_norm=1e-8)
    assert len(traj.records) >= 1
    assert obj.eval(traj.final_x) <= -0.24


def test_records_are_gapless_and_xi_floored():
    obj = make_rosenbrock(2)
    traj = run(obj, np.array([-1.2, 1.0]), CFG, 60)
    assert [r.iteration for r in traj.records] == list(range(len(traj.records)))
    assert all(r.xi >= CFG.eps_m for r in traj.records)
    assert all(r.accepted == (r.rho >= CFG.eta1) for r in traj.records
               if not math.isnan(r.rho))


def test_accepted_losses_strictly_decrease():
    obj = make_synthetic_logistic(100, 4, 1e-2, 3)
    traj = run(obj, np.zeros(4), CFG, 200, stop_grad_norm=1e-8)
    accepted = [r for r in traj.records if r.accepted]
    assert accepted
    for rec in accepted:
        assert rec.loss_after < rec.loss_before
    losses = [r.loss_before for r in accepted] + [accepted[-1].loss_after]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_run_is_deterministic():
    obj = make_synthetic_logistic(60, 3, 1e-2, 1)
    a = run(obj, np.zeros(3), CFG, 40, batch_size=16)
    b = run(obj, np.zeros(3), CFG, 40, batch_size=16)
    np.testing.assert_array_equal(a.final_x, b.final_x)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra == rb or (math.isnan(ra.rho) and math.isnan(rb.rho)
                            and ra.iteration == rb.iteration)


def test_different_seeds_differ_stochastically():
    obj = make_synthetic_logistic(60, 3, 1e-2, 1)
    a = run(obj, np.zeros(3), CFG, 10, batch_size=8)
    b = run(obj, np.zeros(3), CFG.replace(rng_seed=1), 10, batch_size=8)
    assert any(ra.loss_before != rb.loss_before
               for ra, rb in zip(a.records, b.records))


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_sgd_step_definition():
    obj = make_quadratic(np.array([1.0, 1.0]), np.zeros(2))
    x = np.array([1.0, 2.0])
    x_new, vel = sgd_step(obj, x, lr=0.1)
    np.testing.assert_allclose(x_new, x - 0.1 * obj.grad(x))
    np.testing.assert_allclose(vel, obj.grad(x))


def test_sgd_momentum_accumulates():
    obj = make_quadratic(np.array([1.0]), np.zeros(1))
    x = np.array([1.0])
    x1, v1 = sgd_step(obj, x, lr=0.1, momentum=0.9)
    x2, v2 = sgd_step(obj, x1, lr=0.1, momentum=0.9, velocity=v1)
    np.testing.assert_allclose(v2, 0.9 * v1 + obj.grad(x1))


def test_adam_first_step_magnitude():
    obj = make_quadratic(np.array([1.0, 1.0]), np.zeros(2))
    x = np.array([1.0, -2.0])
    moments = (np.zeros(2), np.zeros(2), 0)
    x_new, _ = adam_step(obj, x, moments, lr=0.01)
    # bias-corrected first step is close to -lr * sign(g) per coordinate
    np.testing.assert_allclose(x_new - x, [-0.01, 0.01], rtol=1e-6)


def test_adam_zero_gradient_fixed_point():
    obj = make_quadratic(np.array([1.0]), np.zeros(1))
    x = np.zeros(1)
    x_new, _ = adam_step(obj, x, (np.zeros(1), np.zeros(1), 0), lr=0.01)
    np.testing.assert_array_equal(x_new, x)


def test_run_baseline_schema_and_progress():
    obj = make_quadratic(np.array([1.0, 2.0]), np.zeros(2))
    traj = run_baseline(obj, np.ones(2), "sgd", 0.1, 100, stop_grad_norm=1e-3)
    assert 0 < len(traj.records) < 100
    rec = traj.records[0]
    assert math.isnan(rec.rho) and math.isnan(rec.nu) and math.isnan(rec.xi)
    assert rec.accepted
    assert traj.records[-1].loss_after < traj.records[0].loss_before


def test_run_baseline_rejects_unknown_optimizer():
    obj = make_quadratic(np.array([1.0]), np.zeros(1))
    with pytest.raises(ValueError):
        run_baseline(obj, np.ones(1), "lbfgs", 0.1, 10)


def test_run_baseline_raises_once_its_iterate_diverges():
    # SGD with momentum overflows on Rosenbrock from the standard start; a
    # NaN or infinite gradient norm never passes the stop check, so without
    # the raise the run would write NaN rows until its budget
    x0 = np.array([-1.2] + [1.0] * 9)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError):
        run_baseline(make_rosenbrock(10), x0, "sgd", 0.01, 400, momentum=0.5)


# ---------------------------------------------------------------------------
# oracle calls per iteration, and the loops they were cut from
# ---------------------------------------------------------------------------

def _counting(obj):
    """``obj`` with its loss, gradient and HVP calls counted, per callable
    and per full-batch or batch call."""
    counts = {}

    def counted(kind, fn):
        def call(*args):
            key = (kind, "full" if args[-1] is None else "batch")
            counts[key] = counts.get(key, 0) + 1
            return fn(*args)
        return call

    return Objective(dim=obj.dim, eval_fn=counted("eval", obj.eval_fn),
                     grad_fn=counted("grad", obj.grad_fn),
                     hvp_fn=counted("hvp", obj.hvp_fn),
                     exact_diag_fn=obj.exact_diag_fn,
                     num_samples=obj.num_samples), counts


@pytest.mark.parametrize("obj,x0,iters,stop", [
    (make_rosenbrock(2), np.array([-1.2, 1.0]), 60, 0.0),
    (make_synthetic_logistic(80, 3, 1e-2, 4), np.zeros(3), 40, 1e-8),
    (make_saddle(), np.zeros(2), 50, 1e-8),
    # zero gradient at a minimum and a stop threshold that never fires:
    # the only step is degenerate
    (make_quadratic(np.array([1.0, 2.0]), np.zeros(2)), np.zeros(2), 5, -1.0),
])
def test_full_batch_run_takes_one_loss_and_at_most_one_gradient_per_iteration(
        obj, x0, iters, stop):
    counted, counts = _counting(obj)
    traj = run(counted, x0, CFG, iters, stop_grad_norm=stop)
    steps = len(traj.records)
    degenerate = sum(math.isnan(r.rho) for r in traj.records)
    accepted = sum(r.accepted for r in traj.records)
    assert counts[("eval", "full")] == 1 + steps - degenerate
    assert counts[("grad", "full")] == 1 + accepted
    # plus the stop check's probes, at each point where the gradient is small
    assert counts[("hvp", "full")] >= CFG.hutchinson_samples * steps
    assert set(counts) == {("eval", "full"), ("grad", "full"), ("hvp", "full")}


def test_minibatch_run_takes_one_full_gradient_per_iteration():
    counted, counts = _counting(make_synthetic_logistic(60, 3, 1e-2, 1))
    traj = run(counted, np.zeros(3), CFG, 30, batch_size=16)
    n = len(traj.records)
    assert n == 30 and not any(math.isnan(r.rho) for r in traj.records)
    assert counts == {("grad", "full"): n, ("eval", "batch"): 2 * n,
                      ("grad", "batch"): n, ("hvp", "batch"): n}


@pytest.mark.parametrize("batch_size", [None, 8])
def test_baselines_take_each_gradient_once(batch_size):
    obj = make_synthetic_logistic(60, 3, 1e-2, 1)
    for optimizer in ("sgd", "adam"):
        counted, counts = _counting(obj)
        traj = run_baseline(counted, np.zeros(3), optimizer, 0.1, 25,
                            batch_size=batch_size)
        n = len(traj.records)
        assert n == 25
        if batch_size is None:
            # the stop check's gradient is the step's; one loss per point
            assert counts == {("grad", "full"): n, ("eval", "full"): n + 1}
        else:
            assert counts == {("grad", "full"): n, ("grad", "batch"): n,
                              ("eval", "batch"): 2 * n}
        ref = _reference_run_baseline(obj, np.zeros(3), optimizer, 0.1, 25,
                                      batch_size=batch_size)
        assert _rows(traj) == _rows(ref)
        assert np.array_equal(traj.final_x, ref.final_x)


def _rows(traj):
    return [record_to_row(r) for r in traj.records]


def _dense_rosenbrock(d):
    """Rosenbrock whose HVP multiplies by the dense Hessian, so that the
    reference loop and :func:`run` see the same oracle bit for bit."""
    obj = make_rosenbrock(d)

    def hess(x):
        H = np.zeros((d, d))
        for i in range(d - 1):
            H[i, i] += 2.0 - 400.0 * (x[i + 1] - x[i] ** 2) + 800.0 * x[i] ** 2
            H[i + 1, i + 1] += 200.0
            H[i, i + 1] += -400.0 * x[i]
            H[i + 1, i] += -400.0 * x[i]
        return H

    return Objective(dim=d, eval_fn=obj.eval_fn, grad_fn=obj.grad_fn,
                     hvp_fn=lambda x, v, b=None: hess(x) @ v)


@pytest.mark.parametrize("obj,x0,iters,batch_size,stop", [
    (make_quadratic(np.array([1.0, 2.0, -0.5]), np.array([1.0, 1.0, 0.3])),
     np.ones(3), 60, None, 1e-8),
    (make_quadratic(np.arange(1.0, 6.0), np.zeros(5)), np.ones(5), 80, None, 1e-10),
    (make_saddle(), np.zeros(2), 100, None, 1e-8),
    (make_synthetic_logistic(200, 5, 1e-2, 7), np.zeros(5), 150, None, 1e-6),
    (make_synthetic_logistic(200, 5, 1e-2, 7), np.zeros(5), 150, 32, 1e-6),
    (_dense_rosenbrock(2), np.array([-1.2, 1.0]), 400, None, 1e-6),
    (_dense_rosenbrock(6), np.full(6, 0.5), 200, None, 1e-6),
])
def test_run_matches_the_loop_that_evaluated_every_oracle_value(obj, x0, iters,
                                                                batch_size, stop):
    for seed in (0, 1):
        cfg = CFG.replace(rng_seed=seed)
        got = run(obj, x0, cfg, iters, batch_size, stop)
        want = _reference_run(obj, x0, cfg, iters, batch_size, stop)
        assert _rows(got) == _rows(want)
        assert np.array_equal(got.final_x, want.final_x)


def _reference_step(obj, x, state, cfg, rng, batch_size=None):
    """adacubic_step as it was before run carried the loss and gradient:
    every value is evaluated afresh."""
    batch = None
    if batch_size is not None and obj.num_samples > 0:
        batch = draw_batch(rng, obj.num_samples, batch_size)

    loss_before = obj.eval(x, batch)
    g = obj.grad(x, batch)
    b = hutchinson_diag(lambda v: obj.hvp(x, v, batch), obj.dim,
                        cfg.hutchinson_samples, rng)
    sol = root_finder(b, g, state.xi, cfg)
    s = sol.s
    step_norm = float(np.linalg.norm(s))
    loss_after = obj.eval(x + s, batch)

    degenerate = not (sol.model_decrease > 0.0) or not math.isfinite(sol.model_decrease)
    if degenerate:
        rec = StepRecord(state.iteration, loss_before, loss_before,
                         float(np.linalg.norm(g)), float("nan"), sol.nu, state.xi,
                         step_norm, IterationClass.UNSUCCESSFUL, sol.status, False)
        return x.copy(), TrustRegionState(xi=state.xi, iteration=state.iteration + 1), rec

    ratio = rho(loss_before, loss_after, sol.model_decrease)
    accepted = accept_step(ratio, cfg)
    new_xi = update_xi(state, ratio, step_norm ** 3, cfg)
    rec = StepRecord(state.iteration, loss_before, loss_after,
                     float(np.linalg.norm(g)), ratio, sol.nu, state.xi, step_norm,
                     classify_iteration(ratio, cfg), sol.status, accepted)
    new_x = x + s if accepted else x.copy()
    return new_x, TrustRegionState(xi=new_xi, iteration=state.iteration + 1), rec


def _reference_run(obj, x0, cfg, max_iters, batch_size=None, stop_grad_norm=0.0,
                   xi0=1.0):
    rng = np.random.default_rng(cfg.rng_seed)
    x = np.asarray(x0, dtype=float).copy()
    state = TrustRegionState(xi=xi0)
    records = []
    full_batch = batch_size is None or obj.num_samples == 0

    def stationary(pt):
        if float(np.linalg.norm(obj.grad(pt))) > stop_grad_norm:
            return False
        b = hutchinson_diag(lambda v: obj.hvp(pt, v), obj.dim,
                            cfg.hutchinson_samples, rng)
        return float(b.min()) >= 0.0

    for _ in range(max_iters):
        if stationary(x):
            break
        x, state, rec = _reference_step(obj, x, state, cfg, rng, batch_size)
        records.append(rec)
        if math.isnan(rec.rho) and full_batch:
            break
    return Trajectory(records=records, final_x=x, seed=cfg.rng_seed)


def _reference_run_baseline(obj, x0, optimizer, lr, max_iters, batch_size=None,
                            stop_grad_norm=0.0, seed=0):
    """run_baseline as it was before it passed its gradient to the step."""
    rng = np.random.default_rng(seed)
    x = np.asarray(x0, dtype=float).copy()
    vel = np.zeros_like(x)
    moments = (np.zeros_like(x), np.zeros_like(x), 0)
    records = []
    for k in range(max_iters):
        if float(np.linalg.norm(obj.grad(x))) <= stop_grad_norm:
            break
        batch = None
        if batch_size is not None and obj.num_samples > 0:
            batch = draw_batch(rng, obj.num_samples, batch_size)
        loss_before = obj.eval(x, batch)
        g = obj.grad(x, batch)
        if optimizer == "sgd":
            x_new, vel = sgd_step(obj, x, lr, 0.0, vel, batch)
        else:
            x_new, moments = adam_step(obj, x, moments, lr, batch=batch)
        loss_after = obj.eval(x_new, batch)
        records.append(StepRecord(
            k, loss_before, loss_after, float(np.linalg.norm(g)),
            float("nan"), float("nan"), float("nan"),
            float(np.linalg.norm(x_new - x)), IterationClass.SUCCESSFUL,
            SubproblemStatus.INTERIOR, True))
        x = x_new
    return Trajectory(records=records, final_x=x, seed=seed)
