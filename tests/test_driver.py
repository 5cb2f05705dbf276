"""Outer loop behavior: acceptance, rejection, determinism, saddle escape,
and the SGD / Adam baselines."""

import dataclasses
import math

import numpy as np
import pytest

from adacubic import (AdaCubicConfig, IterationClass, Objective,
                      SubproblemStatus, adacubic_step, adam_step, driver,
                      make_quadratic, make_rosenbrock, make_saddle,
                      make_synthetic_logistic, rho, run, run_baseline, sgd_step)
from adacubic.config import ALPHA2, ETA1

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
    x_new, xi_new, rec = adacubic_step(obj, x, 1000.0, CFG,
                                       np.random.default_rng(0), iteration=7)
    np.testing.assert_allclose(x_new, [-1.0, -0.5], atol=1e-12)
    assert rec.subproblem_status is SubproblemStatus.INTERIOR
    assert rec.nu == 0.0
    assert rec.accepted
    # exact quadratic model: actual drop equals predicted quadratic drop
    assert rec.rho == pytest.approx(1.0)
    assert rec.status is IterationClass.VERY_SUCCESSFUL
    assert xi_new == 1000.0  # expansion never shrinks xi
    assert rec.iteration == 7


def test_step_escapes_saddle_via_hard_case():
    obj = make_saddle()
    x = np.zeros(2)
    x_new, _, rec = adacubic_step(obj, x, 1.0, CFG, np.random.default_rng(0))
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
    x_new, xi_new, rec = adacubic_step(lying, x, 8.0, CFG,
                                       np.random.default_rng(0))
    assert not rec.accepted
    assert rec.status is IterationClass.UNSUCCESSFUL
    np.testing.assert_array_equal(x_new, x)
    assert xi_new == max(ALPHA2 * rec.step_norm ** 3, CFG.eps_m)


def test_degenerate_stationary_step_is_terminal_record():
    obj = make_quadratic(np.array([1.0, 2.0]), np.zeros(2))
    x = np.zeros(2)  # gradient is exactly zero, PD curvature
    x_new, xi_new, rec = adacubic_step(obj, x, 1.0, CFG, np.random.default_rng(0))
    assert math.isnan(rec.rho)
    assert not rec.accepted
    assert rec.status is IterationClass.UNSUCCESSFUL
    assert rec.loss_after == rec.loss_before
    assert xi_new == rec.xi == 1.0
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
    assert all(r.accepted == (r.rho >= ETA1) for r in traj.records
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
    b = run(obj, np.zeros(3), CFG, 10, batch_size=8, seed=1)
    assert any(ra.loss_before != rb.loss_before
               for ra, rb in zip(a.records, b.records))


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_sgd_step_definition():
    obj = make_quadratic(np.array([1.0, 1.0]), np.zeros(2))
    x = np.array([1.0, 2.0])
    x_new, vel = sgd_step(x, obj.grad(x), lr=0.1)
    np.testing.assert_allclose(x_new, x - 0.1 * obj.grad(x))
    np.testing.assert_allclose(vel, obj.grad(x))


def test_sgd_momentum_accumulates():
    obj = make_quadratic(np.array([1.0]), np.zeros(1))
    x = np.array([1.0])
    x1, v1 = sgd_step(x, obj.grad(x), lr=0.1, momentum=0.9)
    x2, v2 = sgd_step(x1, obj.grad(x1), lr=0.1, momentum=0.9, velocity=v1)
    np.testing.assert_allclose(v2, 0.9 * v1 + obj.grad(x1))


def test_adam_first_step_magnitude():
    obj = make_quadratic(np.array([1.0, 1.0]), np.zeros(2))
    x = np.array([1.0, -2.0])
    moments = (np.zeros(2), np.zeros(2), 0)
    x_new, _ = adam_step(x, obj.grad(x), moments, lr=0.01)
    # bias-corrected first step is close to -lr * sign(g) per coordinate
    np.testing.assert_allclose(x_new - x, [-0.01, 0.01], rtol=1e-6)


def test_adam_zero_gradient_fixed_point():
    obj = make_quadratic(np.array([1.0]), np.zeros(1))
    x = np.zeros(1)
    x_new, _ = adam_step(x, obj.grad(x), (np.zeros(1), np.zeros(1), 0), lr=0.01)
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


@pytest.mark.parametrize("batch_size", [None, 8])
def test_run_raises_on_a_non_finite_gradient(batch_size):
    # the curvature is positive everywhere, so without the raise a NaN
    # gradient norm would fall through to the curvature half of the stop
    # test and end the run as if it had converged
    quad = make_quadratic(np.array([1.0, 2.0]), np.zeros(2))
    obj = Objective(dim=2, eval_fn=quad.eval_fn,
                    grad_fn=lambda x, b=None: np.full(2, np.nan),
                    hvp_fn=quad.hvp_fn, num_samples=20)
    with pytest.raises(FloatingPointError):
        run(obj, np.ones(2), CFG, 10, batch_size, stop_grad_norm=1e-6)


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
    and per full-batch or batch call, and without a gradient-norm floor, so
    that every stop test takes the full-batch gradient."""
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


def _full_gradients(traj, max_iters):
    """The full-batch gradients a run takes: one at each point at which an
    iteration starts, that is at x0 and after each accepted step, except the
    point reached by the accepted last step of a run that used its budget."""
    accepted = sum(r.accepted for r in traj.records)
    at_budget = len(traj.records) == max_iters and traj.records[-1].accepted
    return 1 + accepted - at_budget


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
    assert counts[("eval", "full")] == 1 + steps - degenerate
    assert counts[("grad", "full")] == _full_gradients(traj, iters)
    # plus the stop check's probes, at each point where the gradient is small
    assert counts[("hvp", "full")] >= CFG.hutchinson_samples * steps
    assert set(counts) == {("eval", "full"), ("grad", "full"), ("hvp", "full")}


def test_minibatch_run_takes_one_full_gradient_per_point():
    # the first rejected steps of this run are its 13th, 22nd and 28th: a
    # budget of 30 ends on an accepted step, one of 28 on a rejected one
    for iters in (30, 28):
        counted, counts = _counting(make_synthetic_logistic(60, 3, 1e-2, 1))
        traj = run(counted, np.zeros(3), CFG, iters, batch_size=16)
        n = len(traj.records)
        assert n == iters and not any(math.isnan(r.rho) for r in traj.records)
        assert traj.records[-1].accepted == (iters == 30)
        assert counts == {("grad", "full"): _full_gradients(traj, iters),
                          ("eval", "batch"): 2 * n, ("grad", "batch"): n,
                          ("hvp", "batch"): n}


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



def test_full_batch_run_calls_each_layer_once_per_iteration(monkeypatch):
    # the benchmark's tracer wraps these driver globals to time each layer
    counts = {"hutchinson_diag": 0, "root_finder": 0}

    def counting(name):
        fn = getattr(driver, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    plain = run(make_rosenbrock(2), np.array([-1.2, 1.0]), CFG, 60)
    for name in counts:
        monkeypatch.setattr(driver, name, counting(name))
    traj = run(make_rosenbrock(2), np.array([-1.2, 1.0]), CFG, 60)
    assert len(traj.records) == 60 and traj.records == plain.records
    assert counts == {"hutchinson_diag": 60, "root_finder": 60}


# ---------------------------------------------------------------------------
# the minibatch stop test with a gradient-norm floor
# ---------------------------------------------------------------------------

def _minibatch_run(obj, optimizer, stop, iters=200):
    x0 = np.zeros(obj.dim)
    if optimizer == "adacubic":
        return run(obj, x0, CFG, iters, 16, stop, seed=2)
    return run_baseline(obj, x0, optimizer, 0.1, iters, 16, stop, seed=2)


@pytest.mark.parametrize("optimizer", ["adacubic", "sgd", "adam"])
def test_minibatch_stop_is_the_same_with_and_without_the_floor(optimizer):
    obj = make_synthetic_logistic(400, 5, 1e-2, 3)
    plain = dataclasses.replace(obj, grad_norm_floor_fn=None)
    # the full-batch gradient norm at each point of a run that never stops
    norms = []

    def recorded(w, batch=None):
        g = obj.grad_fn(w, batch)
        if batch is None:
            norms.append(math.sqrt(g @ g))
        return g

    _minibatch_run(dataclasses.replace(plain, grad_fn=recorded), optimizer, 0.0)
    # the smallest norm after x0 stops the runs below at its point, k > 0
    stop = min(norms[1:])
    assert norms[0] > 4.0 * stop
    counted, counts = _counting(obj)
    without = _minibatch_run(plain, optimizer, stop)
    with_floor = _minibatch_run(
        dataclasses.replace(counted, grad_norm_floor_fn=obj.grad_norm_floor_fn),
        optimizer, stop)
    assert 0 < len(with_floor.records) < 200
    # repr, exact for floats, also matches the baselines' NaN fields
    assert repr(with_floor.records) == repr(without.records)
    np.testing.assert_array_equal(with_floor.final_x, without.final_x)
    # the floor skipped the full-batch gradient at some points, not all
    assert 1 < counts[("grad", "full")] < _full_gradients(with_floor, 200)


@pytest.mark.parametrize("stop", [1e-6, 0.02])
def test_minibatch_run_takes_full_gradients_only_where_the_floor_certifies_nothing(stop):
    obj = make_synthetic_logistic(400, 5, 1e-2, 3)
    for optimizer in ("adacubic", "sgd", "adam"):
        floors, full = [], []

        def floor(w):
            floors.append((w.copy(), obj.grad_norm_floor_fn(w)))
            return floors[-1][1]

        def grad(w, batch=None):
            if batch is None:
                full.append(w.copy())
            return obj.grad_fn(w, batch)

        traj = _minibatch_run(dataclasses.replace(obj, grad_fn=grad,
                                                  grad_norm_floor_fn=floor),
                              optimizer, stop, iters=60)
        # one floor at each point where an iteration starts, and a full-batch
        # gradient only at those whose floor proves nothing
        assert len(floors) == _full_gradients(traj, 60)
        uncertified = [w for w, value in floors if not value > 2.0 * stop + 2.0 ** -500]
        assert len(full) == len(uncertified)
        for got, want in zip(full, uncertified):
            np.testing.assert_array_equal(got, want)
        if stop == 1e-6:  # the benchmark's threshold: only x0 = 0 is tested
            assert len(full) == 1 and not full[0].any()


def test_a_full_batch_run_never_asks_for_a_floor():
    # its step needs the gradient anyway
    calls = []
    obj = dataclasses.replace(make_synthetic_logistic(80, 3, 1e-2, 4),
                              grad_norm_floor_fn=lambda w: calls.append(1) or 1.0)
    assert len(run(obj, np.ones(3), CFG, 20).records) == 20
    assert len(run_baseline(obj, np.ones(3), "sgd", 0.1, 20).records) == 20
    assert calls == []


@pytest.mark.parametrize("x0", [[math.nan, 0.0, 0.0], [math.inf, 1.0, 1.0]])
def test_a_non_finite_point_gets_no_certificate_and_raises(x0):
    obj = make_synthetic_logistic(40, 3, 1e-2, 1)
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
        run_baseline(obj, np.array(x0), "sgd", 0.1, 5, batch_size=8)
