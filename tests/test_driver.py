"""Outer loop behavior: acceptance, rejection, determinism, saddle escape,
and the SGD / Adam baselines."""

import dataclasses
import functools
import inspect
import math

import numpy as np
import pytest

from adacubic import (AdaCubicConfig, IterationClass, Objective, SubproblemSolution,
                      SubproblemStatus, adacubic_step, adam_step, driver, hutchinson,
                      make_quadratic, make_rosenbrock, make_saddle,
                      make_synthetic_logistic, root_finder, run, run_baseline, update_xi,
                      verify)
from adacubic.config import ALPHA2, ETA1

CFG = AdaCubicConfig()


def _step(obj, x, xi, **kwargs):
    """:func:`adacubic_step` on the full objective from x, with the exact
    diagonal, which every Rademacher estimate equals on these diagonal
    Hessians."""
    g = obj.grad(x)
    return adacubic_step(obj, x, xi, obj.exact_diag_hessian(x), obj.eval(x), g,
                         math.sqrt(g @ g), **kwargs)


def test_the_step_takes_its_curvature_estimate_and_no_config():
    # run alone holds the config and the probe stream; the caller's stop
    # test has taken ||g|| already, so the step takes it too, and must
    assert list(inspect.signature(adacubic_step).parameters) == [
        "obj", "x", "xi", "b", "loss_before", "g", "g_norm", "batch", "iteration"]
    assert inspect.signature(adacubic_step).parameters["g_norm"].default \
        is inspect.Parameter.empty
    assert list(inspect.signature(update_xi).parameters) == ["xi", "rho", "step_norm_cubed"]


def test_step_lands_on_quadratic_minimizer_when_interior():
    obj = make_quadratic(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    x = np.array([1.0, 1.0])
    x_new, xi_new, rec = _step(obj, x, 1000.0, iteration=7)
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
    x_new, _, rec = _step(obj, x, 1.0)
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
    x_new, xi_new, rec = _step(lying, x, 8.0)
    assert not rec.accepted
    assert rec.status is IterationClass.UNSUCCESSFUL
    assert x_new is x
    assert xi_new == max(ALPHA2 * rec.step_norm ** 3, CFG.eps_m)


def test_degenerate_stationary_step_is_terminal_record():
    obj = make_quadratic(np.array([1.0, 2.0]), np.zeros(2))
    x = np.zeros(2)  # gradient is exactly zero, PD curvature
    x_new, xi_new, rec = _step(obj, x, 1.0)
    assert math.isnan(rec.rho)
    assert not rec.accepted
    assert rec.status is IterationClass.UNSUCCESSFUL
    assert rec.loss_after == rec.loss_before
    assert xi_new == rec.xi == 1.0
    assert x_new is x


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
# the result types
# ---------------------------------------------------------------------------

def _one_result_of_each_type():
    b, g, xi = np.array([2.0, -1.0]), np.array([0.5, 0.25]), 1.0
    sol = root_finder(b, g, xi)
    traj = run(make_saddle(), np.array([0.5, 0.1]), CFG, 3)
    return [traj.records[0], traj, sol, verify.kkt_residual(b, g, sol, xi)]


@pytest.mark.parametrize("index", range(4), ids=[
    "StepRecord", "Trajectory", "SubproblemSolution", "KktResidual"])
def test_a_result_is_a_named_tuple_whose_fields_cannot_be_assigned(index):
    result = _one_result_of_each_type()[index]
    assert isinstance(result, tuple) and len(result) == len(result._fields)
    for name in result._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(result, name, None)


def test_equal_records_hash_equal():
    # two runs of one seed build equal records apart; a record holds no
    # array, so it hashes, as a check's residual does
    a, b = (run(make_saddle(), np.array([0.5, 0.1]), CFG, 5).records for _ in range(2))
    assert a and a == b and all(p is not q for p, q in zip(a, b))
    assert [hash(r) for r in a] == [hash(r) for r in b]
    assert len(set(a + b)) == len(a)
    x, y = (_one_result_of_each_type()[3] for _ in range(2))
    assert x == y and hash(x) == hash(y)


def test_the_solution_takes_its_step_norm_last():
    assert SubproblemSolution._fields == (
        "s", "nu", "status", "newton_iters", "newton_iters_to_band", "model_decrease",
        "step_norm")


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_sgd_step_definition():
    obj = make_quadratic(np.array([1.0, 3.0]), np.array([0.5, -1.0]))
    x0 = np.array([1.0, 2.0])
    traj = run_baseline(obj, x0, "sgd", 0.1, 1)
    assert len(traj.records) == 1
    np.testing.assert_array_equal(traj.final_x, x0 - 0.1 * obj.grad(x0))


def test_adam_constants_are_kingma_and_ba_defaults():
    assert (driver.ADAM_BETA1, driver.ADAM_BETA2, driver.ADAM_EPS) == (0.9, 0.999, 1e-8)


@pytest.mark.parametrize("key", ["momentum", "beta1", "beta2", "eps"])
def test_baselines_take_only_a_learning_rate(key):
    obj = make_quadratic(np.array([1.0]), np.zeros(1))
    for optimizer in ("sgd", "adam"):
        with pytest.raises(TypeError):
            run_baseline(obj, np.ones(1), optimizer, 0.1, 5, **{key: 0.5})
    with pytest.raises(TypeError):
        adam_step(np.ones(1), np.ones(1), (np.zeros(1), np.zeros(1), 0), 0.01,
                  **{key: 0.5})


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


@pytest.mark.parametrize("lr", [-0.1, 0.0, -0.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_run_baseline_rejects_lr_outside_zero_to_inf(optimizer, lr):
    # lr = -0.1 used to climb for the whole budget, and lr = 0 to stand still
    counted, counts = _counting(make_quadratic(np.array([1.0, 2.0]), np.ones(2)))
    with pytest.raises(ValueError, match="0 < lr < inf"):
        run_baseline(counted, np.ones(2), optimizer, lr, 50)
    assert not counts


@pytest.mark.parametrize("stop", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("optimizer", ["adacubic", "sgd", "adam"])
def test_a_stop_threshold_outside_zero_to_inf_is_refused(optimizer, stop):
    # a NaN threshold never stopped a run on the gradient test
    counted, counts = _counting(make_quadratic(np.array([1.0, 2.0]), np.ones(2)))
    with pytest.raises(ValueError, match="0 <= stop_grad_norm < inf"):
        if optimizer == "adacubic":
            run(counted, np.ones(2), CFG, 50, stop_grad_norm=stop)
        else:
            run_baseline(counted, np.ones(2), optimizer, 0.1, 50, stop_grad_norm=stop)
    assert not counts


@pytest.mark.parametrize("dim, x0", [(2, [-1.2, 1.0, 1.0]), (3, [-1.2, 1.0]),
                                     (2, [[-1.2, 1.0]]), (2, -1.2)])
@pytest.mark.parametrize("optimizer", ["adacubic", "sgd", "adam"])
def test_an_x0_of_the_wrong_shape_is_refused_before_any_oracle_call(optimizer, dim, x0):
    # SGD and Adam used to run a 3-D Rosenbrock from a length-3 x0 on
    # make_rosenbrock(2), and run died in a broadcast error inside the HVP
    counted, counts = _counting(make_rosenbrock(dim))
    with pytest.raises(ValueError, match="x0 has shape"):
        if optimizer == "adacubic":
            run(counted, x0, CFG, 5)
        else:
            run_baseline(counted, x0, optimizer, 1e-3, 5)
    assert not counts


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
    # SGD at lr 0.01 overflows on Rosenbrock from the standard start; a
    # NaN or infinite gradient norm never passes the stop check, so without
    # the raise the run would write NaN rows until its budget
    x0 = np.array([-1.2] + [1.0] * 9)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError):
        run_baseline(make_rosenbrock(10), x0, "sgd", 0.01, 400)


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


def _full_gradient_iterations(traj, max_iters, epoch=1):
    """The iterations k at which a run takes the full-batch gradient: each
    stop test, k % epoch == 0, that the run reaches at a new point.  A run
    reaches the tests before its budget and, if one stopped it, that one;
    a point is new at x0 and after a step accepted since the last test."""
    recs = traj.records
    return [k for k in range(0, min(len(recs) + 1, max_iters), epoch)
            if k == 0 or any(r.accepted for r in recs[k - epoch:k])]


@pytest.mark.parametrize("obj,x0,iters,stop", [
    (make_rosenbrock(2), np.array([-1.2, 1.0]), 60, 0.0),
    (make_synthetic_logistic(80, 3, 1e-2, 4), np.zeros(3), 40, 1e-8),
    (make_saddle(), np.zeros(2), 50, 1e-8),
    # a gradient above the stop threshold whose predicted decrease
    # underflows to zero: the only step is degenerate
    (make_quadratic(np.array([1e10, 2e10]), np.full(2, 1e-160)), np.zeros(2), 5, 0.0),
])
def test_full_batch_run_takes_one_loss_and_at_most_one_gradient_per_iteration(
        obj, x0, iters, stop):
    counted, counts = _counting(obj)
    traj = run(counted, x0, CFG, iters, stop_grad_norm=stop)
    steps = len(traj.records)
    degenerate = sum(math.isnan(r.rho) for r in traj.records)
    assert counts[("eval", "full")] == 1 + steps - degenerate
    assert counts[("grad", "full")] == len(_full_gradient_iterations(traj, iters))
    # plus the stop check's block, at each point where the gradient is small
    assert counts[("hvp", "full")] >= steps
    assert set(counts) == {("eval", "full"), ("grad", "full"), ("hvp", "full")}


def test_minibatch_run_takes_one_full_gradient_per_epoch_boundary():
    # an epoch is ceil(60 / 16) = 4 iterations; the only rejected step of
    # this run is its 14th, so each epoch accepts a step and each boundary
    # is at a new point: a budget of 30 reaches the boundaries 0, 4, ..., 28,
    # and one of 28 ends before its boundary at 28
    for iters, boundaries in ((30, 8), (28, 7)):
        counted, counts = _counting(make_synthetic_logistic(60, 3, 1e-2, 1))
        traj = run(counted, np.zeros(3), CFG, iters, batch_size=16)
        n = len(traj.records)
        assert n == iters and not any(math.isnan(r.rho) for r in traj.records)
        rejected = [k for k, r in enumerate(traj.records) if not r.accepted]
        assert rejected == [13]
        assert _full_gradient_iterations(traj, iters, 4) == list(range(0, iters, 4))
        assert counts == {("grad", "full"): boundaries,
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
            # an epoch is 60 / 8 = 7.5, so 8 iterations: one full-batch
            # gradient at each of the boundaries 0, 8, 16 and 24
            assert _full_gradient_iterations(traj, 25, 8) == [0, 8, 16, 24]
            assert counts == {("grad", "full"): 4, ("grad", "batch"): n,
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


@pytest.mark.parametrize("obj, x0, batch_size", [
    (make_rosenbrock(2), np.array([-1.2, 1.0]), None),
    (make_synthetic_logistic(60, 3, 1e-2, 1), np.zeros(3), None),
    (make_synthetic_logistic(60, 3, 1e-2, 1), np.zeros(3), 16),
])
def test_s_probes_cost_one_hvp_call_per_iteration(obj, x0, batch_size):
    counted, counts = _counting(obj)
    cfg = dataclasses.replace(CFG, hutchinson_samples=4)
    traj = run(counted, x0, cfg, 40, batch_size)  # stop 0: no stop-test estimate
    assert len(traj.records) == 40
    kind = "full" if batch_size is None else "batch"
    assert {key: n for key, n in counts.items() if key[0] == "hvp"} == {("hvp", kind): 40}


# ---------------------------------------------------------------------------
# the run seed's two streams: probes from default_rng(seed), batches apart
# ---------------------------------------------------------------------------

def _batches_of(run_with, obj, seed):
    """The batches a minibatch run draws, in order, recorded as its batch
    gradients see them: each iteration takes exactly one."""
    batches = []

    def grad(x, batch=None):
        if batch is not None:
            batches.append(np.array(batch))
        return obj.grad_fn(x, batch)

    run_with(dataclasses.replace(obj, grad_fn=grad), seed)
    return batches


@pytest.mark.parametrize("seed", [0, 5])
def test_every_optimizer_draws_the_same_batches_from_a_seed(seed):
    # probes come from their own stream, so however many an AdaCubic step
    # takes, the batch sequence is the one SGD and Adam draw
    obj, x0 = make_synthetic_logistic(50, 4, 1e-2, 2), np.zeros(4)
    runs = [lambda o, s: run(o, x0, CFG, 25, 8, seed=s),
            lambda o, s: run(o, x0, dataclasses.replace(CFG, hutchinson_samples=4),
                             25, 8, seed=s),
            lambda o, s: run_baseline(o, x0, "sgd", 0.1, 25, 8, seed=s),
            lambda o, s: run_baseline(o, x0, "adam", 0.1, 25, 8, seed=s)]
    first, *others = [_batches_of(r, obj, seed) for r in runs]
    assert len(first) == 25
    for batches in others:
        assert len(batches) == 25
        assert all(np.array_equal(a, b) for a, b in zip(first, batches))


@pytest.mark.parametrize("samples", [1, 4])
def test_a_minibatch_run_does_not_depend_on_how_its_probes_are_blocked(
        samples, monkeypatch):
    # draws of one block (the cap is below one row), and of three blocks
    obj, x0 = make_synthetic_logistic(50, 4, 1e-2, 2), np.zeros(4)
    cfg = dataclasses.replace(CFG, hutchinson_samples=samples)
    plain = run(obj, x0, cfg, 40, 8, 1e-8, seed=3)
    for block_bytes in (8, 3 * 8 * obj.dim * samples):
        monkeypatch.setattr(hutchinson, "BLOCK_BYTES", block_bytes)
        blocked = run(obj, x0, cfg, 40, 8, 1e-8, seed=3)
        assert repr(blocked.records) == repr(plain.records)
        np.testing.assert_array_equal(blocked.final_x, plain.final_x)


# ---------------------------------------------------------------------------
# the minibatch stop test, once per epoch
# ---------------------------------------------------------------------------

def _full_gradients_at(obj):
    """``obj`` counted by :func:`_counting`, its counts, and the iterations
    at which it takes a full-batch gradient: each iteration takes exactly
    one batch gradient, so that is the number of batch gradients so far."""
    counted, counts = _counting(obj)
    at = []

    def grad(x, batch=None):
        if batch is None:
            at.append(counts.get(("grad", "batch"), 0))
        return counted.grad_fn(x, batch)

    return dataclasses.replace(counted, grad_fn=grad), counts, at


def _minibatch_run(obj, optimizer, iters, batch_size, stop=0.0):
    x0 = np.zeros(obj.dim)
    if optimizer == "adacubic":
        return run(obj, x0, CFG, iters, batch_size, stop, seed=2)
    return run_baseline(obj, x0, optimizer, 0.1, iters, batch_size, stop, seed=2)


@pytest.mark.parametrize("batch_size,epoch", [(8, 5), (12, 4), (40, 1)])
@pytest.mark.parametrize("optimizer", ["adacubic", "sgd", "adam"])
def test_minibatch_run_tests_its_stop_at_each_epoch_boundary(optimizer, batch_size, epoch):
    # n = 40: a batch of 8 divides it, one of 12 does not (ceil(40 / 12) = 4),
    # and a batch of all 40 samples makes every iteration a boundary
    counted, counts, at = _full_gradients_at(make_synthetic_logistic(40, 3, 1e-2, 1))
    traj = _minibatch_run(counted, optimizer, 30, batch_size)
    assert len(traj.records) == 30
    boundaries = list(range(0, 30, epoch))
    if optimizer == "adacubic":
        # the gradient is kept across an epoch that accepts no step
        assert at == _full_gradient_iterations(traj, 30, epoch)
        assert set(at) <= set(boundaries) and len(at) > len(boundaries) // 2
    else:  # a baseline accepts every step
        assert at == boundaries
    assert counts[("grad", "full")] == len(at)
    assert counts[("grad", "batch")] == 30


def test_a_minibatch_run_needs_a_positive_batch_size():
    # the epoch, ceil(num_samples / batch_size), needs batch_size >= 1
    obj = make_synthetic_logistic(40, 3, 1e-2, 1)
    for batch_size in (0, -8):
        with pytest.raises(ValueError, match="batch_size"):
            run(obj, np.zeros(3), CFG, 5, batch_size)
        with pytest.raises(ValueError, match="batch_size"):
            run_baseline(obj, np.zeros(3), "sgd", 0.1, 5, batch_size)


@pytest.mark.parametrize("optimizer", ["adacubic", "sgd", "adam"])
def test_a_batch_larger_than_the_dataset_is_refused_before_any_oracle_call(optimizer):
    # the loop used to take x0's full-batch gradient and only then fail to
    # draw the first batch
    counted, counts = _counting(make_synthetic_logistic(40, 3, 1e-2, 1))
    with pytest.raises(ValueError, match="batch_size <= num_samples = 40, got 41"):
        _minibatch_run(counted, optimizer, 5, 41)
    assert not counts
    assert len(_minibatch_run(counted, optimizer, 5, 40).records) == 5


@pytest.mark.parametrize("optimizer", ["adacubic", "sgd", "adam"])
def test_a_threshold_crossed_mid_epoch_stops_the_run_at_the_next_boundary(optimizer):
    # n = 40 and a batch of 12: an epoch of 4 iterations
    obj, epoch, iters = make_synthetic_logistic(40, 3, 1e-2, 1), 4, 60
    points = []  # x at each iteration, where it takes its batch gradient

    def grad(x, batch=None):
        if batch is not None:
            points.append(x.copy())
        return obj.grad_fn(x, batch)

    free = _minibatch_run(dataclasses.replace(obj, grad_fn=grad), optimizer, iters, 12)
    norms = [math.sqrt(g @ g) for g in map(obj.grad, points)]
    # a threshold first crossed at an iteration j inside an epoch after the
    # first, and crossed again at the epoch's end, the boundary b
    j = next(j for j in range(epoch + 1, iters - epoch) if j % epoch
             and min(norms[:j]) > norms[j] >= norms[-(-j // epoch) * epoch])
    b = -(-j // epoch) * epoch
    counted, counts, at = _full_gradients_at(obj)
    stopped = _minibatch_run(counted, optimizer, iters, 12, stop=norms[j])
    assert len(stopped.records) == b and b % epoch == 0
    # the stop test at the boundary is the only change to the run
    assert repr(stopped.records) == repr(free.records[:b])
    np.testing.assert_array_equal(stopped.final_x, points[b])
    assert at == _full_gradient_iterations(stopped, iters, epoch) and at[-1] == b


@pytest.mark.parametrize("x0", [[math.nan, 0.0, 0.0], [math.inf, 1.0, 1.0]])
def test_a_non_finite_start_raises_at_the_first_stop_test(x0):
    obj = make_synthetic_logistic(40, 3, 1e-2, 1)
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
        run_baseline(obj, np.array(x0), "sgd", 0.1, 5, batch_size=8)


# the four runs of the scale check: (objective, x0, batch size)
SCALE_RUNS = {
    "rosenbrock-2": lambda: (make_rosenbrock(2), np.array([-1.2, 1.0]), None),
    "rosenbrock-10": lambda: (make_rosenbrock(10), np.array([-1.2] + [1.0] * 9), None),
    "logistic-full": lambda: (make_synthetic_logistic(400, 10, 0.0, 0), np.zeros(10), None),
    "logistic-32": lambda: (make_synthetic_logistic(400, 10, 0.0, 0), np.zeros(10), 32),
}


@functools.cache
def _scale_run(name: str, k: int):
    """300 iterations of ``run`` at stop 0 and seed 0 on the objective
    ``name`` with its loss, gradient and HVPs multiplied by c = 2**k."""
    base, x0, batch_size = SCALE_RUNS[name]()
    c = 2.0 ** k
    obj = dataclasses.replace(
        base, eval_fn=lambda x, b=None: c * base.eval_fn(x, b),
        grad_fn=lambda x, b=None: c * base.grad_fn(x, b),
        hvp_fn=lambda x, v, b=None: c * base.hvp_fn(x, v, b), exact_diag_fn=None)
    return run(obj, x0, CFG, 300, batch_size, 0.0, 0)


@pytest.mark.parametrize("k", [-40, -20, 20, 40])
@pytest.mark.parametrize("name", SCALE_RUNS)
def test_scaling_f_by_a_power_of_two_changes_no_step(name, k):
    # c * f has the same steps as f: each loss, gradient and HVP scales by c
    # exactly, so rho, xi and s are the same in floating point, and nu
    # scales by c
    c = 2.0 ** k
    want, got = _scale_run(name, 0), _scale_run(name, k)

    def steps(traj, scale):
        return np.array([(r.rho, r.xi, r.step_norm, r.nu * scale) for r in traj.records])

    np.testing.assert_array_equal(steps(got, 1.0), steps(want, c))
    np.testing.assert_array_equal(got.final_x, want.final_x)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="rho is judged on the batch the step's model was fit "
                   "to (ROADMAP item 1)")
def test_minibatch_adacubic_ends_near_the_full_batch_minimum():
    # d = 50 against a batch of 64: the model nearly fits its batch, so rho
    # judged on that batch stays near 1, xi keeps growing and the full-batch
    # loss climbs; f* is L-BFGS's, at the benchmark's tolerances
    minimize = pytest.importorskip("scipy.optimize").minimize
    gaps = []
    for seed in range(5):
        obj = make_synthetic_logistic(2000, 50, 0.0, seed)
        fstar = minimize(obj.eval, np.zeros(50), jac=obj.grad, method="L-BFGS-B",
                         options={"gtol": 1e-10, "ftol": 1e-15, "maxiter": 1000}).fun
        traj = run(obj, np.zeros(50), CFG, 100, batch_size=64, seed=seed)
        gaps.append(obj.eval(traj.final_x) - fstar)
    assert max(gaps) <= 0.1, gaps
