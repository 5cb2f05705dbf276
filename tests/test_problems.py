"""Built-in objectives (HVPs against a central difference of the gradient),
batching, and the brute-force subproblem reference in ``adacubic.verify``."""

import dataclasses
import itertools
import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from adacubic import (AdaCubicConfig, draw_batch, load_logistic_csv, make_logistic,
                      make_quadratic, make_rosenbrock, make_saddle,
                      make_synthetic_logistic, problems, run, run_baseline)
from adacubic.hutchinson import rademacher_probes
from adacubic.problems import validate_batch
from adacubic.verify import BRUTE_FORCE_RESOLUTION, brute_force_subproblem_min


def test_quadratic_values():
    obj = make_quadratic(np.array([1.0, 2.0]), np.zeros(2))
    x = np.array([1.0, 1.0])
    assert obj.eval(x) == pytest.approx(1.5)
    np.testing.assert_allclose(obj.grad(x), [1.0, 2.0])
    np.testing.assert_allclose(obj.hvp(x, np.array([1.0, 1.0])), [1.0, 2.0])
    np.testing.assert_allclose(obj.exact_diag_hessian(x), [1.0, 2.0])


def test_quadratic_shape_mismatch():
    with pytest.raises(ValueError):
        make_quadratic(np.ones(2), np.ones(3))


def test_rosenbrock_minimum_and_gradient():
    obj = make_rosenbrock(2)
    ones = np.ones(2)
    assert obj.eval(ones) == 0.0
    np.testing.assert_allclose(obj.grad(ones), np.zeros(2), atol=1e-14)
    # gradient at the classic start, against hand differentiation
    x = np.array([-1.2, 1.0])
    gx = -400.0 * (-1.2) * (1.0 - 1.44) - 2.0 * (1.0 + 1.2)
    gy = 200.0 * (1.0 - 1.44)
    np.testing.assert_allclose(obj.grad(x), [gx, gy], rtol=1e-12)


def test_rosenbrock_needs_two_dims():
    with pytest.raises(ValueError):
        make_rosenbrock(1)


def test_rosenbrock_hessian_at_minimum():
    obj = make_rosenbrock(2)
    hv = obj.hvp(np.ones(2), np.array([1.0, 0.0]))
    np.testing.assert_allclose(hv, [802.0, -400.0], rtol=1e-12)


def _dense_rosen_hess(x):
    """Chained Rosenbrock's Hessian as a dense d x d matrix, filled term by
    term: the reference for the O(d) product and diagonal."""
    d = x.size
    H = np.zeros((d, d))
    for i in range(d - 1):
        H[i, i] += 2.0 - 400.0 * (x[i + 1] - x[i] ** 2) + 800.0 * x[i] ** 2
        H[i + 1, i + 1] += 200.0
        H[i, i + 1] += -400.0 * x[i]
        H[i + 1, i] += -400.0 * x[i]
    return H


@pytest.mark.parametrize("d", [2, 3, 10, 1000])
def test_rosenbrock_hvp_and_diagonal_match_the_dense_hessian(d):
    obj = make_rosenbrock(d)
    rng = np.random.default_rng(d)
    for _ in range(5):
        x = rng.uniform(-2.0, 2.0, size=d)
        v = rng.standard_normal(d)
        H = _dense_rosen_hess(x)
        want = H @ v
        err = float(np.max(np.abs(obj.hvp(x, v) - want)))
        assert err <= 1e-13 * float(np.max(np.abs(want)))
        diag = np.diag(H)
        err = float(np.max(np.abs(obj.exact_diag_hessian(x) - diag)))
        assert err <= 1e-13 * float(np.max(np.abs(diag)))


class _CountingCallers:
    """numpy, with the name of the function that calls ``zeros`` recorded."""

    def __init__(self):
        self.callers = []

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, *args, **kwargs):
        self.callers.append(sys._getframe(1).f_code.co_name)
        return np.zeros(*args, **kwargs)


def test_a_rosenbrock_run_builds_one_diagonal_per_hvp_point(monkeypatch):
    # a rejected step's next HVP is at the same iterate, which the objective
    # keeps: it builds diag(x) once per distinct HVP point, not once per
    # iteration
    obj = make_rosenbrock(2)
    points = []

    def hvp(x, v, b=None):
        points.append(x.tobytes())
        return obj.hvp_fn(x, v, b)

    counting = _CountingCallers()
    monkeypatch.setattr(problems, "np", counting)
    traj = run(dataclasses.replace(obj, hvp_fn=hvp), np.array([-1.2, 1.0]),
               AdaCubicConfig(), 30, seed=1)
    assert len(traj.records) == len(points) == 30
    assert not all(r.accepted for r in traj.records)
    assert counting.callers.count("diag") == len(set(points)) < 30


def test_rosenbrock_hvps_at_kept_and_edited_points_equal_a_fresh_objectives():
    # HVPs at x, x, x', x and at an x edited in place each equal, bit for
    # bit, those of an objective that has kept nothing; the exact diagonal
    # and an HVP are the caller's to edit
    rng = np.random.default_rng(8)
    x, x2 = rng.uniform(-1.5, 1.5, 3), rng.uniform(-1.5, 1.5, 3)
    V = rng.standard_normal((2, 3))
    obj = make_rosenbrock(3)
    for w in (x, x, x2, x):
        assert np.array_equal(obj.hvp(w, V), make_rosenbrock(3).hvp(w, V))
    x[1] = 0.25
    assert np.array_equal(obj.hvp(x, V), make_rosenbrock(3).hvp(x, V))
    obj.exact_diag_hessian(x)[:] = 7.0
    obj.hvp(x, V)[:] = 7.0
    assert np.array_equal(obj.hvp(x, V), make_rosenbrock(3).hvp(x, V))
    assert np.array_equal(obj.exact_diag_hessian(x), make_rosenbrock(3).exact_diag_hessian(x))


def test_saddle_analytics():
    obj = make_saddle()
    np.testing.assert_allclose(obj.grad(np.zeros(2)), np.zeros(2))
    np.testing.assert_allclose(obj.exact_diag_hessian(np.zeros(2)), [1.0, -1.0])
    assert obj.eval(np.array([0.0, 1.0])) == pytest.approx(-0.25)
    assert obj.eval(np.array([0.0, -1.0])) == pytest.approx(-0.25)


def test_fd_hvp_matches_analytic_on_builtins():
    rng = np.random.default_rng(11)
    objs = [make_quadratic(np.array([2.0, -1.0, 3.0]), np.array([1.0, 0.0, -1.0])),
            make_rosenbrock(3), make_saddle(),
            make_synthetic_logistic(50, 3, 1e-2, 0)]
    for obj in objs:
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, size=obj.dim)
            v = rng.uniform(-1.0, 1.0, size=obj.dim)
            hv = obj.hvp(x, v)
            h = np.sqrt(np.finfo(float).eps) * (1.0 + np.linalg.norm(x))
            fd = (obj.grad(x + h * v) - obj.grad(x - h * v)) / (2.0 * h)
            tol = max(1e-6, 1e-4 * float(np.linalg.norm(hv)))
            assert float(np.linalg.norm(fd - hv)) <= tol


def test_hvp_linearity():
    obj = make_synthetic_logistic(40, 4, 0.0, 1)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(4)
    u, w = rng.standard_normal(4), rng.standard_normal(4)
    lhs = obj.hvp(x, 2.0 * u - 3.0 * w)
    rhs = 2.0 * obj.hvp(x, u) - 3.0 * obj.hvp(x, w)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("obj, batch, exact", [
    (make_quadratic(np.array([2.0, -1.0, 3.0]), np.array([1.0, 0.0, -1.0])), None, True),
    (make_saddle(), None, True),
    (make_rosenbrock(2), None, True),
    (make_rosenbrock(10), None, True),
    (make_rosenbrock(1000), None, True),
    (make_synthetic_logistic(256, 20, 1e-3, 0), None, False),
    (make_synthetic_logistic(256, 20, 1e-3, 0), np.arange(3, 256, 4), False),
])
def test_a_block_hvp_is_the_stacked_vector_hvps(obj, batch, exact):
    # bit for bit at S = 1; at S = 4 also where the rows are multiplied
    # elementwise, and to round-off where a matrix product sums them
    rng = np.random.default_rng(obj.dim)
    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, obj.dim)
        for S in (1, 4):
            for V in (rademacher_probes(rng, S, obj.dim), rng.standard_normal((S, obj.dim))):
                block = obj.hvp(x, V, batch)
                stacked = np.array([obj.hvp(x, v, batch) for v in V])
                assert block.shape == (S, obj.dim)
                if S == 1 or exact:
                    assert np.array_equal(block, stacked)
                else:
                    err = np.max(np.abs(block - stacked))
                    assert err <= 1e-14 * np.max(np.abs(stacked))


def test_logistic_label_validation():
    X = np.ones((3, 2))
    with pytest.raises(ValueError):
        make_logistic(X, np.array([1.0, 0.0, -1.0]))
    for l2 in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="need 0 <= l2 < inf"):
            make_logistic(X, np.array([1.0, -1.0, 1.0]), l2=l2)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_logistic_features_must_be_finite(bad):
    X = np.ones((3, 2))
    X[1, 0] = bad
    with pytest.raises(ValueError, match="features must be finite"):
        make_logistic(X, np.array([1.0, -1.0, 1.0]))


def test_batch_validation():
    validate_batch(None, 10)
    validate_batch(np.array([0, 3, 9]), 10)
    validate_batch(np.array([[9, 0], [3, 1]]), 10)
    for bad in ([0, 10], [-1, 2], [9, 10, 0], [[0, 1], [10, 2]]):
        with pytest.raises(ValueError, match="out of range"):
            validate_batch(np.array(bad), 10)
    for bad in ([1, 1], [3, 1, 3], [[0, 1], [2, 0]]):
        with pytest.raises(ValueError, match="must be distinct"):
            validate_batch(np.array(bad), 10)
    for bad in ([0.0, 1.0], [True, False], []):
        with pytest.raises(ValueError, match="must be integers"):
            validate_batch(np.array(bad), 10)
    for shape in ((0,), (0, 2), (2, 0)):
        with pytest.raises(ValueError, match="must not be empty"):
            validate_batch(np.zeros(shape, dtype=np.int64), 10)


def test_draw_batch_distinct_and_seeded():
    rng = np.random.default_rng(0)
    batch = draw_batch(rng, 100, 16)
    assert len(np.unique(batch)) == 16
    again = draw_batch(np.random.default_rng(0), 100, 16)
    np.testing.assert_array_equal(batch, again)
    with pytest.raises(ValueError):
        draw_batch(rng, 4, 5)


def test_singleton_batches_average_to_full_gradient():
    obj = make_synthetic_logistic(30, 3, 1e-2, 2)
    w = np.random.default_rng(8).standard_normal(3)
    full = obj.grad(w)
    parts = np.mean([obj.grad(w, np.array([i])) for i in range(30)], axis=0)
    np.testing.assert_allclose(parts, full, rtol=1e-12, atol=1e-15)


def test_logistic_batched_loss_consistency():
    obj = make_synthetic_logistic(30, 3, 0.0, 2)
    w = np.array([0.1, -0.2, 0.3])
    parts = np.mean([obj.eval(w, np.array([i])) for i in range(30)])
    assert parts == pytest.approx(obj.eval(w), rel=1e-12)


def test_logistic_batch_after_a_gathered_one_is_still_checked():
    # the rows of batch [0, 1] are kept; a float or bool index array of
    # equal values must not reuse them, and other batches are still checked
    obj = make_synthetic_logistic(30, 3, 1e-2, 2)
    w = np.array([0.1, -0.2, 0.3])
    obj.eval(w, np.array([0, 1]))
    for bad in (np.array([0.0, 1.0]), np.array([True, False])):
        for call in (obj.eval, obj.grad):
            with pytest.raises(ValueError, match="must be integers"):
                call(w, bad)
    with pytest.raises(ValueError, match="must be distinct"):
        obj.eval(w, np.array([1, 1]))
    with pytest.raises(ValueError, match="out of range"):
        obj.grad(w, np.array([0, 30]))
    for call in (obj.eval, obj.grad, lambda w, b: obj.hvp(w, w, b)):
        with pytest.raises(ValueError, match="must not be empty"):
            call(w, np.array([], dtype=np.int64))


def test_logistic_nd_batch_is_its_flat_index_set():
    # a 2-D index array gives, in every oracle, the bits of the 1-D batch of
    # its values in the same order
    w, v = np.array([0.1, -0.2, 0.3]), np.array([0.5, 1.0, -2.0])
    flat, square = np.array([0, 1, 2, 3]), np.array([[0, 1], [2, 3]])
    for batch in (square, square.T.copy().T, square[None]):
        obj, ref = (make_synthetic_logistic(30, 3, 1e-2, 2) for _ in range(2))
        assert obj.eval(w, batch) == ref.eval(w, flat)
        np.testing.assert_array_equal(obj.grad(w, batch), ref.grad(w, flat))
        for probe in (v, v[None]):
            hv = obj.hvp(w, probe, batch)
            assert hv.shape == probe.shape
            np.testing.assert_array_equal(hv, ref.hvp(w, probe, flat))


def test_logistic_batch_edited_in_place_is_gathered_afresh():
    obj = make_synthetic_logistic(30, 3, 1e-2, 2)
    w = np.array([0.1, -0.2, 0.3])
    b = np.array([0, 5, 7])
    obj.eval(w, b)
    b[1] = 9
    fresh = make_synthetic_logistic(30, 3, 1e-2, 2)
    assert obj.eval(w, b) == fresh.eval(w, b)
    np.testing.assert_array_equal(obj.grad(w, b), fresh.grad(w, b))


@pytest.mark.parametrize("batch_size", [16, None])
@pytest.mark.parametrize("optimizer", ["adacubic", "sgd"])
def test_logistic_run_gathers_each_batch_once(monkeypatch, optimizer, batch_size):
    # an iteration's loss, gradient, HVP and post-step loss on its batch
    # share one validation and gather; the full batch needs neither
    checked = []

    def counted(batch, num_samples):
        checked.append(len(batch))
        validate_batch(batch, num_samples)

    monkeypatch.setattr(problems, "validate_batch", counted)
    obj, x0, iters = make_synthetic_logistic(120, 5, 1e-2, 4), np.zeros(5), 30
    if optimizer == "adacubic":
        traj = run(obj, x0, AdaCubicConfig(), iters, batch_size, seed=1)
    else:
        traj = run_baseline(obj, x0, optimizer, 0.1, iters, batch_size, seed=1)
    assert len(traj.records) == iters
    assert checked == ([] if batch_size is None else [batch_size] * iters)


@pytest.mark.parametrize("batch", [np.array([0, 5, 7]), None])
def test_logistic_point_edited_in_place_is_recomputed(batch):
    # the margin, sigmoid and gradient at w are kept, keyed on w's bytes: a
    # w edited between calls is a new point
    obj = make_synthetic_logistic(30, 3, 1e-2, 2)
    w, v = np.array([0.1, -0.2, 0.3]), np.array([0.5, 1.0, -2.0])
    obj.eval(w, batch), obj.grad(w, batch), obj.hvp(w, v, batch)
    w[1] = 0.4
    fresh = make_synthetic_logistic(30, 3, 1e-2, 2)
    assert obj.eval(w, batch) == fresh.eval(w, batch)
    np.testing.assert_array_equal(obj.grad(w, batch), fresh.grad(w, batch))
    np.testing.assert_array_equal(obj.hvp(w, v, batch), fresh.hvp(w, v, batch))


@pytest.mark.parametrize("batch", [np.array([0, 5, 7]), None])
def test_logistic_returned_gradient_is_the_callers(batch):
    obj = make_synthetic_logistic(30, 3, 1e-2, 2)
    w = np.array([0.1, -0.2, 0.3])
    g = obj.grad(w, batch)
    want = g.copy()
    g[:] = 7.0
    np.testing.assert_array_equal(obj.grad(w, batch), want)
    obj.grad(w, batch)[0] = 7.0
    np.testing.assert_array_equal(obj.grad(w, batch), want)


class _CountingExp:
    """numpy, with the sizes of the arrays passed to ``exp`` recorded."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, a):
        self.sizes.append(np.size(a))
        return np.exp(a)


def test_logistic_full_batch_points_equal_a_fresh_objectives(monkeypatch):
    # a full-batch step's calls go iterate, trial, iterate (its HVP after a
    # rejection), new trial; each value equals, bit for bit, that of an
    # objective that has kept nothing
    def fresh():
        return make_synthetic_logistic(50, 4, 1e-2, 3)

    rng = np.random.default_rng(6)
    x, t1, t2 = (rng.standard_normal(4) for _ in range(3))
    V = rademacher_probes(rng, 2, 4)
    calls = [("grad", x), ("eval", x), ("hvp", x), ("eval", t1), ("hvp", x),
             ("eval", t2), ("grad", t2), ("hvp", t2), ("grad", x), ("eval", t1),
             ("diag", x)]

    def call(obj, name, w):
        if name == "hvp":
            return obj.hvp(w, V)
        return obj.exact_diag_hessian(w) if name == "diag" else getattr(obj, name)(w)

    want = [call(fresh(), name, w) for name, w in calls]
    obj = fresh()
    counting = _CountingExp()
    monkeypatch.setattr(problems, "np", counting)
    for (name, w), value in zip(calls, want):
        assert np.array_equal(call(obj, name, w), value), (name, w)
    # a sigmoid of the 50 rows is computed once at x and once at t2: the
    # trials do not evict the iterate, and the exact diagonal at x reads
    # its kept sigmoid
    assert counting.sizes == [50, 50]


def test_logistic_runs_from_one_x0_equal_runs_on_fresh_objectives():
    # three runs share the objective and its kept full-batch gradient at
    # x0; each equals, bit for bit, the same run on an objective of its own
    def fresh():
        return make_synthetic_logistic(120, 5, 1e-2, 4)

    shared = fresh()
    x0 = np.zeros(5)
    runs = [lambda o: run(o, x0, AdaCubicConfig(), 40, batch_size=16, seed=1),
            lambda o: run_baseline(o, x0, "sgd", 0.1, 40, batch_size=16, seed=2),
            lambda o: run(o, x0, AdaCubicConfig(), 25, seed=3)]
    for go in runs:
        a, b = go(shared), go(fresh())
        # a float's repr round-trips, so equal reprs are equal bits, NaN
        # included
        assert [repr(r) for r in a.records] == [repr(r) for r in b.records]
        assert np.array_equal(a.final_x, b.final_x)


def test_a_grid_of_runs_from_one_x0_takes_its_full_gradient_once(monkeypatch):
    # a minibatch run takes the full-batch gradient only at x0 and at its
    # epoch boundaries; with one boundary after x0, as in a grid's runs, x0
    # stays kept, so the later runs compute no sigmoid on all n rows there
    obj = make_synthetic_logistic(120, 5, 1e-2, 4)
    x0 = np.zeros(5)
    counting = _CountingExp()
    monkeypatch.setattr(problems, "np", counting)
    full = []
    for seed in range(3):
        # epoch 8: the boundaries are k = 0 and 8
        run_baseline(obj, x0, "sgd", 0.1, 12, batch_size=16, seed=seed)
        full.append(counting.sizes.count(120))
    assert full == [2, 3, 4]


def _logistic_data(n=40, d=4, seed=12):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    return X, np.where(rng.random(n) < 0.5, -1.0, 1.0), rng


def test_logistic_batches_match_objectives_on_their_rows():
    # batches A, B, A: each call equals, bit for bit, the full-batch value
    # of an objective built on that batch's rows alone
    X, y, rng = _logistic_data()
    l2 = 1e-2
    obj = make_logistic(X, y, l2)
    w, v = rng.standard_normal(4), rng.standard_normal(4)
    a, b = np.array([3, 0, 17, 8]), np.array([1, 2, 30, 39, 5])
    for batch in (a, b, a):
        ref = make_logistic(X[batch], y[batch], l2)
        assert obj.eval(w, batch) == ref.eval(w)
        np.testing.assert_array_equal(obj.grad(w, batch), ref.grad(w))
        np.testing.assert_array_equal(obj.hvp(w, v, batch), ref.hvp(w, v))


def _in_threads(worker, workers=4):
    """``worker(i)`` for i < ``workers`` in as many threads (more than this
    host's cores), started together and switched often, inside the oracle
    too; returns their results."""
    start = threading.Barrier(workers, timeout=60)

    def started(i):
        start.wait()
        return worker(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(started, i) for i in range(workers)]
            return [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)


def _swapped_calls(name, oracle, cases):
    """(case, oracle(case)) for each case, three times over, under a
    ``sys.settrace`` hook that calls the oracle at the next other case
    before each line of ``problems``' function ``name``: a call that read a
    kept pool again after its one snapshot would read another call's point.
    Each of those calls' own results is in the list too."""
    results, turn, current, busy = [], itertools.count(), None, False

    def line(frame, event, arg):
        nonlocal busy
        if event == "line" and not busy:
            busy = True
            try:
                others = [case for case in cases if case != current]
                case = others[next(turn) % len(others)]
                results.append((case, oracle(case)))
            finally:
                busy = False
        return line

    def call(frame, event, arg):
        code = frame.f_code
        if not busy and code.co_name == name and code.co_filename == problems.__file__:
            return line
        return None

    old = sys.gettrace()
    sys.settrace(call)
    try:
        for current in cases * 3:
            results.append((current, oracle(current)))
    finally:
        sys.settrace(old)
    return results


def _logistic_threads_setup():
    X, y, rng = _logistic_data()
    points, v = [rng.standard_normal(4), rng.standard_normal(4)], rng.standard_normal(4)
    batches = [np.arange(0, 40, 2), np.arange(1, 40, 3), None]

    def oracle(obj, case):
        w, batch = points[case[0]], batches[case[1]]
        return obj.eval(w, batch), obj.grad(w, batch), obj.hvp(w, v, batch)

    cases = [(p, b) for b in range(3) for p in range(2)]
    serial = {case: oracle(make_logistic(X, y, 1e-2), case) for case in cases}
    return make_logistic(X, y, 1e-2), oracle, cases, serial


def _assert_logistic_results(results, serial):
    for case, (f, g, hv) in results:
        assert f == serial[case][0]
        np.testing.assert_array_equal(g, serial[case][1])
        np.testing.assert_array_equal(hv, serial[case][2])


def test_logistic_batches_are_safe_across_threads():
    # more threads than cores call the oracle at once, each alternating two
    # points on two batches and on the full batch, so most calls find
    # another call's rows and points kept: every result must still be its
    # value on an objective that has kept nothing, bit for bit
    obj, oracle, cases, serial = _logistic_threads_setup()

    def worker(first):
        order = cases[first:] + cases[:first]
        return [(case, oracle(obj, case)) for case in order * 50]

    _assert_logistic_results((item for run in _in_threads(worker) for item in run), serial)


def test_logistic_point_reads_its_kept_points_once():
    # another point or batch is kept anew before each line of point(), the
    # window a thread switch can open: every result is still exact
    obj, oracle, cases, serial = _logistic_threads_setup()
    results = _swapped_calls("point", lambda case: oracle(obj, case), cases)
    _assert_logistic_results(results, serial)


def _rosenbrock_two_points():
    rng = np.random.default_rng(13)
    points = [rng.uniform(-1.5, 1.5, 3) for _ in range(2)]
    V = rng.standard_normal((2, 3))
    return points, V, [make_rosenbrock(3).hvp(x, V) for x in points]


def test_rosenbrock_hvps_are_safe_across_threads():
    # more threads than cores take HVPs at two points in turn, so most calls
    # find the other point kept or keep theirs mid-call: every result is
    # still that of an objective that has kept nothing, bit for bit
    points, V, serial = _rosenbrock_two_points()
    obj = make_rosenbrock(3)

    def worker(first):
        return [(i % 2, obj.hvp(points[i % 2], V)) for i in range(first, first + 2000)]

    for i, hv in (item for run in _in_threads(worker) for item in run):
        assert np.array_equal(hv, serial[i])


def test_rosenbrock_hvp_reads_its_kept_point_once():
    # the other point is kept anew before each line of hvp()
    points, V, serial = _rosenbrock_two_points()
    obj = make_rosenbrock(3)
    for i, hv in _swapped_calls("hvp", lambda i: obj.hvp(points[i], V), [0, 1]):
        assert np.array_equal(hv, serial[i])


def test_logistic_sigmoid_overflow_is_silent_and_exact():
    # where m = -y (X w) < -709.78, exp(-m) overflows to inf and sigma(m) is
    # exactly 0: the oracle warns nowhere, and each value is bit for bit the
    # plain formula 1 / (1 + exp(-m))
    rng = np.random.default_rng(11)
    n, d, l2 = 40, 3, 1e-2
    X = rng.standard_normal((n, d))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    obj = make_logistic(X, y, l2)
    w, v = 1e3 * rng.standard_normal(d), rng.standard_normal(d)
    m = -y * (X @ w)
    assert m.min() < -710.0 and m.max() > 710.0
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-m))
    weights = sig * (1.0 - sig)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g, hv, diag = obj.grad(w), obj.hvp(w, v), obj.exact_diag_hessian(w)
    np.testing.assert_array_equal(g, X.T @ (-y * sig) / n + l2 * w)
    np.testing.assert_array_equal(hv, X.T @ (weights * (X @ v)) / n + l2 * v)
    np.testing.assert_array_equal(diag, (weights[:, None] * X ** 2).mean(axis=0) + l2)


def test_load_logistic_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.standard_normal((10, 3))
    y = np.where(rng.random(10) < 0.5, -1.0, 1.0)
    path = tmp_path / "data.csv"
    np.savetxt(path, np.column_stack([X, y]), delimiter=",")
    obj = load_logistic_csv(str(path), l2=0.5)
    ref = make_logistic(X, y, l2=0.5)
    w = rng.standard_normal(3)
    assert obj.eval(w) == pytest.approx(ref.eval(w), rel=1e-12)
    assert obj.num_samples == 10


def test_brute_force_one_dimensional_boundary():
    # unconstrained minimum of s + s^2/2 ... here: g=2, b=1, xi=1 -> s = -1
    s = brute_force_subproblem_min(np.array([1.0]), np.array([2.0]), 1.0)
    assert s[0] == pytest.approx(-1.0, abs=1e-6)


def test_brute_force_interior_zero():
    s = brute_force_subproblem_min(np.ones(2), np.zeros(2), 1.0)
    np.testing.assert_allclose(s, np.zeros(2), atol=1e-2)


def test_brute_force_negative_curvature_boundary():
    b = np.array([-1.0, 2.0])
    g = np.array([0.0, 1.0])
    xi = 0.5
    s = brute_force_subproblem_min(b, g, xi)
    assert np.linalg.norm(s) == pytest.approx(xi ** (1.0 / 3.0), rel=1e-6)
    assert s[1] < 0.0
    assert abs(s[0]) > 0.0


def test_brute_force_feasibility():
    rng = np.random.default_rng(21)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        b = rng.uniform(-2.0, 2.0, size=d)
        g = rng.uniform(-1.0, 1.0, size=d)
        xi = float(10.0 ** rng.uniform(-3, 1))
        s = brute_force_subproblem_min(b, g, xi)
        assert float(np.linalg.norm(s)) ** 3 <= xi * (1.0 + 1e-9)


def test_brute_force_input_validation():
    with pytest.raises(ValueError):
        brute_force_subproblem_min(np.ones(4), np.ones(4), 1.0)
    with pytest.raises(ValueError):
        brute_force_subproblem_min(np.ones(2), np.ones(2), 0.0)
    # NaN passes a bare `xi <= 0` check; NaN and inf entries reach the grid
    for xi in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ValueError, match="0 < xi < inf"):
            brute_force_subproblem_min(np.ones(2), np.ones(2), xi)
    for b, g in (([1.0, math.nan], [1.0, 1.0]), ([1.0, 1.0], [1.0, math.inf]),
                 ([-math.inf], [0.0])):
        with pytest.raises(ValueError, match="finite"):
            brute_force_subproblem_min(np.array(b), np.array(g), 1.0)
    for b, g in ((np.ones(2), np.ones(3)), (np.ones((1, 2)), np.ones((1, 2))),
                 (np.ones(2), np.ones((2, 1)))):
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            brute_force_subproblem_min(b, g, 1.0)
    with pytest.raises(ValueError, match="1 <= d <= 3"):
        brute_force_subproblem_min(np.ones(0), np.ones(0), 1.0)


def _dense_brute_force(b, g, xi, resolution=BRUTE_FORCE_RESOLUTION):
    """The brute-force oracle with its grid held whole, as one dense
    resolution^d array: the reference for its slab-by-slab evaluation."""
    d = b.size
    r = xi ** (1.0 / 3.0)
    axes = [np.linspace(-r, r, resolution)] * d
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    m = np.zeros((resolution,) * d)
    sq = np.zeros((resolution,) * d)
    for i in range(d):
        m = m + g[i] * grids[i] + 0.5 * b[i] * grids[i] ** 2
        sq = sq + grids[i] ** 2
    m = np.where(sq <= r * r, m, np.inf)
    best = np.unravel_index(np.argmin(m), m.shape)
    s = np.array([axes[i][best[i]] for i in range(d)])

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


def test_brute_force_matches_dense_grid_bit_for_bit():
    rng = np.random.default_rng(31)
    cases = []
    for d in (1, 2, 3):
        b = rng.uniform(-2.0, 2.0, size=d)
        g = rng.uniform(-1.0, 1.0, size=d)
        # equal entries of b and of g tie each point with its permutations,
        # which for d >= 2 lie in other slabs of the first axis; with g = 0
        # as well, every grid point of the largest radius ties
        cases += [(b, g, 0.3), (b, np.zeros(d), 1.7),
                  (np.full(d, -0.8), np.full(d, 0.3), 0.05),
                  (np.full(d, -0.8), np.zeros(d), 0.4)]
    for b, g, xi in cases:
        s = brute_force_subproblem_min(b, g, xi)
        assert np.array_equal(s, _dense_brute_force(b, g, xi)), (b, g, xi)


def _fuzz_instance(rng, d, kind):
    b = rng.uniform(-2.0, 2.0, size=d)
    g = rng.uniform(-1.0, 1.0, size=d)
    xi = 10.0 ** rng.uniform(-4.0, 1.0)
    if kind == "all-negative":
        b = -np.abs(b)
    elif kind == "last-negative":
        b = np.abs(b)
        b[-1] = -b[-1]
    elif kind == "last-zero":
        b[-1] = 0.0
    elif kind == "zero-g":
        g = np.zeros(d)
    elif kind == "scaled-up":
        b, g = b * 1e3, g * 1e3
    elif kind == "scaled-down":
        b, g = b * 1e-3, g * 1e-3
    elif kind == "sphere":
        # positive curvature, but the unconstrained minimizer -g/b lies
        # four radii out, so the constrained one is on the sphere
        b = np.abs(b) + 0.5
        g = np.sign(g) * 4.0 * b * xi ** (1.0 / 3.0)
    return b, g, xi


def test_brute_force_row_search_matches_dense_grid_on_fuzzed_instances():
    # the search skips the rows whose lower bound exceeds a found value;
    # these instances put the last axis's curvature on either side of zero
    # and at zero, the gradient at zero, the scale far from one and the
    # minimizer on the sphere, where the bound is tightest
    rng = np.random.default_rng(2718)
    kinds = ("mixed", "all-negative", "last-negative", "last-zero", "zero-g",
             "scaled-up", "scaled-down", "sphere")
    # d = 3 gets three instances: its dense grid costs about 0.3 s each
    draws = [(d, kind) for d in (1, 2) for kind in kinds for _ in range(2)]
    draws += [(3, "last-negative"), (3, "last-zero"), (3, "sphere")]
    for d, kind in draws:
        b, g, xi = _fuzz_instance(rng, d, kind)
        s = brute_force_subproblem_min(b, g, xi)
        assert np.array_equal(s, _dense_brute_force(b, g, xi)), (kind, b, g, xi)
