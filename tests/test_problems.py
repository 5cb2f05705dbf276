"""Built-in objectives (HVPs against a central difference of the gradient),
batching, and the brute-force subproblem reference."""

import math
import warnings

import numpy as np
import pytest

from adacubic import (brute_force_subproblem_min, draw_batch,
                      load_logistic_csv, make_logistic, make_quadratic,
                      make_rosenbrock, make_saddle, make_synthetic_logistic)
from adacubic.problems import BRUTE_FORCE_RESOLUTION, validate_batch


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


def test_logistic_label_validation():
    X = np.ones((3, 2))
    with pytest.raises(ValueError):
        make_logistic(X, np.array([1.0, 0.0, -1.0]))
    for l2 in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="need 0 <= l2 < inf"):
            make_logistic(X, np.array([1.0, -1.0, 1.0]), l2=l2)


def test_batch_validation():
    validate_batch(None, 10)
    validate_batch(np.array([0, 3, 9]), 10)
    with pytest.raises(ValueError):
        validate_batch(np.array([0, 10]), 10)
    with pytest.raises(ValueError):
        validate_batch(np.array([1, 1]), 10)


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


def _logistic_with_minimizer(n=2000, d=50, l2=1e-3, seed=5):
    """A logistic problem with 5% flipped labels and its minimizer w*, from
    Newton's method with the dense Hessian."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = np.sign(X @ rng.standard_normal(d))
    y[rng.random(n) < 0.05] *= -1.0
    obj = make_logistic(X, y, l2)
    w = np.zeros(d)
    for _ in range(30):
        sig = 1.0 / (1.0 + np.exp(y * (X @ w)))
        hess = (X.T * (sig * (1.0 - sig))) @ X / n + l2 * np.eye(d)
        w = w - np.linalg.solve(hess, obj.grad(w))
    return obj, w


def test_grad_norm_floor_never_exceeds_the_computed_gradient_norm():
    obj, w_star = _logistic_with_minimizer()
    assert np.linalg.norm(obj.grad(w_star)) < 1e-15
    rng = np.random.default_rng(6)
    d = obj.dim
    points = [rng.standard_normal(d) * 10.0 ** rng.uniform(-8, 3) for _ in range(1000)]
    points += [w_star + rng.standard_normal(d) * 10.0 ** rng.uniform(-12, -1)
               for _ in range(1000)]
    points += [w_star * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, -3))
               for _ in range(1000)]
    ratios = []
    for w in points:
        g = obj.grad(w)
        ratios.append(obj.grad_norm_floor(w) / math.sqrt(g @ g))
    ratios = np.array(ratios).reshape(3, -1)
    assert ratios.max() <= 1.0
    # at large random points the gradient is nearly parallel to w, so the
    # floor is within 1% of the norm there: a floor 1% higher breaks it
    assert ratios[0].max() > 0.99
    # the floor certifies most points of each group, but no point so close
    # to w* that rounding could hide the sign of grad F . w
    assert [(r > 0).mean() > 0.5 for r in ratios] == [True] * 3
    assert obj.grad_norm_floor(w_star) == 0.0


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
        g, hv = obj.grad(w), obj.hvp(w, v)
        diag, floor = obj.exact_diag_hessian(w), obj.grad_norm_floor(w)
    np.testing.assert_array_equal(g, X.T @ (-y * sig) / n + l2 * w)
    np.testing.assert_array_equal(hv, X.T @ (weights * (X @ v)) / n + l2 * v)
    np.testing.assert_array_equal(diag, (weights[:, None] * X ** 2).mean(axis=0) + l2)
    assert 0.0 < floor <= math.sqrt(g @ g)


def test_grad_norm_floor_is_zero_without_a_certificate():
    obj = make_synthetic_logistic(40, 3, 1e-2, 1)
    with np.errstate(all="ignore"):
        for w in ([0.0, 0.0, 0.0], [math.nan, 1.0, 1.0], [math.inf, 1.0, 1.0],
                  [1e200, 0.0, 0.0], [1e-310, 0.0, 0.0]):
            assert obj.grad_norm_floor(np.array(w)) == 0.0
    assert obj.grad_norm_floor(np.ones(3)) > 0.0
    # a problem without a floor has no certificate anywhere
    assert make_rosenbrock(3).grad_norm_floor(np.ones(3) * 5.0) == 0.0


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
