"""Rademacher probes and the diagonal curvature estimator."""

import numpy as np
import pytest

from adacubic import exhaustive_diag, hutchinson_diag, make_saddle
from adacubic.hutchinson import _rademacher_probes


def test_rademacher_entries_and_determinism():
    v = _rademacher_probes(np.random.default_rng(42), 3, 8)
    assert v.shape == (3, 8)
    np.testing.assert_array_equal(np.abs(v), np.ones((3, 8)))
    again = _rademacher_probes(np.random.default_rng(42), 3, 8)
    np.testing.assert_array_equal(v, again)


def test_rademacher_rejects_empty():
    with pytest.raises(ValueError):
        _rademacher_probes(np.random.default_rng(0), 1, 0)


def test_rademacher_mean_concentrates():
    rng = np.random.default_rng(123)
    draws = _rademacher_probes(rng, 10000, 4)[:, 0]
    assert abs(draws.mean()) < 0.05


def test_exact_on_diagonal_hessian_single_sample():
    diag = np.array([3.0, -1.0, 5.0])
    est = hutchinson_diag(lambda v: diag * v, 3, 1, np.random.default_rng(0))
    np.testing.assert_allclose(est, diag, atol=1e-15)


def test_exact_on_saddle_diagonal():
    obj = make_saddle()
    x = np.array([0.3, -0.8])
    est = hutchinson_diag(lambda v: obj.hvp(x, v), 2, 1, np.random.default_rng(1))
    np.testing.assert_allclose(est, obj.exact_diag_hessian(x), atol=1e-15)


def test_zero_hessian():
    est = hutchinson_diag(lambda v: np.zeros_like(v), 5, 3,
                          np.random.default_rng(2))
    np.testing.assert_array_equal(est, np.zeros(5))


def test_rejects_invalid_sample_count():
    with pytest.raises(ValueError):
        hutchinson_diag(lambda v: v, 2, 0, np.random.default_rng(0))


def test_nonfinite_hvp_raises():
    with pytest.raises(FloatingPointError):
        hutchinson_diag(lambda v: v * np.inf, 2, 1, np.random.default_rng(0))


def test_exhaustive_two_by_two():
    H = np.array([[1.0, 0.5], [0.5, 2.0]])
    out = exhaustive_diag(lambda v: H @ v, 2)
    np.testing.assert_allclose(out, [1.0, 2.0], atol=1e-15)


def test_exhaustive_matches_diag_for_dense_symmetric():
    rng = np.random.default_rng(9)
    for d in (2, 3, 4):
        A = rng.standard_normal((d, d))
        H = 0.5 * (A + A.T)
        out = exhaustive_diag(lambda v: H @ v, d)
        np.testing.assert_allclose(out, np.diag(H), atol=1e-12)


def test_exhaustive_dimension_cap():
    with pytest.raises(ValueError):
        exhaustive_diag(lambda v: v, 13)


def test_deviation_decreases_with_sample_count():
    d = 6
    A = np.random.default_rng(7).standard_normal((d, d))
    H = 0.5 * (A + A.T)
    rng = np.random.default_rng(99)
    medians = []
    for S in (1, 4, 16):
        devs = [np.max(np.abs(hutchinson_diag(lambda v: H @ v, d, S, rng)
                              - np.diag(H)))
                for _ in range(300)]
        medians.append(float(np.median(devs)))
    assert medians[0] > medians[1] > medians[2]


def test_sequential_accumulation_is_seed_deterministic():
    H = np.random.default_rng(3).standard_normal((4, 4))
    H = 0.5 * (H + H.T)
    a = hutchinson_diag(lambda v: H @ v, 4, 8, np.random.default_rng(5))
    b = hutchinson_diag(lambda v: H @ v, 4, 8, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


def _reference_diag(hvp, d, S, rng):
    """One Rademacher draw per probe, accumulated in order: the estimator
    as S separate draws of d entries."""
    acc = np.zeros(d)
    for _ in range(S):
        v = _rademacher_probes(rng, 1, d)[0]
        acc += np.asarray(hvp(v), dtype=float) * v
    return acc / S


@pytest.mark.parametrize("S", [1, 3, 16])
@pytest.mark.parametrize("d", [1, 2, 7])
def test_probes_drawn_at_once_match_one_draw_per_probe(S, d):
    A = np.random.default_rng(11).standard_normal((d, d))
    H = 0.5 * (A + A.T)
    ours, ref = np.random.default_rng(S * 100 + d), np.random.default_rng(S * 100 + d)
    est = hutchinson_diag(lambda v: H @ v, d, S, ours)
    assert np.array_equal(est, _reference_diag(lambda v: H @ v, d, S, ref))
    # and both generators are left in the same state
    assert np.array_equal(ours.random(4), ref.random(4))
