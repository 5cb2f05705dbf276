"""Rademacher probes and the diagonal curvature estimator."""

from itertools import islice

import numpy as np
import pytest

from adacubic import hutchinson, hutchinson_diag, make_rosenbrock, make_saddle
from adacubic.hutchinson import BLOCK_BYTES, rademacher_probes, rademacher_rows
from adacubic.verify import exhaustive_diag


def _probes(seed, S, d):
    return rademacher_probes(np.random.default_rng(seed), S, d)


def test_rademacher_entries_and_determinism():
    v = _probes(42, 3, 8)
    assert v.shape == (3, 8)
    np.testing.assert_array_equal(np.abs(v), np.ones((3, 8)))
    again = _probes(42, 3, 8)
    np.testing.assert_array_equal(v, again)


def test_rademacher_rejects_empty():
    with pytest.raises(ValueError):
        _probes(0, 1, 0)


def test_rademacher_mean_concentrates():
    rng = np.random.default_rng(123)
    draws = rademacher_probes(rng, 10000, 4)[:, 0]
    assert abs(draws.mean()) < 0.05


def test_exact_on_diagonal_hessian_single_sample():
    diag = np.array([3.0, -1.0, 5.0])
    est = hutchinson_diag(lambda v: diag * v, _probes(0, 1, 3))
    np.testing.assert_allclose(est, diag, atol=1e-15)


def test_exact_on_saddle_diagonal():
    obj = make_saddle()
    x = np.array([0.3, -0.8])
    est = hutchinson_diag(lambda v: obj.hvp(x, v), _probes(1, 1, 2))
    np.testing.assert_allclose(est, obj.exact_diag_hessian(x), atol=1e-15)


def test_zero_hessian():
    est = hutchinson_diag(lambda v: np.zeros_like(v), _probes(2, 3, 5))
    np.testing.assert_array_equal(est, np.zeros(5))


def test_rejects_no_probe_rows():
    calls = []
    for probes in ([], iter(()), _probes(0, 0, 2)):
        with pytest.raises(ValueError):
            hutchinson_diag(calls.append, probes)
    assert calls == []


def test_averages_over_the_rows_it_is_given():
    # any iterable of rows, counted as it is consumed: H v * v is (1.5, 2.5)
    # and (0.5, 1.5) on the two rows, and their average is diag(H)
    H = np.array([[1.0, 0.5], [0.5, 2.0]])
    rows = [np.array([1.0, 1.0]), np.array([1.0, -1.0])]
    for probes in (rows, iter(rows), (r for r in rows), np.array(rows)):
        np.testing.assert_array_equal(hutchinson_diag(lambda v: H @ v, probes),
                                      [1.0, 2.0])


def test_nonfinite_hvp_raises():
    with pytest.raises(FloatingPointError):
        hutchinson_diag(lambda v: v * np.inf, _probes(0, 1, 2))


@pytest.mark.parametrize("block_drawn", [False, True])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("S, bad_probe", [(1, 0), (4, 0), (4, 2)])
def test_nonfinite_hvp_from_any_probe_raises(S, bad_probe, bad, block_drawn):
    calls = []

    def hvp(v):
        calls.append(v)
        return v * (bad if len(calls) == bad_probe + 1 else 2.0)

    rng = np.random.default_rng(0)
    probes = (islice(rademacher_rows(rng, 3), S) if block_drawn
              else rademacher_probes(rng, S, 3))
    with pytest.raises(FloatingPointError):
        hutchinson_diag(hvp, probes)
    assert len(calls) == bad_probe + 1


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
        devs = [np.max(np.abs(hutchinson_diag(lambda v: H @ v, rademacher_probes(rng, S, d))
                              - np.diag(H)))
                for _ in range(300)]
        medians.append(float(np.median(devs)))
    assert medians[0] > medians[1] > medians[2]


def test_sequential_accumulation_is_seed_deterministic():
    H = np.random.default_rng(3).standard_normal((4, 4))
    H = 0.5 * (H + H.T)
    a = hutchinson_diag(lambda v: H @ v, _probes(5, 8, 4))
    b = hutchinson_diag(lambda v: H @ v, _probes(5, 8, 4))
    np.testing.assert_array_equal(a, b)


def _reference_diag(hvp, d, S, rng):
    """One Rademacher draw per probe, accumulated in order: the estimator
    as S separate draws of d entries."""
    acc = np.zeros(d)
    for _ in range(S):
        v = rademacher_probes(rng, 1, d)[0]
        acc += np.asarray(hvp(v), dtype=float) * v
    return acc / S


@pytest.mark.parametrize("S", [1, 3, 16])
@pytest.mark.parametrize("d", [1, 2, 7])
def test_probes_drawn_at_once_match_one_draw_per_probe(S, d):
    A = np.random.default_rng(11).standard_normal((d, d))
    H = 0.5 * (A + A.T)
    ours, ref = np.random.default_rng(S * 100 + d), np.random.default_rng(S * 100 + d)
    est = hutchinson_diag(lambda v: H @ v, rademacher_probes(ours, S, d))
    assert np.array_equal(est, _reference_diag(lambda v: H @ v, d, S, ref))
    # and both generators are left in the same state
    assert np.array_equal(ours.random(4), ref.random(4))


def _rows_per_block(d):
    return max(1, BLOCK_BYTES // (8 * d))


@pytest.mark.parametrize("S", [1, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 7, 1000])
def test_block_drawn_rows_match_one_draw_per_call(d, S):
    calls = -(-5 * _rows_per_block(d) // (2 * S))  # 2.5 blocks: two boundaries
    rows = rademacher_rows(np.random.default_rng(d), d)
    ref = np.random.default_rng(d)
    want = np.concatenate([rademacher_probes(ref, S, d) for _ in range(calls)])
    assert np.array_equal(np.array(list(islice(rows, calls * S))), want)


@pytest.mark.parametrize("S", [1, 4])
@pytest.mark.parametrize("d", [3, 1000])
def test_estimates_from_block_drawn_rows_match_one_draw_per_call(d, S):
    # at d = 3 a block holds 2730 rows, so with S = 4 one call straddles two blocks
    obj = make_rosenbrock(d)
    x = np.random.default_rng(1).uniform(-1.5, 1.5, d)
    rows, ref = rademacher_rows(np.random.default_rng(7), d), np.random.default_rng(7)
    for _ in range(-(-3 * _rows_per_block(d) // (2 * S))):
        got = hutchinson_diag(lambda v: obj.hvp(x, v), islice(rows, S))
        want = hutchinson_diag(lambda v: obj.hvp(x, v), rademacher_probes(ref, S, d))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 1000, 10000])
def test_a_block_of_rows_stays_under_its_byte_cap(d, monkeypatch):
    shapes = []
    draw = hutchinson.rademacher_probes

    def recorded(rng, S, width):
        shapes.append((S, width))
        return draw(rng, S, width)

    monkeypatch.setattr(hutchinson, "rademacher_probes", recorded)
    rows = rademacher_rows(np.random.default_rng(0), d)
    next(rows)
    [(n, width)] = shapes
    assert width == d
    # as many rows as fit under the cap; one when a row alone is larger
    assert n * d * 8 <= BLOCK_BYTES < (n + 1) * d * 8 or (n == 1 and d * 8 > BLOCK_BYTES)


def test_block_drawn_rows_reject_empty():
    with pytest.raises(ValueError):
        next(rademacher_rows(np.random.default_rng(0), 0))
