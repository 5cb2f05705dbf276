"""Rademacher probes and the diagonal curvature estimator."""

import numpy as np
import pytest

from adacubic import hutchinson, hutchinson_diag, make_rosenbrock, make_saddle
from adacubic.hutchinson import BLOCK_BYTES, rademacher_blocks, rademacher_probes
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


def test_rejects_an_empty_block_before_any_hvp():
    calls = []
    for probes in (np.empty((0, 2)), _probes(0, 0, 2)):
        with pytest.raises(ValueError):
            hutchinson_diag(calls.append, probes)
    assert calls == []


@pytest.mark.parametrize("probes", [np.array([1.0, -1.0, 1.0]), np.ones((1, 1, 3)),
                                    np.array(1.0)])
def test_rejects_a_block_that_is_not_2d_before_any_hvp(probes):
    # a 1-D probe vector used to be taken as S = d rows of one entry, and
    # with H = diag(3, -1, 5) gave the scalar 2.333; a (1, 1, 3) block gave (1, 3)
    calls = []
    with pytest.raises(ValueError, match="2-D"):
        hutchinson_diag(lambda V: calls.append(V) or V * [3.0, -1.0, 5.0], probes)
    assert calls == []


def test_averages_over_the_rows_it_is_given():
    # H v * v is (1.5, 2.5) and (0.5, 1.5) on the two rows, and their
    # average is diag(H); one HVP call takes both rows
    H = np.array([[1.0, 0.5], [0.5, 2.0]])
    rows = [np.array([1.0, 1.0]), np.array([1.0, -1.0])]
    for probes in (rows, np.array(rows)):
        calls = []

        def hvp(V):
            calls.append(V)
            return V @ H  # H is symmetric

        np.testing.assert_array_equal(hutchinson_diag(hvp, probes), [1.0, 2.0])
        assert len(calls) == 1


@pytest.mark.parametrize("S", [1, 2, 4, 16, 33])
@pytest.mark.parametrize("d", [1, 2, 1000])
def test_sums_the_rows_in_order_from_zero(d, S):
    # magnitudes 1e-8 to 1e8, so that any other order rounds differently
    rng = np.random.default_rng(S * 1000 + d)
    hv = rng.standard_normal((S, d)) * 10.0 ** rng.integers(-8, 9, size=(S, d))
    V = rademacher_probes(rng, S, d)
    want = 0.0
    for row in hv * V:
        want = want + row
    assert np.array_equal(hutchinson_diag(lambda _: hv, V), want / S)


@pytest.mark.parametrize("S", [1, 4, 16])
@pytest.mark.parametrize("d", [1, 3])
def test_a_negative_zero_sum_is_positive_zero(d, S):
    est = hutchinson_diag(lambda V: np.full((S, d), -0.0), np.ones((S, d)))
    assert not np.signbit(est).any()


def test_does_not_write_into_the_products_it_is_given():
    H = np.array([[1.0, 0.5], [0.5, 2.0]])
    V = _probes(4, 3, 2)
    hv = V @ H
    kept = hv.copy()
    hutchinson_diag(lambda _: hv, V)
    np.testing.assert_array_equal(hv, kept)


@pytest.mark.parametrize("hvp", [
    lambda V: np.array([3.0, -1.0]),  # one vector for the whole block
    lambda V: np.ones((2, 4)),  # the products as columns
    lambda V: np.ones((4, 3)),  # one entry too many per row
    lambda V: np.float64(1.0),
], ids=["vector", "transposed", "wide", "scalar"])
def test_an_hvp_of_another_shape_than_the_block_raises(hvp):
    with pytest.raises(ValueError, match="shape"):
        hutchinson_diag(hvp, _probes(3, 4, 2))


def test_a_vector_only_oracle_is_refused():
    # an oracle written H @ v for one vector fails on a block rather than
    # averaging a wrong product
    H = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 3.0]])
    with pytest.raises(ValueError):
        hutchinson_diag(lambda v: H @ v, _probes(5, 4, 3))


def test_nonfinite_hvp_raises():
    with pytest.raises(FloatingPointError):
        hutchinson_diag(lambda v: v * np.inf, _probes(0, 1, 2))


@pytest.mark.parametrize("block_drawn", [False, True])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("S, bad_row", [(1, 0), (4, 0), (4, 2)])
def test_nonfinite_hvp_in_any_row_raises(S, bad_row, bad, block_drawn):
    calls = []

    def hvp(V):
        calls.append(V)
        out = V * 2.0
        out[bad_row, 1] = bad
        return out

    rng = np.random.default_rng(0)
    probes = (next(rademacher_blocks(rng, S, 3)) if block_drawn
              else rademacher_probes(rng, S, 3))
    with pytest.raises(FloatingPointError):
        hutchinson_diag(hvp, probes)
    assert len(calls) == 1


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
        devs = [np.max(np.abs(hutchinson_diag(lambda V: V @ H, rademacher_probes(rng, S, d))
                              - np.diag(H)))
                for _ in range(300)]
        medians.append(float(np.median(devs)))
    assert medians[0] > medians[1] > medians[2]


def test_sequential_accumulation_is_seed_deterministic():
    H = np.random.default_rng(3).standard_normal((4, 4))
    H = 0.5 * (H + H.T)
    a = hutchinson_diag(lambda V: V @ H, _probes(5, 8, 4))
    b = hutchinson_diag(lambda V: V @ H, _probes(5, 8, 4))
    np.testing.assert_array_equal(a, b)


def _reference_diag(hvp, d, S, rng):
    """One Rademacher draw per probe, accumulated in order: the estimator
    as S separate draws of d entries."""
    acc = np.zeros(d)
    for _ in range(S):
        v = rademacher_probes(rng, 1, d)[0]
        acc += np.asarray(hvp(v), dtype=float) * v
    return acc / S


def _row_by_row(H):
    """A block HVP that multiplies each row as the reference does."""
    return lambda V: np.array([H @ v for v in V])


@pytest.mark.parametrize("S", [1, 3, 16])
@pytest.mark.parametrize("d", [1, 2, 7])
def test_probes_drawn_at_once_match_one_draw_per_probe(S, d):
    A = np.random.default_rng(11).standard_normal((d, d))
    H = 0.5 * (A + A.T)
    ours, ref = np.random.default_rng(S * 100 + d), np.random.default_rng(S * 100 + d)
    est = hutchinson_diag(_row_by_row(H), rademacher_probes(ours, S, d))
    assert np.array_equal(est, _reference_diag(lambda v: H @ v, d, S, ref))
    # and both generators are left in the same state
    assert np.array_equal(ours.random(4), ref.random(4))


def _blocks_per_draw(S, d):
    return max(1, BLOCK_BYTES // (8 * S * d))


@pytest.mark.parametrize("S", [1, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 7, 1000])
def test_block_drawn_probes_match_one_draw_per_call(d, S):
    calls = -(-5 * _blocks_per_draw(S, d) // 2)  # 2.5 draws: two boundaries
    blocks = rademacher_blocks(np.random.default_rng(d), S, d)
    ref = np.random.default_rng(d)
    for _ in range(calls):
        V = next(blocks)
        assert V.shape == (S, d)
        assert np.array_equal(V, rademacher_probes(ref, S, d))


@pytest.mark.parametrize("S", [1, 4])
@pytest.mark.parametrize("d", [3, 1000])
def test_estimates_from_block_drawn_probes_match_one_draw_per_call(d, S):
    obj = make_rosenbrock(d)
    x = np.random.default_rng(1).uniform(-1.5, 1.5, d)
    blocks, ref = rademacher_blocks(np.random.default_rng(7), S, d), np.random.default_rng(7)
    for _ in range(-(-3 * _blocks_per_draw(S, d) // 2)):
        got = hutchinson_diag(lambda V: obj.hvp(x, V), next(blocks))
        want = hutchinson_diag(lambda V: obj.hvp(x, V), rademacher_probes(ref, S, d))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("S", [1, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 7, 1000, 10000])
def test_a_draw_of_blocks_stays_under_its_byte_cap(d, S, monkeypatch):
    shapes = []
    draw = hutchinson.rademacher_probes

    def recorded(rng, rows, width):
        shapes.append((rows, width))
        return draw(rng, rows, width)

    monkeypatch.setattr(hutchinson, "rademacher_probes", recorded)
    blocks = rademacher_blocks(np.random.default_rng(0), S, d)
    next(blocks)
    [(n, width)] = shapes
    assert width == d and n % S == 0
    # as many whole blocks as fit under the cap; one when a block alone is larger
    size = S * d * 8
    assert n * d * 8 <= BLOCK_BYTES < n * d * 8 + size or (n == S and size > BLOCK_BYTES)


@pytest.mark.parametrize("S, d", [(1, 0), (0, 3), (-1, 3)])
def test_block_drawn_probes_reject_empty(S, d):
    with pytest.raises(ValueError):
        next(rademacher_blocks(np.random.default_rng(0), S, d))
