"""Secular-equation calculus, the safeguarded Newton root finder, and the
hard-case branch, checked against closed forms, the brute-force oracle and
the two-loop root finder it replaced."""

import dataclasses

import numpy as np
import pytest

from adacubic import (AdaCubicConfig, ShiftNotPositiveDefiniteError,
                      SolverStallError, SubproblemSolution, SubproblemStatus,
                      brute_force_subproblem_min, dphi_dnu, hard_case_step,
                      kkt_residual, phi, root_finder, solve_shifted)
from adacubic.verify import random_instance

CFG = AdaCubicConfig()


# ---------------------------------------------------------------------------
# solve_shifted / phi / dphi_dnu closed forms
# ---------------------------------------------------------------------------

def test_solve_shifted_one_dimensional():
    # (1 + 2*1/2) s = -2  ->  s = -1
    s = solve_shifted(np.array([1.0]), np.array([2.0]), 2.0, 1.0)
    assert s[0] == pytest.approx(-1.0)


def test_solve_shifted_zero_gradient():
    s = solve_shifted(np.array([1.0, 2.0]), np.zeros(2), 0.5, 1.0)
    np.testing.assert_array_equal(s, np.zeros(2))


def test_solve_shifted_newton_step():
    s = solve_shifted(np.array([2.0, 4.0]), np.array([2.0, 4.0]), 0.0, 1.0)
    np.testing.assert_allclose(s, [-1.0, -1.0])


def test_solve_shifted_residual_identity():
    rng = np.random.default_rng(17)
    for _ in range(50):
        d = int(rng.integers(1, 8))
        b = rng.uniform(-2.0, 2.0, size=d)
        g = rng.uniform(-1.0, 1.0, size=d)
        r = float(rng.uniform(0.1, 2.0))
        nu = float(2.0 * max(0.0, -b.min()) / r + rng.uniform(0.1, 2.0))
        s = solve_shifted(b, g, nu, r)
        np.testing.assert_allclose((b + 0.5 * nu * r) * s, -g, atol=1e-12)


def test_solve_shifted_requires_positive_shift():
    with pytest.raises(ShiftNotPositiveDefiniteError):
        solve_shifted(np.array([-1.0, 2.0]), np.ones(2), 0.0, 1.0)


def test_phi_values():
    b, g = np.array([1.0]), np.array([2.0])
    assert phi(b, g, 0.0, 1.0, 1.0) == pytest.approx(-0.5)
    assert phi(b, g, 2.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    # scale: ||s(2, 1)|| = 1, so against radius 2 the residual is 1 - 1/2
    assert phi(b, g, 0.0, 1.0, 8.0) == pytest.approx(0.5 - 0.5)


def test_phi_rejects_zero_step():
    with pytest.raises(ZeroDivisionError):
        phi(np.array([1.0]), np.array([0.0]), 0.0, 1.0, 1.0)


def test_dphi_closed_form_values():
    b, g = np.array([1.0]), np.array([2.0])
    assert dphi_dnu(b, g, 0.0, 1.0) == pytest.approx(0.25)
    assert dphi_dnu(b, g, 2.0, 1.0) == pytest.approx(0.25)


def test_dphi_positive_and_matches_finite_differences():
    rng = np.random.default_rng(4242)
    for _ in range(200):
        d = int(rng.integers(1, 11))
        b = rng.uniform(-2.0, 2.0, size=d)
        g = rng.uniform(-1.0, 1.0, size=d)
        while np.linalg.norm(g) < 1e-3:
            g = rng.uniform(-1.0, 1.0, size=d)
        r = float(rng.uniform(0.2, 2.0))
        nu_min = max(0.0, -2.0 * float(b.min()) / r)
        nu = nu_min + float(rng.uniform(0.1, 3.0))
        deriv = dphi_dnu(b, g, nu, r)
        assert deriv > 0.0
        h = 1e-6 * (1.0 + nu)
        fd = (phi(b, g, nu + h, r, r ** 3) - phi(b, g, nu - h, r, r ** 3)) / (2 * h)
        assert abs(deriv - fd) <= max(1e-6, 1e-4 * abs(deriv))


def test_phi_monotone_and_concave():
    rng = np.random.default_rng(31)
    for _ in range(50):
        d = int(rng.integers(1, 11))
        b = rng.uniform(-2.0, 2.0, size=d)
        g = rng.uniform(-1.0, 1.0, size=d)
        while np.linalg.norm(g) < 1e-3:
            g = rng.uniform(-1.0, 1.0, size=d)
        r = float(rng.uniform(0.2, 2.0))
        nu_min = max(0.0, -2.0 * float(b.min()) / r)
        nus = np.linspace(nu_min + 1e-3, nu_min + 5.0, 50)
        vals = np.array([phi(b, g, t, r, r ** 3) for t in nus])
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(np.diff(vals, 2) <= 1e-8)


# ---------------------------------------------------------------------------
# hard case
# ---------------------------------------------------------------------------

def test_hard_case_pure_negative_curvature():
    s, alpha = hard_case_step(np.array([-1.0]), np.array([0.0]),
                              np.zeros(1), 1.0)
    assert alpha == pytest.approx(1.0)  # tie broken toward positive alpha
    np.testing.assert_allclose(s, [1.0])


def test_hard_case_lands_on_boundary():
    b = np.array([-1.0, 2.0])
    g = np.array([0.0, 1.0])
    xi = 0.5
    s_reg = np.array([0.0, -1.0 / 3.0])
    s, alpha = hard_case_step(b, g, s_reg, xi)
    assert np.linalg.norm(s) ** 3 == pytest.approx(xi, rel=1e-12)
    assert alpha > 0.0  # model symmetric in the sign of s_1, tie to +
    # alpha^2 = xi^(2/3) - s_reg_2^2
    assert alpha == pytest.approx(np.sqrt(xi ** (2.0 / 3.0) - 1.0 / 9.0), rel=1e-12)


def test_hard_case_picks_lower_model_value():
    b = np.array([-1.0, 1.0])
    g = np.array([0.5, 0.0])  # nonzero along the negative-curvature axis
    s_reg = np.zeros(2)
    s, alpha = hard_case_step(b, g, s_reg, 1.0)
    assert alpha == pytest.approx(-1.0)  # g pushes toward negative alpha


def test_hard_case_argmin_tie_uses_smallest_index():
    b = np.array([-1.0, -1.0])
    s, _ = hard_case_step(b, np.zeros(2), np.zeros(2), 1.0)
    np.testing.assert_allclose(s, [1.0, 0.0])


# ---------------------------------------------------------------------------
# root_finder
# ---------------------------------------------------------------------------

def test_root_finder_one_dimensional_boundary():
    sol = root_finder(np.array([1.0]), np.array([2.0]), 1.0, CFG)
    assert sol.status is SubproblemStatus.BOUNDARY
    assert sol.s[0] == pytest.approx(-1.0, abs=1e-9)
    assert sol.nu == pytest.approx(2.0, abs=1e-8)
    res = kkt_residual(np.array([1.0]), np.array([2.0]), sol, 1.0)
    assert res.stationarity <= 1e-9
    assert res.min_shifted_curvature == pytest.approx(2.0, abs=1e-8)
    assert abs(res.slackness) <= 3.0 * CFG.kappa_easy * 1.0


def test_root_finder_interior():
    sol = root_finder(np.array([1.0, 2.0]), np.array([-1.0, -2.0]), 1000.0, CFG)
    assert sol.status is SubproblemStatus.INTERIOR
    assert sol.nu == 0.0
    np.testing.assert_allclose(sol.s, [1.0, 1.0])
    res = kkt_residual(np.array([1.0, 2.0]), np.array([-1.0, -2.0]), sol, 1000.0)
    assert res.slackness == 0.0


def test_root_finder_hard_case():
    b = np.array([-1.0, 2.0])
    g = np.array([0.0, 1.0])
    xi = 0.5
    sol = root_finder(b, g, xi, CFG)
    assert sol.status is SubproblemStatus.HARD_CASE
    assert np.linalg.norm(sol.s) ** 3 == pytest.approx(xi, rel=1e-9)
    # analytic solution: shift pinned at -lambda_d, s_2 = -1/3, s_1 > 0
    assert sol.s[1] == pytest.approx(-1.0 / 3.0, abs=1e-6)
    assert sol.s[0] == pytest.approx(np.sqrt(xi ** (2.0 / 3.0) - 1.0 / 9.0),
                                     abs=1e-6)
    assert sol.nu == pytest.approx(2.0 / xi ** (1.0 / 3.0), rel=1e-6)
    res = kkt_residual(b, g, sol, xi)
    assert res.min_shifted_curvature >= -CFG.kkt_tol
    # independent oracle agrees within grid tolerance; g_1 = 0 makes the
    # model symmetric in the sign of s_1, so compare magnitudes
    ref = brute_force_subproblem_min(b, g, xi)
    np.testing.assert_allclose(np.abs(sol.s), np.abs(ref),
                               atol=2.0 * xi ** (1.0 / 3.0) / 200)
    assert ref[1] < 0.0


def test_root_finder_zero_gradient_psd():
    sol = root_finder(np.array([1.0, 0.0]), np.zeros(2), 1.0, CFG)
    assert sol.status is SubproblemStatus.INTERIOR
    assert sol.nu == 0.0
    np.testing.assert_array_equal(sol.s, np.zeros(2))


def test_root_finder_zero_gradient_indefinite_escapes():
    sol = root_finder(np.array([1.0, -1.0]), np.zeros(2), 1.0, CFG)
    assert sol.status is SubproblemStatus.HARD_CASE
    np.testing.assert_allclose(sol.s, [0.0, 1.0], atol=1e-12)
    assert sol.model_decrease > 0.0


def test_root_finder_input_validation():
    with pytest.raises(ValueError):
        root_finder(np.array([1.0]), np.array([1.0]), 1e-9, CFG)  # xi < eps_m
    with pytest.raises(ValueError):
        root_finder(np.array([np.nan]), np.array([1.0]), 1.0, CFG)


def test_newton_iterates_monotone_from_negative_side():
    rng = np.random.default_rng(66)
    for _ in range(50):
        d = int(rng.integers(1, 8))
        b = rng.uniform(-2.0, 2.0, size=d)
        g = rng.uniform(-1.0, 1.0, size=d)
        while np.linalg.norm(g) < 1e-3:
            g = rng.uniform(-1.0, 1.0, size=d)
        r = float(rng.uniform(0.2, 1.5))
        xi = r ** 3
        nu_min = max(0.0, -2.0 * float(b.min()) / r)
        nu = nu_min + 1e-6 * (1.0 + nu_min)
        if phi(b, g, nu, r, xi) >= 0.0:
            continue
        for _ in range(60):
            p = phi(b, g, nu, r, xi)
            if abs(p) < 1e-13:
                break
            nxt = nu - p / dphi_dnu(b, g, nu, r)
            if p < 0.0:
                assert nxt > nu
                assert phi(b, g, nxt, r, xi) < 1e-12
            nu = nxt


def test_kkt_conditions_on_random_instances():
    rng = np.random.default_rng(12345)
    for _ in range(200):
        d = int(rng.integers(1, 11))
        b = rng.uniform(-2.0, 2.0, size=d)
        g = rng.uniform(-1.0, 1.0, size=d)
        xi = float(10.0 ** rng.uniform(-4, 1))
        sol = root_finder(b, g, xi, CFG)
        res = kkt_residual(b, g, sol, xi)
        gn = float(np.linalg.norm(g))
        assert sol.nu >= 0.0
        assert res.stationarity <= 1e-6 * (1.0 + gn)
        assert res.min_shifted_curvature >= -1e-10
        assert sol.nu == 0.0 or abs(res.slackness) <= 4.0 * CFG.kappa_easy * xi * sol.nu
        if sol.status is not SubproblemStatus.INTERIOR:
            r = xi ** (1.0 / 3.0)
            assert abs(np.linalg.norm(sol.s) - r) <= CFG.kappa_easy * r
        # predicted decrease dominates the nu-cubed margin
        ns = float(np.linalg.norm(sol.s))
        assert sol.model_decrease >= sol.nu / 12.0 * ns ** 3 - 1e-10


def test_matches_brute_force_on_low_dimensions():
    rng = np.random.default_rng(777)
    for _ in range(25):
        d = int(rng.integers(1, 4))
        b = rng.uniform(-2.0, 2.0, size=d)
        g = rng.uniform(-1.0, 1.0, size=d)
        xi = float(10.0 ** rng.uniform(-2, 1))
        sol = root_finder(b, g, xi, CFG)
        ref = brute_force_subproblem_min(b, g, xi)
        tol = 2.0 * xi ** (1.0 / 3.0) / 200
        np.testing.assert_allclose(sol.s, ref, atol=tol)


# ---------------------------------------------------------------------------
# the two-loop root finder that the single loop replaced
# ---------------------------------------------------------------------------

def _ref_solve_shifted(b, g, nu, r):
    shift = b + 0.5 * nu * r
    if np.any(shift <= 0.0):
        raise ShiftNotPositiveDefiniteError("shift not positive definite")
    return -g / shift


def _ref_phi(b, g, nu, r, xi):
    return 1.0 / float(np.linalg.norm(_ref_solve_shifted(b, g, nu, r))) \
        - 1.0 / xi ** (1.0 / 3.0)


def _ref_dphi_dnu(b, g, nu, r):
    shift = b + 0.5 * nu * r
    s = -g / shift
    ns = float(np.linalg.norm(s))
    return float(0.5 * r * np.sum(s * s / shift) / ns ** 3)


def _ref_model_decrease(b, g, s, nu):
    ns = float(np.linalg.norm(s))
    return float(-(g @ s + 0.5 * s @ (b * s) + nu / 6.0 * ns ** 3))


def _reference_root_finder(b, g, xi, cfg):
    """root_finder as it was before its loops were merged: a bracketed
    Newton loop, then a grow-and-bisect fallback of 10 x max_newton_iters
    passes, each pass solving the shifted system twice."""
    r = xi ** (1.0 / 3.0)
    lam = float(b.min())
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        if lam >= 0.0:
            return SubproblemSolution(np.zeros_like(b), 0.0,
                                      SubproblemStatus.INTERIOR, 0, 0, 0.0)
        nu = -2.0 * (lam - max(1e-8, 1e-8 * abs(lam))) / r
        s, _ = hard_case_step(b, g, np.zeros_like(b), xi)
        return SubproblemSolution(s, nu, SubproblemStatus.HARD_CASE, 0, 0,
                                  _ref_model_decrease(b, g, s, nu))

    nu = 0.0 if lam > 0.0 else -2.0 * (lam - max(1e-8, 1e-8 * abs(lam))) / r
    s = _ref_solve_shifted(b, g, nu, r)
    ns = float(np.linalg.norm(s))
    if ns ** 3 <= xi:
        if abs(ns ** 3 - xi) <= 1e-12 * max(1.0, xi):
            return SubproblemSolution(s, nu, SubproblemStatus.BOUNDARY, 0, 0,
                                      _ref_model_decrease(b, g, s, nu))
        if lam >= 0.0:
            return SubproblemSolution(s, 0.0, SubproblemStatus.INTERIOR, 0, 0,
                                      _ref_model_decrease(b, g, s, 0.0))
        s, _ = hard_case_step(b, g, s, xi)
        return SubproblemSolution(s, nu, SubproblemStatus.HARD_CASE, 0, 0,
                                  _ref_model_decrease(b, g, s, nu))

    tol_abs = cfg.kkt_tol * (1.0 + gnorm)
    nu_lo, nu_hi = nu, np.inf
    iters = 0
    iters_to_band = -1

    def converged(ns_cur, nu_cur, s_cur):
        band = abs(ns_cur - r) <= cfg.kappa_easy * r
        resid = 0.5 * nu_cur * abs(ns_cur - r) * float(np.max(np.abs(s_cur)))
        return band and resid <= tol_abs

    def solution():
        return SubproblemSolution(s, nu, SubproblemStatus.BOUNDARY, iters,
                                  max(iters_to_band, 0),
                                  _ref_model_decrease(b, g, s, nu))

    while iters < cfg.max_newton_iters:
        if iters_to_band < 0 and abs(ns - r) <= cfg.kappa_easy * r:
            iters_to_band = iters
        if converged(ns, nu, s):
            return solution()
        phi_val = 1.0 / ns - 1.0 / r
        if phi_val < 0.0:
            nu_lo = max(nu_lo, nu)
        else:
            nu_hi = min(nu_hi, nu)
        proposal = nu - phi_val / _ref_dphi_dnu(b, g, nu, r)
        if not (nu_lo < proposal < nu_hi):
            proposal = 0.5 * (nu_lo + nu_hi) if np.isfinite(nu_hi) else 2.0 * max(nu, 1.0)
        nu = proposal
        s = _ref_solve_shifted(b, g, nu, r)
        ns = float(np.linalg.norm(s))
        iters += 1

    hi = nu_hi if np.isfinite(nu_hi) else max(nu_lo, 1.0)
    grow = 0
    while not np.isfinite(nu_hi):
        hi *= 2.0
        if _ref_phi(b, g, hi, r, xi) > 0.0:
            nu_hi = hi
        grow += 1
        if grow > 200:
            break
    lo = nu_lo
    for _ in range(10 * cfg.max_newton_iters):
        if not np.isfinite(nu_hi):
            break
        nu = 0.5 * (lo + nu_hi)
        s = _ref_solve_shifted(b, g, nu, r)
        ns = float(np.linalg.norm(s))
        iters += 1
        if converged(ns, nu, s):
            return solution()
        if 1.0 / ns - 1.0 / r < 0.0:
            lo = nu
        else:
            nu_hi = nu
    raise SolverStallError("reference stalled", solution())


def _scaled_instances(n, seed=2024):
    """Seeded kkt-style instances with b and xi each scaled by 10^U(-6, 6)
    (xi floored at eps_m): at these scales the absolute stop test
    kkt_tol * (1 + ||g||) can be out of reach, so some solves stall."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        b, g, xi = random_instance(rng)
        b = b * 10.0 ** rng.uniform(-6, 6)
        xi = max(xi * 10.0 ** rng.uniform(-6, 6), CFG.eps_m)
        yield b, g, xi


def _kkt_instances(n=500, seed=12345):
    rng = np.random.default_rng(seed)
    return [random_instance(rng) for _ in range(n)]


def _outcome(solver, b, g, xi):
    try:
        sol = solver(b, g, xi, CFG)
    except SolverStallError:
        return "stall"
    return (sol.s.tobytes(), sol.s.dtype, sol.s.shape, sol.nu, sol.status,
            sol.newton_iters, sol.newton_iters_to_band, sol.model_decrease)


def test_single_loop_matches_the_two_loop_solver_bit_for_bit():
    instances = _kkt_instances() + list(_scaled_instances(400))
    outcomes = [(_outcome(root_finder, b, g, xi),
                 _outcome(_reference_root_finder, b, g, xi))
                for b, g, xi in instances]
    stalls = [got == "stall" for got, _ in outcomes]
    # the scaled family exercises the stall path; the kkt instances never stall
    assert not any(stalls[:500]) and any(stalls[500:])
    for got, want in outcomes:
        assert got == want


def test_stall_raises_with_the_last_finite_iterate_after_the_budget():
    b, g, xi = next((b, g, xi) for b, g, xi in _scaled_instances(400)
                    if _outcome(root_finder, b, g, xi) == "stall")
    with pytest.raises(SolverStallError) as info:
        root_finder(b, g, xi, CFG)
    best = info.value.best
    assert best.newton_iters == CFG.max_newton_iters
    assert best.status is SubproblemStatus.BOUNDARY
    assert np.all(np.isfinite(best.s)) and np.isfinite(best.nu)


def test_max_newton_iters_bounds_the_passes():
    b, g, xi, sol = next((b, g, xi, sol) for b, g, xi in _kkt_instances()
                         for sol in [root_finder(b, g, xi, CFG)]
                         if sol.newton_iters > 2)
    with pytest.raises(SolverStallError) as info:
        root_finder(b, g, xi, dataclasses.replace(CFG, max_newton_iters=2))
    assert info.value.best.newton_iters == 2
    assert np.all(np.isfinite(info.value.best.s))
    # a budget of exactly the passes a solve needs returns the same solution
    exact = root_finder(b, g, xi,
                        dataclasses.replace(CFG, max_newton_iters=sol.newton_iters))
    assert exact.nu == sol.nu and np.array_equal(exact.s, sol.s)
