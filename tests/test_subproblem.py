"""Secular-equation calculus, the safeguarded Newton root finder, and the
hard-case branch, checked against closed forms and the brute-force oracle.
The KKT conditions on the 500 seeded instances are acceptance criterion 1;
tests/golden.json pins every solution of those and of the scaled instances."""

import ast
import inspect
import math

import numpy as np
import pytest

from adacubic import (ShiftNotPositiveDefiniteError, SolverStallError,
                      SubproblemStatus, brute_force_subproblem_min, dphi_dnu,
                      hard_case_step, kkt_residual, phi, root_finder, subproblem)
from adacubic.subproblem import (KAPPA_EASY, KKT_TOL, MAX_NEWTON_ITERS,
                                 _shifted_solve)
from adacubic.verify import random_instance

# the floor of the scaled instances' xi: part of the definition of that
# instance family, whose solutions tests/golden.json pins, so it stays 1e-6
# whatever the default eps_m of AdaCubicConfig
EPS_M = 1e-6


# ---------------------------------------------------------------------------
# the shifted solve / phi / dphi_dnu closed forms
# ---------------------------------------------------------------------------

def test_shifted_solve_one_dimensional():
    # (1 + 2*1/2) s = -2  ->  s = -1
    s = _shifted_solve(np.array([1.0]), np.array([2.0]), 2.0, 1.0)[1]
    assert s[0] == pytest.approx(-1.0)


def test_shifted_solve_zero_gradient():
    s = _shifted_solve(np.array([1.0, 2.0]), np.zeros(2), 0.5, 1.0)[1]
    np.testing.assert_array_equal(s, np.zeros(2))


def test_shifted_solve_newton_step():
    s = _shifted_solve(np.array([2.0, 4.0]), np.array([2.0, 4.0]), 0.0, 1.0)[1]
    np.testing.assert_allclose(s, [-1.0, -1.0])


def test_shifted_solve_residual_identity():
    rng = np.random.default_rng(17)
    for _ in range(50):
        d = int(rng.integers(1, 8))
        b = rng.uniform(-2.0, 2.0, size=d)
        g = rng.uniform(-1.0, 1.0, size=d)
        r = float(rng.uniform(0.1, 2.0))
        nu = float(2.0 * max(0.0, -b.min()) / r + rng.uniform(0.1, 2.0))
        s = _shifted_solve(b, g, nu, r)[1]
        np.testing.assert_allclose((b + 0.5 * nu * r) * s, -g, atol=1e-12)


def test_shifted_solve_requires_positive_shift():
    with pytest.raises(ShiftNotPositiveDefiniteError):
        _shifted_solve(np.array([-1.0, 2.0]), np.ones(2), 0.0, 1.0)


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
    sol = root_finder(np.array([1.0]), np.array([2.0]), 1.0)
    assert sol.status is SubproblemStatus.BOUNDARY
    assert sol.s[0] == pytest.approx(-1.0, abs=1e-9)
    assert sol.nu == pytest.approx(2.0, abs=1e-8)
    res = kkt_residual(np.array([1.0]), np.array([2.0]), sol, 1.0)
    assert res.stationarity <= 1e-9
    assert res.min_shifted_curvature == pytest.approx(2.0, abs=1e-8)
    assert abs(res.slackness) <= 3.0 * KAPPA_EASY * 1.0


def test_root_finder_interior():
    sol = root_finder(np.array([1.0, 2.0]), np.array([-1.0, -2.0]), 1000.0)
    assert sol.status is SubproblemStatus.INTERIOR
    assert sol.nu == 0.0
    np.testing.assert_allclose(sol.s, [1.0, 1.0])
    res = kkt_residual(np.array([1.0, 2.0]), np.array([-1.0, -2.0]), sol, 1000.0)
    assert res.slackness == 0.0


def test_root_finder_hard_case():
    b = np.array([-1.0, 2.0])
    g = np.array([0.0, 1.0])
    xi = 0.5
    sol = root_finder(b, g, xi)
    assert sol.status is SubproblemStatus.HARD_CASE
    assert np.linalg.norm(sol.s) ** 3 == pytest.approx(xi, rel=1e-9)
    # analytic solution: shift pinned at -lambda_d, s_2 = -1/3, s_1 > 0
    assert sol.s[1] == pytest.approx(-1.0 / 3.0, abs=1e-6)
    assert sol.s[0] == pytest.approx(np.sqrt(xi ** (2.0 / 3.0) - 1.0 / 9.0),
                                     abs=1e-6)
    assert sol.nu == pytest.approx(2.0 / xi ** (1.0 / 3.0), rel=1e-6)
    res = kkt_residual(b, g, sol, xi)
    assert res.min_shifted_curvature >= -KKT_TOL
    # independent oracle agrees within grid tolerance; g_1 = 0 makes the
    # model symmetric in the sign of s_1, so compare magnitudes
    ref = brute_force_subproblem_min(b, g, xi)
    np.testing.assert_allclose(np.abs(sol.s), np.abs(ref),
                               atol=2.0 * xi ** (1.0 / 3.0) / 200)
    assert ref[1] < 0.0


@pytest.mark.parametrize("xi", [1.0, 1e-13])
@pytest.mark.parametrize("b, status, decrease", [
    ([1.0, 2.0], SubproblemStatus.INTERIOR, False),    # lambda > 0
    ([1.0, 0.0], SubproblemStatus.INTERIOR, False),    # lambda = 0
    ([1.0, -1.0], SubproblemStatus.HARD_CASE, True),   # lambda < 0
])
def test_root_finder_zero_gradient_outcomes(b, status, decrease, xi):
    # at xi <= 1e-12 a zero step is within the boundary test's tolerance of
    # the radius; it must still not be classed BOUNDARY
    sol = root_finder(np.array(b), np.zeros(2), xi)
    r = xi ** (1.0 / 3.0)
    assert sol.status is status
    assert (sol.model_decrease > 0.0) is decrease
    if status is SubproblemStatus.INTERIOR:
        assert sol.nu == 0.0
        np.testing.assert_array_equal(sol.s, np.zeros(2))
    else:  # escape along e_1 to the radius; lambda_d^+ = -1 - 1e-8 gives nu
        assert sol.nu == pytest.approx(2.0 * (1.0 + 1e-8) / r, rel=1e-14)
        np.testing.assert_allclose(sol.s, [0.0, r], rtol=1e-14, atol=0.0)


def test_solver_constants():
    assert (KAPPA_EASY, KKT_TOL, MAX_NEWTON_ITERS) == (0.01, 1e-8, 100)


def test_solver_does_not_import_the_config():
    # the solver's tolerances live in its module and the xi floor in the
    # trust-region rule; neither layer reads the other's
    tree = ast.parse(inspect.getsource(subproblem))
    names = []  # every dotted name an import statement mentions
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert not [name for name in names if "config" in name.split(".")]


@pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_root_finder_rejects_xi_outside_zero_to_inf_before_solving(xi, monkeypatch):
    # nan and +inf used to run every pass and raise SolverStallError
    monkeypatch.setattr(subproblem, "_solve", None)  # no solve may start
    with pytest.raises(ValueError, match="0 < xi < inf"):
        root_finder(np.array([1.0, -1.0]), np.array([0.5, 0.3]), xi)


@pytest.mark.parametrize("xi", [1e-7, 1e-9, 1e-12])
@pytest.mark.parametrize("b, g", [([1.0], [2.0]), ([1.0, -1.0], [0.5, 0.3]),
                                  ([2.0, 3.0], [1.0, -1.0])])
def test_root_finder_solves_below_the_xi_floor(b, g, xi):
    # the floor eps_m = 1e-6 belongs to the trust-region rule, not the solver
    b, g = np.array(b), np.array(g)
    sol = root_finder(b, g, xi)
    r = xi ** (1.0 / 3.0)
    assert sol.status is SubproblemStatus.BOUNDARY
    assert kkt_residual(b, g, sol, xi).stationarity <= 1e-6 * (1.0 + np.linalg.norm(g))
    assert abs(np.linalg.norm(sol.s) - r) <= KAPPA_EASY * r


@pytest.mark.parametrize("scale", [1.0, 1e200])  # 1e200: g @ g overflows too
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", ["b", "g"])
def test_root_finder_rejects_non_finite_b_or_g(where, bad, scale):
    b, g = np.array([scale, -2.0, 3.0]), np.array([scale, 1.0, -1.0])
    (b if where == "b" else g)[1] = bad
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        root_finder(b, g, 1.0)


@pytest.mark.parametrize("b, g", [([1e200, 2e200], [1e200, -1e200]),
                                  ([-1e200, 2e200], [3e200, -1e200])])
def test_root_finder_accepts_finite_b_and_g_whose_squares_overflow(b, g):
    with np.errstate(over="ignore"):  # g @ g overflows
        sol = root_finder(np.array(b), np.array(g), 1.0)
    assert sol.status is SubproblemStatus.BOUNDARY
    assert abs(np.linalg.norm(sol.s) - 1.0) <= KAPPA_EASY


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


def test_matches_brute_force_on_low_dimensions():
    rng = np.random.default_rng(777)
    for _ in range(25):
        d = int(rng.integers(1, 4))
        b = rng.uniform(-2.0, 2.0, size=d)
        g = rng.uniform(-1.0, 1.0, size=d)
        xi = float(10.0 ** rng.uniform(-2, 1))
        sol = root_finder(b, g, xi)
        ref = brute_force_subproblem_min(b, g, xi)
        tol = 2.0 * xi ** (1.0 / 3.0) / 200
        np.testing.assert_allclose(sol.s, ref, atol=tol)


# ---------------------------------------------------------------------------
# the stall path and the Newton budget
# ---------------------------------------------------------------------------

def _scaled_instances(n, seed=2024):
    """Seeded kkt-style instances with b and xi each scaled by 10^U(-6, 6)
    (xi floored at eps_m): at these scales the absolute stop test
    kkt_tol * (1 + ||g||) can be out of reach, so some solves stall."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        b, g, xi = random_instance(rng)
        b = b * 10.0 ** rng.uniform(-6, 6)
        xi = max(xi * 10.0 ** rng.uniform(-6, 6), EPS_M)
        yield b, g, xi


def _kkt_instances(n=500, seed=12345):
    rng = np.random.default_rng(seed)
    return [random_instance(rng) for _ in range(n)]


def _outcome(solver, b, g, xi):
    try:
        sol = solver(b, g, xi)
    except SolverStallError:
        return "stall"
    return (sol.s.tobytes(), sol.s.dtype, sol.s.shape, sol.nu, sol.status,
            sol.newton_iters, sol.newton_iters_to_band, sol.model_decrease)


def test_stall_raises_with_the_last_finite_iterate_after_the_budget():
    b, g, xi = next((b, g, xi) for b, g, xi in _scaled_instances(400)
                    if _outcome(root_finder, b, g, xi) == "stall")
    with pytest.raises(SolverStallError) as info:
        root_finder(b, g, xi)
    best = info.value.best
    assert best.newton_iters == MAX_NEWTON_ITERS
    assert best.status is SubproblemStatus.BOUNDARY
    assert np.all(np.isfinite(best.s)) and np.isfinite(best.nu)


def test_max_newton_iters_bounds_the_passes(kkt_solved, monkeypatch):
    b, g, xi, sol = next(item for item in kkt_solved[0] if item[3].newton_iters > 2)
    monkeypatch.setattr(subproblem, "MAX_NEWTON_ITERS", 2)
    with pytest.raises(SolverStallError) as info:
        root_finder(b, g, xi)
    assert info.value.best.newton_iters == 2
    assert np.all(np.isfinite(info.value.best.s))
    # a budget of exactly the passes a solve needs returns the same solution
    monkeypatch.setattr(subproblem, "MAX_NEWTON_ITERS", sol.newton_iters)
    exact = root_finder(b, g, xi)
    assert exact.nu == sol.nu and np.array_equal(exact.s, sol.s)
