"""Secular-equation calculus, the safeguarded Newton root finder, and the
hard-case branch, checked against closed forms and the brute-force oracle.
The KKT conditions on the 500 seeded instances are acceptance criterion 1;
tests/golden.json pins every solution of those and of the scaled instances."""

import ast
import inspect
import math

import numpy as np
import pytest

from adacubic import SolverStallError, SubproblemStatus, root_finder, subproblem
from adacubic.subproblem import (KAPPA_EASY, KKT_TOL, MAX_NEWTON_ITERS, _solve,
                                 hard_case_step)
from adacubic.verify import (BRUTE_FORCE_RESOLUTION, ShiftNotPositiveDefiniteError,
                             _shifted_solve, brute_force_subproblem_min, dphi_dnu,
                             kkt_residual, phi)


# ---------------------------------------------------------------------------
# the shifted solve / phi / dphi_dnu closed forms
# ---------------------------------------------------------------------------

def test_shifted_solve_one_dimensional():
    # (1 + 2*1/2) s = -2  ->  s = -1
    s = _solve(np.array([1.0]), np.array([2.0]), 2.0, 1.0)[1]
    assert s[0] == pytest.approx(-1.0)


def test_shifted_solve_zero_gradient():
    s = _solve(np.array([1.0, 2.0]), np.zeros(2), 0.5, 1.0)[1]
    np.testing.assert_array_equal(s, np.zeros(2))


def test_shifted_solve_newton_step():
    s = _solve(np.array([2.0, 4.0]), np.array([2.0, 4.0]), 0.0, 1.0)[1]
    np.testing.assert_allclose(s, [-1.0, -1.0])


def test_shifted_solve_residual_identity():
    rng = np.random.default_rng(17)
    for _ in range(50):
        d = int(rng.integers(1, 8))
        b = rng.uniform(-2.0, 2.0, size=d)
        g = rng.uniform(-1.0, 1.0, size=d)
        r = float(rng.uniform(0.1, 2.0))
        nu = float(2.0 * max(0.0, -b.min()) / r + rng.uniform(0.1, 2.0))
        s = _solve(b, g, nu, r)[1]
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


def test_hard_case_returns_the_root_of_smaller_model_value_ties_to_larger_alpha():
    # random hard-case inputs: min b < 0 and s_reg strictly inside the
    # radius; every third case has g_j = s_reg_j = 0, where the two roots
    # +-root tie exactly in model value
    rng = np.random.default_rng(4242)
    winners = set()
    for case in range(300):
        d = int(rng.integers(1, 6))
        b = rng.normal(size=d)
        j = int(np.argmin(b))
        b[j] = -abs(b[j]) - 0.1
        g, s_reg = rng.normal(size=d), rng.normal(size=d)
        if case % 3 == 0:
            g[j] = s_reg[j] = 0.0
        xi = (math.sqrt(s_reg @ s_reg) * rng.uniform(1.1, 3.0)) ** 3
        r = xi ** (1.0 / 3.0)
        root = math.sqrt(r * r - float(s_reg @ s_reg - s_reg[j] ** 2))
        ranked = []
        for alpha in (-s_reg[j] + root, -s_reg[j] - root):
            s = s_reg.copy()
            s[j] += alpha
            ranked.append((float(g @ s + 0.5 * s @ (b * s)), -float(alpha), s))
        _, neg_alpha, expected = min(ranked, key=lambda c: c[:2])
        s, alpha = hard_case_step(b, g, s_reg, xi)
        assert alpha == -neg_alpha and np.array_equal(s, expected)
        tie = ranked[0][0] == ranked[1][0]
        winners.add("tie" if tie else "+" if alpha > -s_reg[j] else "-")
    assert winners == {"tie", "+", "-"}


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
                               atol=2.0 * xi ** (1.0 / 3.0) / BRUTE_FORCE_RESOLUTION)
    assert ref[1] < 0.0


@pytest.mark.parametrize("xi", [1.0, 1e-13])
@pytest.mark.parametrize("b, status, decrease", [
    ([1.0, 2.0], SubproblemStatus.INTERIOR, False),    # lambda > 0
    ([1.0, 0.0], SubproblemStatus.INTERIOR, False),    # lambda = 0
    ([1.0, -1.0], SubproblemStatus.HARD_CASE, True),   # lambda < 0
    ([0.0, 0.0], SubproblemStatus.INTERIOR, False),    # b = 0: any margin gives s = 0
])
def test_root_finder_zero_gradient_outcomes(b, status, decrease, xi):
    # a zero step is never classed BOUNDARY, even where its cube is within
    # an absolute 1e-12 of a tiny xi
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


@pytest.mark.parametrize("xi", [1.0, 1e-13])
def test_root_finder_steps_against_the_gradient_to_the_radius_when_b_is_zero(xi):
    # with b = 0 the margin ||g|| / r below lam = 0 is the solution's own nu
    g = np.array([3.0, -4.0])
    sol = root_finder(np.zeros(2), g, xi)
    r = xi ** (1.0 / 3.0)
    assert sol.status is SubproblemStatus.BOUNDARY and sol.newton_iters == 0
    np.testing.assert_allclose(sol.s, -r * g / 5.0, rtol=1e-14, atol=0.0)
    assert sol.nu == pytest.approx(10.0 / r ** 2, rel=1e-14)


def test_solver_constants():
    assert (KAPPA_EASY, KKT_TOL, MAX_NEWTON_ITERS) == (0.01, 1e-8, 100)


def imported_names(module) -> list:
    """Every dotted name an import statement of ``module`` mentions."""
    names = []
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            names += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    return names


def test_solver_does_not_import_the_config():
    # the solver's tolerances live in its module and the xi floor in the
    # trust-region rule; neither layer reads the other's
    names = imported_names(subproblem)
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
    assert sol.status is SubproblemStatus.BOUNDARY
    assert kkt_residual(b, g, sol, xi).ok


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


@pytest.mark.parametrize("b, g", [
    ([2.0], np.ones(3)),            # used to broadcast to s = -0.5 * ones(3)
    (2.0, np.ones(3)),              # a 0-d b broadcast the same way
    (np.ones(3), [1.0]),            # used to fail inside numpy's matmul
    (np.ones((2, 2)), np.ones((2, 2))),
    ([[1.0, 2.0]], [[1.0, 1.0]]),
])
def test_root_finder_rejects_b_and_g_that_are_not_1d_of_one_length(b, g, monkeypatch):
    monkeypatch.setattr(subproblem, "_solve", None)  # no solve may start
    with pytest.raises(ValueError, match="1-D arrays of one length"):
        root_finder(b, g, 1.0)


@pytest.mark.parametrize("xi", [1e-13, 1e-20, 1e-25])
def test_an_interior_step_at_a_tiny_xi_is_interior(xi):
    # ||s|| = 1.1e-9 against r >= 4.6e-9: the early exit's tolerance on
    # ||s||^3 - xi is relative, so it cannot call this step BOUNDARY
    b, g = np.array([1.0, 2.0]), np.array([1e-9, 1e-9])
    sol = root_finder(b, g, xi)
    assert sol.status is SubproblemStatus.INTERIOR
    assert sol.nu == 0.0
    np.testing.assert_array_equal(sol.s, -g / b)
    assert np.linalg.norm(sol.s) ** 3 < xi


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
        tol = 2.0 * xi ** (1.0 / 3.0) / BRUTE_FORCE_RESOLUTION
        np.testing.assert_allclose(sol.s, ref, atol=tol)


# ---------------------------------------------------------------------------
# the step norm, taken once by the solver
# ---------------------------------------------------------------------------

def _is_the_norm_of_s(sol):
    # bit for bit sqrt(s.dot(s)), as np.linalg.norm computes ||s||
    return sol.step_norm.hex() == math.sqrt(sol.s.dot(sol.s)).hex()


@pytest.mark.parametrize("b, g, xi, status", [
    ([1.0, 2.0], [-1.0, -2.0], 1000.0, SubproblemStatus.INTERIOR),
    ([-1.0, 2.0], [0.0, 1.0], 0.5, SubproblemStatus.HARD_CASE),
    ([0.0, 0.0], [0.0, 0.0], 1.0, SubproblemStatus.INTERIOR),   # b = g = 0: s = 0
    ([0.0, 0.0], [3.0, -4.0], 1.0, SubproblemStatus.BOUNDARY),  # on it before any pass
])
def test_the_step_norm_is_the_norm_of_s_at_each_exit_before_the_loop(b, g, xi, status):
    sol = root_finder(np.array(b), np.array(g), xi)
    assert sol.status is status and sol.newton_iters == 0
    assert _is_the_norm_of_s(sol)


def test_the_step_norm_is_the_norm_of_s_on_every_kkt_instance(kkt_solved):
    solutions = [sol for *_, sol in kkt_solved[0]]
    assert {(sol.status, sol.newton_iters > 0) for sol in solutions} == {
        (SubproblemStatus.INTERIOR, False), (SubproblemStatus.BOUNDARY, True)}
    bad = [i for i, sol in enumerate(solutions) if not _is_the_norm_of_s(sol)]
    assert not bad, f"{len(bad)} instances, first: {bad[:10]}"


# ---------------------------------------------------------------------------
# the stall path and the Newton budget
# ---------------------------------------------------------------------------

def test_stall_raises_with_the_last_finite_iterate_after_the_budget(kkt_solved, monkeypatch):
    # a budget of 3 passes, below what this instance needs: the stall path
    # without an instance that stalls at the real budget
    b, g, xi, sol = next(item for item in kkt_solved[0] if item[3].newton_iters > 3)
    monkeypatch.setattr(subproblem, "MAX_NEWTON_ITERS", 3)
    with pytest.raises(SolverStallError) as info:
        root_finder(b, g, xi)
    best = info.value.best
    assert best.newton_iters == 3
    assert best.status is SubproblemStatus.BOUNDARY
    assert np.all(np.isfinite(best.s)) and np.isfinite(best.nu)
    assert _is_the_norm_of_s(best)
    # a budget of exactly the passes a solve needs returns the same solution
    monkeypatch.setattr(subproblem, "MAX_NEWTON_ITERS", sol.newton_iters)
    exact = root_finder(b, g, xi)
    assert exact.nu == sol.nu and np.array_equal(exact.s, sol.s)


@pytest.mark.parametrize("k", [-40, -20, 20, 40])
def test_scaling_b_and_g_by_a_power_of_two_changes_no_solution(kkt_solved, k):
    # c b and c g scale the model's quadratic part by c = 2**k exactly, so a
    # scale-free solver returns the same step and status bit for bit, and c nu
    c = 2.0 ** k
    changed = []
    for i, (b, g, xi, sol) in enumerate(kkt_solved[0]):
        scaled = root_finder(c * b, c * g, xi)
        if (scaled.s.tobytes() != sol.s.tobytes() or scaled.status is not sol.status
                or scaled.nu != c * sol.nu):
            changed.append(i)
    assert not changed, f"{len(changed)} instances changed, first: {changed[:10]}"


def test_an_unscaled_near_minimizer_instance_solves_within_criterion_1s_bounds():
    # the S = 1 estimate and gradient at which Rosenbrock d = 2 from
    # (-1.2, 1), seed 0, stalled under an absolute stop test once ||g|| was
    # about 5e-8: nu sits just above the hard case, where one ulp of nu
    # moves ||s|| by more than KKT_TOL * (1 + ||g||) allows
    b = np.array([401.99990832225524, -199.9999694067577])
    g = np.array([-5.0988770567097366e-08, -5.098872435382873e-08])
    xi = 1e-6
    sol = root_finder(b, g, xi)
    assert kkt_residual(b, g, sol, xi).ok
