"""The verify suites: their checks pass on correct code and fail on a
wrong step."""

import dataclasses

import numpy as np

from adacubic import root_finder, verify
from adacubic.subproblem import dphi_dnu, phi

EPS = np.finfo(float).eps


def test_phi_calculus_passes_at_seed_4410():
    # instance 120 (d = 3, r = 1.248): a correct Newton step goes from
    # phi = -1.69e-10 to phi = +1.14e-12, within one ulp of nu times phi'
    name, ok, detail = verify.phi_calculus_suite(seed=4410)
    assert ok, detail


def _newton_iterates(b, g, r, xi):
    """Newton iterates on phi from just above the pole, while phi < -1e-6."""
    nu_min = max(0.0, -2.0 * b.min() / r)
    nu = nu_min + 1e-6 * (1.0 + nu_min)
    iterates = []
    for _ in range(50):
        p = phi(b, g, nu, r, xi)
        if p >= -1e-6:
            break
        iterates.append(nu)
        nu -= p / dphi_dnu(b, g, nu, r)
    return iterates


def test_newton_check_accepts_newton_steps_and_rejects_an_overshoot():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(40):
        d = int(rng.integers(1, 11))
        b = rng.uniform(-2.0, 2.0, size=d)
        g = rng.uniform(-1.0, 1.0, size=d)
        r = float(rng.uniform(0.2, 2.0))
        iterates = _newton_iterates(b, g, r, r ** 3)
        for nu in iterates:
            step = -phi(b, g, nu, r, r ** 3) / dphi_dnu(b, g, nu, r)
            assert verify.newton_step_stays_below(b, g, nu, nu + step, r, r ** 3)
        if iterates:
            # from the last iterate the step nearly reaches the root, so half
            # a step more lands at phi of about 5e-7, far beyond round-off
            nu = iterates[-1]
            step = -phi(b, g, nu, r, r ** 3) / dphi_dnu(b, g, nu, r)
            assert not verify.newton_step_stays_below(b, g, nu, nu + 1.5 * step,
                                                      r, r ** 3)
            assert not verify.newton_step_stays_below(b, g, nu, nu, r, r ** 3)
            # the allowance stays near 1e-12: crossing by phi = 4e-12 fails
            root = nu
            for _ in range(10):
                root -= phi(b, g, root, r, r ** 3) / dphi_dnu(b, g, root, r)
            past = root + 4e-12 / dphi_dnu(b, g, root, r)
            assert not verify.newton_step_stays_below(b, g, nu, past, r, r ** 3)
            checked += 1
    assert checked >= 10


def test_cubic_model_rows_match_the_scalar_formula():
    rng = np.random.default_rng(8)
    for d in (1, 2, 3):
        b = rng.uniform(-2.0, 2.0, size=d)
        g = rng.uniform(-1.0, 1.0, size=d)
        nu = float(rng.uniform(0.0, 5.0))
        points = rng.uniform(-2.0, 2.0, size=(500, d))
        rows = verify.cubic_model(b, g, nu, points)
        for s, value in zip(points, rows):
            terms = (g @ s, 0.5 * s @ (b * s), nu / 6.0 * np.linalg.norm(s) ** 3)
            scale = sum(abs(t) for t in terms)
            assert abs(value - sum(terms)) <= 16.0 * EPS * scale


def test_duality_suite_catches_a_shrunk_boundary_step(monkeypatch):
    def shrunk(b, g, xi):
        sol = root_finder(b, g, xi)
        if sol.status.value == "Boundary":
            sol = dataclasses.replace(sol, s=0.9 * sol.s)
        return sol

    assert verify.duality_suite(n=10)[1]
    monkeypatch.setattr(verify, "root_finder", shrunk)
    name, ok, detail = verify.duality_suite(n=10)
    assert not ok, detail


def test_duality_probe_check_alone_catches_a_step_off_the_minimizer(monkeypatch):
    last = {}

    def moved(b, g, xi):
        sol = root_finder(b, g, xi)
        last["s"] = sol.s + 0.1
        return dataclasses.replace(sol, s=last["s"])

    # the grid reference agrees with the moved step, so only the probes
    # over the cubic model can flag it
    monkeypatch.setattr(verify, "root_finder", moved)
    monkeypatch.setattr(verify, "brute_force_subproblem_min", lambda *args: last["s"])
    name, ok, detail = verify.duality_suite(n=5)
    assert not ok, detail
    assert "max coord err/grid-tol=0.000" in detail


def _ring_instance(radius):
    """A d = 2 boundary instance from the duality suite's distribution, its
    solution, and 64 probes on a circle of ``radius`` around the step."""
    b = np.array([0.31503401329401015, -1.2110602108165258])
    g = np.array([0.6162735036271363, -0.02230792774148016])
    sol = root_finder(b, g, 8.779639158233728)
    angles = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    ring = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    return b, g, sol, sol.s + ring


def test_probe_check_accepts_round_off_next_to_a_correct_step():
    # at radius 3e-8 the model rises by about 1e-15, as much as the error of
    # evaluating it at |m*| = 1.01, so some computed rises come out negative
    b, g, sol, points = _ring_instance(3e-8)
    gap, above = verify.probe_gap(b, g, sol.nu, sol.s, points)
    rises = verify.cubic_model(b, g, sol.nu, points) - verify.cubic_model(b, g, sol.nu, sol.s)
    assert gap == float(np.min(rises)) < 0.0  # a plain "gap < 0" would fail
    assert above


def test_probe_check_still_catches_a_step_off_the_minimizer_by_1e_6():
    # from a step 1e-6 off the minimizer the model falls by 6e-13 to 8e-13
    # toward the true step, 20 to 25 times the round-off allowance of 3.2e-14
    b, g, sol, _ = _ring_instance(3e-8)
    for direction in np.eye(2):
        off = sol.s + 1e-6 * direction
        gap, above = verify.probe_gap(b, g, sol.nu, off, sol.s[None, :])
        assert gap < -1e-13 and not above
