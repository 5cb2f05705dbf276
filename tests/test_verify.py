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
    def shrunk(b, g, xi, cfg):
        sol = root_finder(b, g, xi, cfg)
        if sol.status.value == "Boundary":
            sol = dataclasses.replace(sol, s=0.9 * sol.s)
        return sol

    assert verify.duality_suite(n=10)[1]
    monkeypatch.setattr(verify, "root_finder", shrunk)
    name, ok, detail = verify.duality_suite(n=10)
    assert not ok, detail


def test_duality_probe_check_alone_catches_a_step_off_the_minimizer(monkeypatch):
    last = {}

    def moved(b, g, xi, cfg):
        sol = root_finder(b, g, xi, cfg)
        last["s"] = sol.s + 0.1
        return dataclasses.replace(sol, s=last["s"])

    # the grid reference agrees with the moved step, so only the probes
    # over the cubic model can flag it
    monkeypatch.setattr(verify, "root_finder", moved)
    monkeypatch.setattr(verify, "brute_force_subproblem_min", lambda *args: last["s"])
    name, ok, detail = verify.duality_suite(n=5)
    assert not ok, detail
    assert "max coord err/grid-tol=0.000" in detail
