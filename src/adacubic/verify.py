"""Self-contained property suites behind the ``verify`` CLI command.

Each suite returns (name, passed, detail).  The random instances are
seeded, so the printed report is byte-identical across invocations.
"""

from __future__ import annotations

import numpy as np

from .problems import BRUTE_FORCE_RESOLUTION, brute_force_subproblem_min
from .subproblem import KAPPA_EASY, dphi_dnu, kkt_residual, phi, root_finder


def random_instance(rng: np.random.Generator, max_dim: int = 10):
    d = int(rng.integers(1, max_dim + 1))
    b = rng.uniform(-2.0, 2.0, size=d)
    g = rng.uniform(-1.0, 1.0, size=d)
    xi = float(10.0 ** rng.uniform(-4, 1))
    return b, g, xi


def cubic_model(b: np.ndarray, g: np.ndarray, nu: float, s: np.ndarray):
    """g^T s + 1/2 s^T Diag(b) s + (nu/6)||s||^3 at s, or at each row of a
    (points x d) array s."""
    return (s @ g + 0.5 * np.sum(s * (b * s), axis=-1)
            + nu / 6.0 * np.linalg.norm(s, axis=-1) ** 3)


def _model_term_sizes(b: np.ndarray, g: np.ndarray, nu: float, s: np.ndarray):
    """Summed magnitudes of the products that :func:`cubic_model` adds up,
    at s or at each row of s: the scale of its round-off."""
    a = np.abs(s)
    return (a @ np.abs(g) + 0.5 * np.sum(a * (np.abs(b) * a), axis=-1)
            + abs(nu) / 6.0 * np.linalg.norm(s, axis=-1) ** 3)


def probe_gap(b: np.ndarray, g: np.ndarray, nu: float, s: np.ndarray,
              points: np.ndarray) -> tuple[float, bool]:
    """Smallest rise m(p) - m(s) of the cubic model over the rows p of
    ``points``, and whether no row falls below m(s) by more than round-off:
    16 ulps of the summed term sizes of m(p) and m(s).  Near s the true rise
    is second order, so at a probe 1e-8 away it is smaller than the error
    of evaluating either value."""
    gaps = cubic_model(b, g, nu, points) - cubic_model(b, g, nu, s)
    below = gaps < 0.0  # only these rows can fail
    slack = 16.0 * np.finfo(float).eps * (_model_term_sizes(b, g, nu, points[below])
                                          + _model_term_sizes(b, g, nu, s))
    return float(np.min(gaps)), bool(np.all(gaps[below] >= -slack))


def kkt_suite(n: int = 500, seed: int = 12345) -> tuple:
    """Stationarity, shifted curvature, slackness, model decrease, and the
    Newton iteration budget, over random subproblem instances."""
    rng = np.random.default_rng(seed)
    worst = {"stationarity": 0.0, "min_shift": 0.0, "slack": 0.0,
             "model": -np.inf, "band_iters": 0}
    ok = True
    for _ in range(n):
        b, g, xi = random_instance(rng)
        sol = root_finder(b, g, xi)
        res = kkt_residual(b, g, sol, xi)
        gn = float(np.linalg.norm(g))
        ns = float(np.linalg.norm(sol.s))
        model = float(g @ sol.s + 0.5 * sol.s @ (b * sol.s) + sol.nu / 6.0 * ns ** 3)
        stat_rel = res.stationarity / (1e-6 * (1.0 + gn))
        slack_band = 4.0 * KAPPA_EASY * xi * sol.nu
        # model value must sit below -(nu/12)||s||^3; excess must be <= 1e-10
        excess = model + sol.nu / 12.0 * ns ** 3
        worst["stationarity"] = max(worst["stationarity"], stat_rel)
        worst["min_shift"] = min(worst.get("min_shift", 0.0), res.min_shifted_curvature)
        worst["model"] = max(worst["model"], excess)
        worst["band_iters"] = max(worst["band_iters"], sol.newton_iters_to_band)
        slack_ok = abs(res.slackness) <= slack_band or sol.nu == 0.0
        if not (stat_rel <= 1.0 and res.min_shifted_curvature >= -1e-10
                and slack_ok and excess <= 1e-10 and sol.newton_iters_to_band <= 25):
            ok = False
    detail = (f"n={n} max stationarity/tol={worst['stationarity']:.3e} "
              f"min shifted curvature={worst['min_shift']:.3e} "
              f"max decrease-margin excess={worst['model']:.3e} "
              f"max iters-to-band={worst['band_iters']}")
    return "kkt", ok, detail


def duality_suite(n: int = 100, seed: int = 777) -> tuple:
    """Agreement with the brute-force constrained minimizer, and global
    optimality of the step for the unconstrained cubic model at M = nu*."""
    probes = 10000
    rng = np.random.default_rng(seed)
    ok = True
    worst_coord = 0.0
    worst_probe = -np.inf
    for _ in range(n):
        b, g, xi = random_instance(rng, max_dim=3)
        r = xi ** (1.0 / 3.0)
        sol = root_finder(b, g, xi)
        ref = brute_force_subproblem_min(b, g, xi)
        coord_err = float(np.max(np.abs(sol.s - ref))) / (2.0 * r / BRUTE_FORCE_RESOLUTION)
        worst_coord = max(worst_coord, coord_err)

        deltas = rng.standard_normal((probes, b.size))
        deltas *= (0.5 * rng.random(probes) ** (1.0 / b.size)
                   / np.linalg.norm(deltas, axis=1))[:, None]
        gap, above = probe_gap(b, g, sol.nu, sol.s, sol.s + deltas)
        worst_probe = max(worst_probe, -gap)
        if coord_err > 1.0 or not above:
            ok = False
    detail = (f"n={n} max coord err/grid-tol={worst_coord:.3f} "
              f"worst probe violation={worst_probe:.3e}")
    return "duality", ok, detail


def newton_step_stays_below(b: np.ndarray, g: np.ndarray, nu: float,
                            nu_next: float, r: float, xi: float) -> bool:
    """Whether a Newton step from phi(nu) < 0 increases nu without crossing
    the root: phi(nu_next) < 1e-12, plus eps*|nu_next|*phi'(nu_next), the
    change in phi across one ulp of nu_next that round-off alone can cause."""
    if not nu_next > nu:
        return False
    ulp_nu = np.finfo(float).eps * abs(nu_next)
    return phi(b, g, nu_next, r, xi) < 1e-12 + ulp_nu * dphi_dnu(b, g, nu_next, r)


def phi_calculus_suite(n: int = 200, seed: int = 4242) -> tuple:
    """Derivative closed form vs finite differences; monotone concave phi;
    Newton iterates stay on the phi < 0 side and increase."""
    rng = np.random.default_rng(seed)
    ok = True
    worst_fd = 0.0
    for _ in range(n):
        d = int(rng.integers(1, 11))
        b = rng.uniform(-2.0, 2.0, size=d)
        g = rng.uniform(-1.0, 1.0, size=d)
        while np.linalg.norm(g) < 1e-3:
            g = rng.uniform(-1.0, 1.0, size=d)
        r = float(rng.uniform(0.2, 2.0))
        xi = r ** 3
        nu_min = max(0.0, -2.0 * b.min() / r)
        nu = nu_min + float(rng.uniform(0.1, 3.0))

        deriv = dphi_dnu(b, g, nu, r)
        h = 1e-6 * (1.0 + nu)
        if nu - h <= nu_min:
            h = 0.5 * (nu - nu_min)
        fd = (phi(b, g, nu + h, r, xi) - phi(b, g, nu - h, r, xi)) / (2.0 * h)
        err = abs(deriv - fd)
        rel = err / max(1e-6, 1e-4 * abs(deriv))
        worst_fd = max(worst_fd, rel)
        if rel > 1.0 or deriv <= 0.0:
            ok = False

        # 50-point nu grid: strictly increasing, concave
        nus = np.linspace(nu_min + 1e-3, nu_min + 5.0, 50)
        vals = np.array([phi(b, g, t, r, xi) for t in nus])
        if not np.all(np.diff(vals) > 0.0):
            ok = False
        second = np.diff(vals, 2)
        if not np.all(second <= 1e-8):
            ok = False

        # Newton monotonicity from the phi < 0 side
        nu_it = nu_min + 1e-6 * (1.0 + abs(nu_min))
        if phi(b, g, nu_it, r, xi) < 0.0:
            for _ in range(50):
                p = phi(b, g, nu_it, r, xi)
                if abs(p) < 1e-12:
                    break
                nxt = nu_it - p / dphi_dnu(b, g, nu_it, r)
                if p < 0.0 and not newton_step_stays_below(b, g, nu_it, nxt, r, xi):
                    ok = False
                    break
                nu_it = nxt
    return "phi-calculus", ok, f"n={n} max fd err/tol={worst_fd:.3f}"


def hutchinson_suite(trials: int = 1000, seed: int = 99) -> tuple:
    """Exactness on diagonal curvature, exhaustive unbiasedness, and variance
    reduction in the sample count."""
    from .hutchinson import exhaustive_diag, hutchinson_diag
    rng = np.random.default_rng(seed)
    ok = True

    diag = np.array([3.0, -1.0, 5.0])
    est = hutchinson_diag(lambda v: diag * v, 3, 1, rng)
    exact_err = float(np.max(np.abs(est - diag)))
    if exact_err > 1e-12:
        ok = False

    enum_err = 0.0
    for d in (2, 3, 4):
        A = rng.standard_normal((d, d))
        H = 0.5 * (A + A.T)
        err = float(np.max(np.abs(exhaustive_diag(lambda v: H @ v, d) - np.diag(H))))
        enum_err = max(enum_err, err)
    if enum_err > 1e-12:
        ok = False

    d = 6
    A = np.random.default_rng(7).standard_normal((d, d))
    H = 0.5 * (A + A.T)
    medians = []
    for S in (1, 4, 16):
        devs = np.empty(trials)
        for t in range(trials):
            est = hutchinson_diag(lambda v: H @ v, d, S, rng)
            devs[t] = np.max(np.abs(est - np.diag(H)))
        medians.append(float(np.median(devs)))
    if not (medians[0] > medians[1] > medians[2]):
        ok = False
    detail = (f"diag err={exact_err:.1e} enum err={enum_err:.1e} "
              f"median devs S=1,4,16: {medians[0]:.4f}, {medians[1]:.4f}, "
              f"{medians[2]:.4f}")
    return "hutchinson", ok, detail


def all_suites() -> list:
    return [kkt_suite(), duality_suite(), phi_calculus_suite(), hutchinson_suite()]


def report(results: list | None = None) -> tuple[str, bool]:
    results = results if results is not None else all_suites()
    lines = []
    all_ok = True
    for name, ok, detail in results:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        all_ok = all_ok and ok
    lines.append("verify: " + ("all suites passed" if all_ok else "FAILURES detected"))
    return "\n".join(lines) + "\n", all_ok
