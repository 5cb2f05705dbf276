"""Acceptance suite: nine criteria, one test and one printed PASS/FAIL line
each, at fixed tolerances.  Criterion 6b takes default AdaCubic on
Rosenbrock d=2 from (-1.2, 1) to ||g|| <= 1e-6 and to within 1e-4 of (1, 1);
its iteration budget follows from the rate a diagonal curvature model
admits on that objective, derived in the comment at the test.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import adacubic
from adacubic import (AdaCubicConfig, SubproblemStatus, kkt_residual,
                      make_quadratic, make_rosenbrock, make_saddle,
                      make_synthetic_logistic, run, run_baseline, verify)
from adacubic.harness import parse_config_text, run_experiment
from adacubic.subproblem import KAPPA_EASY

CFG = AdaCubicConfig()


def _report(criterion: str, ok: bool, detail: str):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def suites():
    """The ``verify.all_suites()`` results, run once for criteria 2, 3, 4
    and 8, and the seconds each suite took, by name."""
    results, seconds = [], {}
    for suite in (verify.kkt_suite, verify.duality_suite,
                  verify.phi_calculus_suite, verify.hutchinson_suite):
        start = time.perf_counter()
        results.append(suite())
        seconds[results[-1][0]] = time.perf_counter() - start
    return results, seconds


def _suite(suites, name):
    return next(result for result in suites[0] if result[0] == name)


def test_criterion_1_kkt_suite(kkt_solved):
    solved, solve_s = kkt_solved
    start = time.perf_counter()
    worst_stat, worst_shift, ok = 0.0, 0.0, True
    for b, g, xi, sol in solved:
        res = kkt_residual(b, g, sol, xi)
        gn = float(np.linalg.norm(g))
        worst_stat = max(worst_stat, res.stationarity / (1e-6 * (1.0 + gn)))
        worst_shift = min(worst_shift, res.min_shifted_curvature)
        slack_ok = sol.nu == 0.0 or \
            abs(res.slackness) <= 4.0 * KAPPA_EASY * xi * sol.nu
        # a boundary or hard-case step lies in the KAPPA_EASY band of the radius
        r = xi ** (1.0 / 3.0)
        band_ok = sol.status is SubproblemStatus.INTERIOR or \
            abs(np.linalg.norm(sol.s) - r) <= KAPPA_EASY * r
        if not (sol.nu >= 0.0 and res.stationarity <= 1e-6 * (1.0 + gn)
                and res.min_shifted_curvature >= -1e-10 and slack_ok and band_ok):
            ok = False
    elapsed = solve_s + time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report("1", ok, f"500 instances, worst stationarity {worst_stat:.3e} of "
            f"bound, min shifted curvature {worst_shift:.1e}, {elapsed:.2f}s")


def test_criterion_2_duality_suite(suites):
    name, ok, detail = _suite(suites, "duality")
    elapsed = suites[1][name]
    ok = ok and elapsed < 30.0
    _report("2", ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_3_phi_calculus_and_newton_budget(suites, kkt_solved):
    name, ok, detail = _suite(suites, "phi-calculus")
    worst_band = max(sol.newton_iters_to_band for *_, sol in kkt_solved[0])
    ok = ok and worst_band <= 25
    _report("3", ok, f"{detail}; max Newton iterations to the kappa_easy "
            f"band over 500 instances: {worst_band} (<= 25)")


def test_criterion_4_hutchinson_suite(suites):
    name, ok, detail = _suite(suites, "hutchinson")
    _report("4", ok, detail)


def test_criterion_5_model_decrease(kkt_solved):
    worst = -np.inf
    for b, g, xi, sol in kkt_solved[0]:
        ns = float(np.linalg.norm(sol.s))
        model = float(g @ sol.s + 0.5 * sol.s @ (b * sol.s)
                      + sol.nu / 6.0 * ns ** 3)
        worst = max(worst, model + sol.nu / 12.0 * ns ** 3)
    _report("5", worst <= 1e-10,
            f"max model-value excess over -(nu/12)||s||^3: {worst:.3e}")


def test_criterion_6a_quadratic():
    obj = make_quadratic(np.arange(1.0, 11.0), np.zeros(10))
    start = time.perf_counter()
    traj = run(obj, np.ones(10), CFG, 5, stop_grad_norm=1e-10)
    elapsed = time.perf_counter() - start
    gn = float(np.linalg.norm(obj.grad(traj.final_x)))
    ok = gn <= 1e-10 and len(traj.records) <= 5 and elapsed < 10.0
    _report("6a", ok, f"quadratic d=10: ||g||={gn:.2e} after "
            f"{len(traj.records)} iterations, {elapsed:.2f}s")


# Budget for criterion 6b.  At (1, 1) the Hessian is [[802, -400], [-400, 200]],
# so no fixed positive diagonal curvature contracts the error by more than
# 0.99875 per step (about 1 844 iterations per decade of ||g||).  With the
# default single Rademacher probe the 2-D Hutchinson estimate is either
# (1202, 600), contracting by 0.99945 per step (about 4 150 iterations per
# decade), or the indefinite (402, -200), whose step sits on the eps_m^(1/3)
# = 0.01 radius and is rejected.  Half the draws are wasted, so the method's
# own rate is about 8 300 iterations per decade.  Reaching ||g|| = 1e-1 takes
# about 3 100 iterations, then five decades to 1e-6: 3 100 + 5 * 8 300, about
# 44 600, rounded up to 50 000.  Seed 0 stops after 43 474 iterations.
ROSENBROCK_BUDGET = 50_000


def run_criterion_6b():
    """Criterion 6b's run, seed 0: its trajectory and the seconds it took."""
    start = time.perf_counter()
    traj = run(make_rosenbrock(2), np.array([-1.2, 1.0]), CFG, ROSENBROCK_BUDGET,
               stop_grad_norm=1e-6)
    return traj, time.perf_counter() - start


def test_criterion_6b_rosenbrock(criterion_6b):
    obj = make_rosenbrock(2)
    traj, elapsed = criterion_6b
    iters = len(traj.records)
    gn = float(np.linalg.norm(obj.grad(traj.final_x)))
    dist = float(np.max(np.abs(traj.final_x - 1.0)))
    # The time guard is per iteration (20 ms, i.e. 10 s per 500), so it
    # catches a pathological per-iteration cost, not a slow machine.
    ok = gn <= 1e-6 and iters <= ROSENBROCK_BUDGET and dist <= 1e-4 \
        and elapsed <= 0.02 * iters
    _report("6b", ok, f"rosenbrock d=2: ||g||={gn:.2e}, final point within "
            f"{dist:.2e} of (1,1) after {iters} iterations, {elapsed:.2f}s "
            f"({1e3 * elapsed / iters:.3f} ms/iteration)")


def test_criterion_6c_saddle_escape():
    obj = make_saddle()
    start = time.perf_counter()
    traj = run(obj, np.zeros(2), CFG, 100, stop_grad_norm=1e-8)
    elapsed = time.perf_counter() - start
    f = obj.eval(traj.final_x)
    escaped = any(r.subproblem_status.value == "HardCase" for r in traj.records)
    ok = f <= -0.24 and escaped and elapsed < 10.0
    _report("6c", ok, f"saddle: f={f:.4f} (target <= -0.24), hard case "
            f"used: {escaped}, {elapsed:.2f}s")


def test_criterion_6d_logistic():
    obj = make_synthetic_logistic(200, 5, 1e-2, 0)
    start = time.perf_counter()
    traj = run(obj, np.zeros(5), CFG, 300, stop_grad_norm=1e-6)
    elapsed = time.perf_counter() - start
    gn = float(np.linalg.norm(obj.grad(traj.final_x)))
    accepted = [r for r in traj.records if r.accepted]
    losses = [r.loss_before for r in accepted] + [accepted[-1].loss_after]
    decreasing = all(b < a for a, b in zip(losses, losses[1:]))
    ok = gn <= 1e-6 and len(traj.records) <= 300 and decreasing \
        and elapsed < 10.0
    _report("6d", ok, f"logistic n=200 d=5: ||g||={gn:.2e} after "
            f"{len(traj.records)} iterations, accepted losses strictly "
            f"decreasing: {decreasing}, {elapsed:.2f}s")


def test_criterion_7_rate_trend():
    obj = make_synthetic_logistic(200, 5, 1e-2, 0)
    traj = run(obj, np.zeros(5), CFG, 210, stop_grad_norm=0.0)
    gns = np.array([r.grad_norm for r in traj.records])
    min_so_far = np.minimum.accumulate(gns)
    assert np.all(np.diff(min_so_far) <= 0.0)
    ks = np.arange(1, len(gns) + 1)
    mask = (ks >= 10) & (ks <= 200)
    slope = float(np.polyfit(np.log(ks[mask]),
                             np.log(np.maximum(min_so_far[mask], 1e-300)), 1)[0])
    _report("7", slope <= -0.3,
            f"log-log slope of min-so-far ||g|| over iterations 10..200: "
            f"{slope:.2f} (<= -0.3)")


GRID = """
[run]
seeds = 0,1
max_iters = 30
stop_grad_norm = 1e-6

[problem.quad]
kind = quadratic
diag = 1,2,3
g0 = 1,0,-1
x0 = 1,1,1

[problem.log]
kind = logistic
n = 60
dim = 3
l2 = 0.01

[optimizer.ac]
kind = adacubic

[optimizer.sgd01]
kind = sgd
lr = 0.1
"""


def test_criterion_8_determinism(tmp_path, suites):
    cfg = parse_config_text(GRID)
    run_experiment(cfg, str(tmp_path / "a"))
    run_experiment(cfg, str(tmp_path / "b"))
    identical = True
    for name in sorted(os.listdir(tmp_path / "a")):
        with open(tmp_path / "a" / name, "rb") as fa, \
                open(tmp_path / "b" / name, "rb") as fb:
            if fa.read() != fb.read():
                identical = False
    # the child imports the same package, however this process found it
    src = os.path.dirname(os.path.dirname(adacubic.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    # one more execution of every suite, in a fresh interpreter, against the
    # report of this process's run
    out = subprocess.run([sys.executable, "-m", "adacubic.cli", "verify"],
                         capture_output=True, env=env).stdout
    verify_identical = out == verify.report(suites[0])[0].encode() \
        and b"all suites passed" in out
    _report("8", identical and verify_identical,
            f"CSV grids byte-identical: {identical}, verify reports "
            f"byte-identical: {verify_identical}")


def test_criterion_9_baseline_sanity():
    scipy_opt = pytest.importorskip("scipy.optimize")
    obj = make_synthetic_logistic(200, 5, 1e-2, 0)
    res = scipy_opt.minimize(lambda w: obj.eval(w), np.zeros(5),
                             jac=lambda w: obj.grad(w), method="L-BFGS-B",
                             tol=1e-14)
    f_star = float(res.fun)

    def iters_to_gap(records):
        for i, rec in enumerate(records):
            if rec.accepted and rec.loss_after - f_star <= 1e-4:
                return i + 1
        return None

    ours = run(obj, np.zeros(5), CFG, 2000, stop_grad_norm=0.0)
    sgd = run_baseline(obj, np.zeros(5), "sgd", 0.1, 20000, stop_grad_norm=0.0)
    n_ours = iters_to_gap(ours.records)
    n_sgd = iters_to_gap(sgd.records)
    ok = n_ours is not None and n_sgd is not None and n_ours <= n_sgd
    _report("9", ok, f"iterations to loss gap 1e-4: adacubic {n_ours}, "
            f"sgd(lr=0.1) {n_sgd}")
