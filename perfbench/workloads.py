"""The benchmark's four workloads.

A workload drives the package as its users do: a config text parsed by
``harness.parse_config_text`` and run by ``harness.run_experiment``, as
``adacubic run`` does, or the suites that ``adacubic verify`` runs and
``verify.report``.  One round runs the workload once, times it, and
checks every output; the rounds of one process are identical.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import adacubic
import checks
import spans
from adacubic import AdaCubicConfig, harness, verify

# Kept before any tracing is installed: the checks build their own
# objective with it, so check work is never counted as the program's.
build_problem = harness.build_problem


@dataclass
class Op:
    """One (problem, optimizer, seed) run, or one verify suite."""
    name: str
    errors: list = field(default_factory=list)   # the output is wrong
    known: list = field(default_factory=list)    # failures of the known fault

    @property
    def failed(self) -> bool:
        return bool(self.errors or self.known)


@dataclass
class Round:
    solve_s: float
    iters: int
    ops: list
    accepted: int = 0         # AdaCubic's accepted steps
    adacubic_iters: int = 0   # AdaCubic's iterations
    csv_bytes: int = 0
    csv_rows: int = 0


@contextlib.contextmanager
def captured_runs():
    """Pass-through wrapper on ``harness.run_one`` that keeps each run's
    ``Trajectory`` (its records and final iterate)."""
    runs = []
    original = harness.run_one

    def run_one(problem_params, optimizer_params, seed, cfg):
        traj = original(problem_params, optimizer_params, seed, cfg)
        runs.append((id(problem_params), id(optimizer_params), seed, traj))
        return traj

    with spans.patched([(harness, "run_one", run_one)]):
        yield runs


class Grid:
    """A config workload: one problem, one or more optimizers and seeds."""

    problem = ""      # the [problem.*] section body
    optimizers = {}   # optimizer section name -> section body
    batch_size = "full"
    stop_grad_norm = 1e-6

    def __init__(self, budget: int, seeds: list):
        self.budget = budget
        self.seeds = seeds
        self.text = self.config_text()
        self._obj = None
        self._reps = None

    def config_text(self) -> str:
        lines = ["[run]", "seeds = " + ",".join(map(str, self.seeds)),
                 f"max_iters = {self.budget}", f"batch_size = {self.batch_size}",
                 f"stop_grad_norm = {self.stop_grad_norm!r}", "",
                 f"[problem.{self.name}]", self.problem]
        for name, body in self.optimizers.items():
            lines += ["", f"[optimizer.{name}]", body]
        return "\n".join(lines) + "\n"

    def setup_sample(self) -> float:
        """Seconds per config parse, from calls repeated until they last
        50 ms, so that a parse of a few tens of microseconds still gives a
        figure that repeats."""
        if self._reps is None:
            t0 = perf_counter()
            harness.parse_config_text(self.text)
            self._reps = max(1, math.ceil(0.05 / (perf_counter() - t0)))
        t0 = perf_counter()
        for _ in range(self._reps):
            harness.parse_config_text(self.text)
        return (perf_counter() - t0) / self._reps

    def objective(self, params):
        if self._obj is None:
            self._obj = build_problem(params)[0]
        return self._obj

    def round(self, out_dir: str) -> Round:
        shutil.rmtree(out_dir, ignore_errors=True)
        with captured_runs() as runs:
            cfg = harness.parse_config_text(self.text)
            t0 = perf_counter()
            paths, summary = harness.run_experiment(cfg, out_dir)
            solve_s = perf_counter() - t0
        return self.check_round(cfg, runs, paths, summary, solve_s)

    def check_round(self, cfg, runs, paths, summary, solve_s) -> Round:
        trajs = {run[:3]: run[3] for run in runs}
        ops, cells = [], {}
        result = Round(solve_s, 0, ops)
        it = iter(paths)
        for pname, pparams in cfg.problems.items():
            for oname, oparams in cfg.optimizers.items():
                cells[(pname, oname)] = []
                for seed in cfg.seeds:
                    path = next(it)
                    cells[(pname, oname)].append(path)
                    op = Op(f"{pname}/{oname}/seed{seed}")
                    ops.append(op)
                    traj = trajs.get((id(pparams), id(oparams), seed))
                    if traj is None:
                        op.errors.append("the run raised; its CSV is empty")
                        continue
                    op.errors += self.check_csv(path, traj.records)
                    self.check_run(op, self.objective(pparams), oparams["kind"],
                                   traj, seed)
                    result.iters += len(traj.records)
                    if oparams["kind"] == "adacubic":
                        result.adacubic_iters += len(traj.records)
                        result.accepted += sum(r.accepted for r in traj.records)
                    result.csv_rows += len(traj.records)
        wrong = checks.summary_csv(summary, cells, cfg.max_iters)
        for op in ops:
            op.errors += wrong
        result.csv_rows += len(cells)
        result.csv_bytes = sum(os.path.getsize(p) for p in [*paths, summary])
        return result

    def check_csv(self, path, records) -> list:
        return checks.trajectory_csv(path, records, rows=self.budget)

    def check_run(self, op: Op, obj, kind: str, traj, seed: int) -> None:
        raise NotImplementedError


class LogisticGrid(Grid):
    """AdaCubic against SGD and Adam on minibatch logistic regression."""

    name = "logistic"
    optimizers = {"adacubic": "kind = adacubic",
                  "sgd": "kind = sgd\nlr = 0.1",
                  "adam": "kind = adam\nlr = 0.01"}
    # AdaCubic's final full-batch loss must be within this of f*.  SGD and
    # Adam reach about 0.06 and 0.015 in the default 100 iterations.
    gap = 0.1

    def __init__(self, seed: int, n: int = 20000, dim: int = 200, batch: int = 256,
                 budget: int = 100, runs: int = 3):
        self.problem = (f"kind = logistic\nn = {n}\ndim = {dim}\nl2 = 0.001\n"
                        f"data_seed = {seed}")
        self.batch_size = batch
        self._fstar = None
        super().__init__(budget, [seed + k for k in range(runs)])

    def fstar(self, obj) -> float:
        """Minimum of the full-batch loss by scipy's L-BFGS, None without scipy."""
        if self._fstar is None:
            try:
                from scipy.optimize import minimize
            except ImportError:
                return None
            res = minimize(obj.eval, np.zeros(obj.dim), jac=obj.grad, method="L-BFGS-B",
                           options={"gtol": 1e-10, "ftol": 1e-15, "maxiter": 1000})
            self._fstar = float(res.fun)
        return self._fstar

    def check_run(self, op, obj, kind, traj, seed):
        x = traj.final_x
        rng = np.random.default_rng(seed)
        op.errors += checks.grad_matches_fd(obj, x, rng)
        op.errors += checks.hvp_matches_fd(obj, x, rng)
        f0 = obj.eval(np.zeros(obj.dim))
        if not abs(f0 - math.log(2.0)) <= 1e-12:
            op.errors.append(f"f(0) = {f0!r}, not log 2")
        # AdaCubic misses both marks on every seed tried: see the README
        quality = op.known if kind == "adacubic" else op.errors
        f = obj.eval(x)
        if not f < math.log(2.0):
            quality.append(f"{kind}: final loss {f:.6g} is not below f(0) = log 2")
        fstar = self.fstar(obj) if kind == "adacubic" else None
        if fstar is not None and not f - fstar <= self.gap:
            quality.append(f"{kind}: final loss {f:.6g} is {f - fstar:.3g} above "
                           f"f* = {fstar:.6g}, more than {self.gap}")


class Rosenbrock1000(Grid):
    """Full-batch AdaCubic on chained Rosenbrock, where the HVP dominates."""

    name = "rosenbrock"
    optimizers = {"adacubic": "kind = adacubic"}

    def __init__(self, seed: int, dim: int = 1000, budget: int = 300):
        self.problem = f"kind = rosenbrock\ndim = {dim}"
        super().__init__(budget, [seed])

    def check_run(self, op, obj, kind, traj, seed):
        op.errors += checks.accepted_steps_descend(traj.records, AdaCubicConfig().eps_m)
        op.errors += checks.hvp_matches_tridiagonal(obj, traj.final_x,
                                                    np.random.default_rng(seed))


class RosenbrockToTol(Grid):
    """Criterion 6b through the harness: Rosenbrock d = 2 to a gradient tolerance."""

    name = "rosenbrock2"
    optimizers = {"adacubic": "kind = adacubic"}
    problem = "kind = rosenbrock\ndim = 2\nx0 = -1.2,1"

    def __init__(self, seed: int, grad_tol: float = 1e-6, x_tol: float = 1e-4,
                 budget: int = 50000):
        self.stop_grad_norm = grad_tol
        self.x_tol = x_tol
        super().__init__(budget, [seed])

    def check_csv(self, path, records):
        return checks.trajectory_csv(path, records, below=self.budget)

    def check_run(self, op, obj, kind, traj, seed):
        op.errors += checks.accepted_steps_descend(traj.records, AdaCubicConfig().eps_m)
        op.errors += checks.at_minimizer(traj.final_x, self.stop_grad_norm, self.x_tol)


IMPORT_TIME = ("import time, numpy\n"
               "t = time.perf_counter()\n"
               "import adacubic\n"
               "print(time.perf_counter() - t)\n")


class VerifySuites:
    """The four suites of ``adacubic verify`` at their default sizes.

    The kkt and Hutchinson suites are seeded from the workload seed.  The
    duality and phi-calculus suites keep their own seeds: on some seeds
    the phi-calculus Newton check fails by round-off, and the duality
    suite's grid check comes within 0.7 of its tolerance (see the README).
    """

    name = "verify"
    suites = ("kkt", "duality", "phi-calculus", "hutchinson")
    seeded = ("kkt_suite", "hutchinson_suite")

    def __init__(self, seed: int, sizes: dict | None = None):
        self.seed = seed
        self.sizes = sizes or {}

    def setup_sample(self) -> float:
        """What ``adacubic verify`` pays before its first check: importing
        the package, numpy already imported, in a fresh interpreter."""
        source = os.path.dirname(os.path.dirname(adacubic.__file__))
        return float(subprocess.run([sys.executable, "-c", IMPORT_TIME],
                                    env=dict(os.environ, PYTHONPATH=source), check=True,
                                    capture_output=True, text=True).stdout)

    def _suite(self, name: str):
        fn = getattr(verify, name)
        kwargs = dict(self.sizes.get(name, {}))
        if name in self.seeded:
            kwargs["seed"] = inspect.signature(fn).parameters["seed"].default + self.seed
        return fn(**kwargs)

    def round(self, out_dir: str) -> Round:
        t0 = perf_counter()
        results = [self._suite(name) for name in (
            "kkt_suite", "duality_suite", "phi_calculus_suite", "hutchinson_suite")]
        text, _ = verify.report(results)
        solve_s = perf_counter() - t0
        failures = checks.verify_report(text, self.suites)
        ops = [Op(name, failures[name]) for name in self.suites]
        instances = sum(int(m) for m in re.findall(
            r"^PASS (?:kkt|duality|phi-calculus): n=(\d+)", text, re.M))
        return Round(solve_s, instances, ops)


def make(name: str, seed: int, tiny: bool = False):
    """The workload called ``name``; ``tiny`` shrinks it for the self-tests."""
    if name == "logistic-grid":
        return (LogisticGrid(seed, n=400, dim=10, batch=32, budget=20) if tiny
                else LogisticGrid(seed))
    if name == "rosenbrock-1000":
        return Rosenbrock1000(seed, dim=20, budget=20) if tiny else Rosenbrock1000(seed)
    if name == "rosenbrock-2-to-tol":
        return (RosenbrockToTol(seed, grad_tol=1e-2, x_tol=0.05) if tiny
                else RosenbrockToTol(seed))
    if name == "verify-suites":
        return VerifySuites(seed, {"kkt_suite": {"n": 20}, "duality_suite": {"n": 2},
                                   "phi_calculus_suite": {"n": 10},
                                   "hutchinson_suite": {"trials": 100}} if tiny else None)
    raise ValueError(f"unknown workload {name!r}")
