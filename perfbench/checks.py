"""Correctness checks on what a workload's round produced.

Each check compares the program's output with a computation made here,
apart from the program, or with a property the method must have; none
compares with a stored copy of earlier output.  A check returns a list
of messages, empty when it passes.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# the trajectory and summary columns as the package documents them
TRAJECTORY_HEADER = ["iter", "loss_before", "loss_after", "grad_norm", "rho", "nu",
                     "xi", "step_norm", "status", "subproblem_status", "accepted"]
SUMMARY_HEADER = ["problem", "optimizer", "mean_final_loss", "std_final_loss",
                  "mean_iters_to_threshold", "success_rate"]
FLOAT_FIELDS = ("loss_before", "loss_after", "grad_norm", "rho", "nu", "xi",
                "step_norm")


def read_csv(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def trajectory_csv(path: str, records: list, rows: int | None = None,
                   below: int | None = None) -> list:
    """The CSV has the documented header, ``rows`` rows (or fewer than
    ``below``), and every field equals the in-memory record bit for bit."""
    table = read_csv(path)
    if not table or table[0] != TRAJECTORY_HEADER:
        return [f"{path}: header is not the documented one"]
    body = table[1:]
    errors = []
    if not body:
        errors.append(f"{path}: no rows")
    if rows is not None and len(body) != rows:
        errors.append(f"{path}: {len(body)} rows, budget is {rows}")
    if below is not None and not len(body) < below:
        errors.append(f"{path}: {len(body)} rows, expected fewer than {below}")
    if len(body) != len(records):
        return errors + [f"{path}: {len(body)} rows for {len(records)} records"]
    if not body:
        return errors
    try:
        written = np.array([row[1:8] for row in body], dtype=float)
    except ValueError as exc:
        return errors + [f"{path}: unreadable float field ({exc})"]
    kept = np.array([[getattr(r, f) for f in FLOAT_FIELDS] for r in records],
                    dtype=float)
    bad = np.flatnonzero((written.view(np.uint64) != kept.view(np.uint64)).any(axis=1))
    if bad.size:
        errors.append(f"{path}: row {bad[0]} floats differ from the record")
    for k, (row, r) in enumerate(zip(body, records)):
        if row[0] != str(r.iteration) or row[8:] != [
                r.status.value, r.subproblem_status.value, str(r.accepted)]:
            errors.append(f"{path}: row {k} labels differ from the record")
            break
    return errors


def _same(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=1e-12,
                                                             abs_tol=1e-300)


def summary_csv(path: str, cells: dict, max_iters: int) -> list:
    """``summary.csv`` equals a recomputation from the trajectory CSVs.

    ``cells`` maps (problem, optimizer) to that cell's CSV paths, one per
    seed.  A run succeeded when it stopped before the budget; its final
    loss is the last row's post-step loss if accepted, else pre-step.
    """
    table = read_csv(path)
    if not table or table[0] != SUMMARY_HEADER:
        return [f"{path}: header is not the documented one"]
    got = {(row[0], row[1]): [float(v) for v in row[2:]] for row in table[1:]}
    errors = []
    if len(table) - 1 != len(cells) or set(got) != set(cells):
        errors.append(f"{path}: cells {sorted(got)} != {sorted(cells)}")
    for key, paths in cells.items():
        finals, lengths = [], []
        for p in paths:
            body = read_csv(p)[1:]
            lengths.append(len(body))
            last = body[-1] if body else None
            finals.append(math.nan if last is None else
                          float(last[2] if last[10] == "True" else last[1]))
        ok = [n for n in lengths if 0 < n < max_iters]
        want = [float(np.mean(finals)), float(np.std(finals)),
                float(np.mean(ok)) if ok else math.nan, len(ok) / len(lengths)]
        have = got.get(key)
        if have is None or not all(_same(a, b) for a, b in zip(have, want)):
            errors.append(f"{path}: row {key} is {have}, recomputed {want}")
    return errors


def grad_matches_fd(obj, x: np.ndarray, rng: np.random.Generator,
                    directions: int = 3, h: float = 1e-4) -> list:
    """grad . v agrees with central differences of eval along random v."""
    g = obj.grad(x)
    errors = []
    for _ in range(directions):
        v = rng.standard_normal(x.size)
        v /= np.linalg.norm(v)
        fd = (obj.eval(x + h * v) - obj.eval(x - h * v)) / (2.0 * h)
        if abs(fd - g @ v) > 1e-6 * (1.0 + abs(fd)):
            errors.append(f"grad.v={g @ v:.12g}, central difference {fd:.12g}")
    return errors


def hvp_matches_fd(obj, x: np.ndarray, rng: np.random.Generator,
                   directions: int = 2, h: float = 1e-4) -> list:
    """hvp(x, v) agrees with central differences of grad along random v."""
    errors = []
    for _ in range(directions):
        v = rng.standard_normal(x.size)
        v /= np.linalg.norm(v)
        fd = (obj.grad(x + h * v) - obj.grad(x - h * v)) / (2.0 * h)
        hv = obj.hvp(x, v)
        err = float(np.max(np.abs(hv - fd)))
        if err > 1e-6 * (1.0 + float(np.max(np.abs(fd)))):
            errors.append(f"hvp differs from a central difference of grad by {err:.3g}")
    return errors


def rosenbrock_grad(x: np.ndarray) -> np.ndarray:
    """Gradient of sum 100 (x[i+1] - x[i]^2)^2 + (1 - x[i])^2."""
    t = x[1:] - x[:-1] ** 2
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * t - 2.0 * (1.0 - x[:-1])
    g[1:] += 200.0 * t
    return g


def rosenbrock_hvp(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Tridiagonal Hessian-vector product of chained Rosenbrock, in O(d)."""
    diag = np.zeros_like(x)
    diag[:-1] = 2.0 - 400.0 * (x[1:] - x[:-1] ** 2) + 800.0 * x[:-1] ** 2
    diag[1:] += 200.0
    off = -400.0 * x[:-1]
    hv = diag * v
    hv[:-1] += off * v[1:]
    hv[1:] += off * v[:-1]
    return hv


def hvp_matches_tridiagonal(obj, x: np.ndarray, rng: np.random.Generator) -> list:
    v = rng.standard_normal(x.size)
    want = rosenbrock_hvp(x, v)
    err = float(np.max(np.abs(obj.hvp(x, v) - want)))
    scale = float(np.max(np.abs(want))) + 1.0
    return [] if err <= 1e-13 * scale else [
        f"hvp differs from the tridiagonal product by {err:.3g}"]


def accepted_steps_descend(records: list, eps_m: float) -> list:
    """On an exact objective an accepted step has rho >= eta1 > 0, so it
    lowers the loss; xi never drops below its floor eps_m."""
    errors = []
    for r in records:
        if r.accepted and not r.loss_after < r.loss_before:
            errors.append(f"accepted step {r.iteration} did not lower the loss")
            break
    low = [r.iteration for r in records if not r.xi >= eps_m]
    if low:
        errors.append(f"xi below eps_m={eps_m:g} at iteration {low[0]}")
    return errors


def at_minimizer(x: np.ndarray, grad_tol: float, x_tol: float) -> list:
    """Rosenbrock's minimizer is the all-ones vector."""
    errors = []
    gnorm = float(np.linalg.norm(rosenbrock_grad(x)))
    if not gnorm <= grad_tol:
        errors.append(f"||grad f(x_T)|| = {gnorm:.3g} > {grad_tol:g}")
    dist = float(np.max(np.abs(x - 1.0)))
    if not dist <= x_tol:
        errors.append(f"max|x_T - 1| = {dist:.3g} > {x_tol:g}")
    return errors


def verify_report(text: str, suites: tuple) -> dict:
    """Per suite, the failures in ``adacubic verify``'s report text."""
    lines = {}
    for line in text.splitlines():
        status, _, rest = line.partition(" ")
        name = rest.split(":", 1)[0]
        if status in ("PASS", "FAIL"):
            lines[name] = status
    return {s: [] if lines.get(s) == "PASS" else [f"suite {s}: {lines.get(s, 'missing')}"]
            for s in suites}
