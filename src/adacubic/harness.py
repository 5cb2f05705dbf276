"""Benchmark harness: config parsing, experiment grids, CSV output.

Config files are flat ``key = value`` text with bracketed sections, e.g.::

    [run]
    seeds = 0,1,2
    max_iters = 300
    batch_size = full
    stop_grad_norm = 1e-6

    [problem.ros]
    kind = rosenbrock
    dim = 2
    x0 = -1.2,1

    [optimizer.adacubic]
    kind = adacubic

Each ``problem.*`` / ``optimizer.*`` section adds one grid axis entry.
CLI flags override file values.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .config import AdaCubicConfig
from .driver import StepRecord, Trajectory, run, run_baseline
from .hutchinson import hutchinson_diag
from .problems import (Objective, draw_batch, load_logistic_csv, make_logistic,
                       make_quadratic, make_rosenbrock, make_saddle,
                       make_synthetic_logistic)

TRAJECTORY_HEADER = ("iter,loss_before,loss_after,grad_norm,rho,nu,xi,"
                     "step_norm,status,subproblem_status,accepted")
SUMMARY_HEADER = ("problem,optimizer,mean_final_loss,std_final_loss,"
                  "mean_iters_to_threshold,success_rate")


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending key."""


@dataclass
class ExperimentConfig:
    problems: dict = field(default_factory=dict)    # name -> params
    optimizers: dict = field(default_factory=dict)  # name -> params
    seeds: list = field(default_factory=lambda: [0])
    max_iters: int = 500
    batch_size: int | None = None
    stop_grad_norm: float = 1e-6
    out: str = "results"
    # id(params) -> (copy of params, objective, x0): each problem is built
    # once, by validate_config or its first run, and rebuilt only when its
    # params have changed since
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def built_problem(self, params: dict) -> tuple[Objective, np.ndarray]:
        """The (objective, x0) of a problem section, built once per params
        and shared by every run of the section."""
        entry = self._built.get(id(params))
        if entry is None or entry[0] != params:
            # a section's values are scalars or lists of scalars
            copied = {k: list(v) if isinstance(v, list) else v for k, v in params.items()}
            entry = (copied, *build_problem(params))
            self._built[id(params)] = entry
        return entry[1], entry[2]


def _parse_value(raw: str):
    raw = raw.strip()
    if "," in raw:
        return [_parse_value(tok) for tok in raw.split(",") if tok.strip()]
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def parse_config_text(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section.startswith("problem."):
                cfg.problems[section.split(".", 1)[1]] = {}
            elif section.startswith("optimizer."):
                cfg.optimizers[section.split(".", 1)[1]] = {}
            elif section != "run":
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line or section is None:
            raise ConfigError(f"line {lineno}: expected 'key = value' inside a section")
        key, raw = (part.strip() for part in line.split("=", 1))
        value = _parse_value(raw)
        if section == "run":
            _apply_run_key(cfg, key, value)
        elif section.startswith("problem."):
            cfg.problems[section.split(".", 1)[1]][key] = value
        else:
            cfg.optimizers[section.split(".", 1)[1]][key] = value
    validate_config(cfg)
    return cfg


def _apply_run_key(cfg: ExperimentConfig, key: str, value) -> None:
    if key == "seeds":
        cfg.seeds = [int(v) for v in (value if isinstance(value, list) else [value])]
    elif key == "max_iters":
        cfg.max_iters = int(value)
    elif key == "batch_size":
        cfg.batch_size = None if value == "full" else int(value)
    elif key == "stop_grad_norm":
        cfg.stop_grad_norm = float(value)
    elif key == "out":
        cfg.out = str(value)
    else:
        raise ConfigError(f"unknown [run] key: {key}")


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def validate_config(cfg: ExperimentConfig) -> None:
    if not cfg.problems:
        raise ConfigError("no [problem.*] sections defined")
    if not cfg.optimizers:
        raise ConfigError("no [optimizer.*] sections defined")
    if not cfg.seeds:
        raise ConfigError("seeds must be non-empty")
    if cfg.max_iters < 1:
        raise ConfigError("max_iters must be >= 1")
    for name, params in cfg.problems.items():
        if "kind" not in params:
            raise ConfigError(f"problem.{name}: missing key 'kind'")
        cfg.built_problem(params)  # raises ConfigError on bad parameters
    for name, params in cfg.optimizers.items():
        kind = params.get("kind")
        if kind not in ("adacubic", "sgd", "adam"):
            raise ConfigError(f"optimizer.{name}: unknown kind {kind!r}")


def _as_array(value, key: str) -> np.ndarray:
    if isinstance(value, list):
        return np.array([float(v) for v in value])
    if isinstance(value, (int, float)):
        return np.array([float(value)])
    raise ConfigError(f"{key}: expected a number or comma list")


def build_problem(params: dict) -> tuple[Objective, np.ndarray]:
    """Instantiate a problem section; returns (objective, x0)."""
    kind = params.get("kind")
    if kind == "quadratic":
        diag = _as_array(params.get("diag", [1.0]), "diag")
        g0 = _as_array(params.get("g0", [0.0] * diag.size), "g0")
        obj = make_quadratic(diag, g0)
        x0 = _as_array(params.get("x0", [1.0] * diag.size), "x0")
    elif kind == "rosenbrock":
        d = int(params.get("dim", 2))
        obj = make_rosenbrock(d)
        x0 = _as_array(params.get("x0", [-1.2] + [1.0] * (d - 1)), "x0")
    elif kind == "saddle":
        obj = make_saddle()
        x0 = _as_array(params.get("x0", [0.0, 0.0]), "x0")
    elif kind == "logistic":
        l2 = float(params.get("l2", 0.0))
        if "data" in params:
            obj = load_logistic_csv(str(params["data"]), l2)
        else:
            obj = make_synthetic_logistic(int(params.get("n", 200)),
                                          int(params.get("dim", 5)), l2,
                                          int(params.get("data_seed", 0)))
        x0 = _as_array(params.get("x0", [0.0] * obj.dim), "x0")
    else:
        raise ConfigError(f"unknown problem kind {kind!r}")
    if x0.size != obj.dim:
        raise ConfigError(f"x0 has length {x0.size}, problem dimension is {obj.dim}")
    return obj, x0


def run_one(problem_params: dict, optimizer_params: dict, seed: int,
            cfg: ExperimentConfig) -> Trajectory:
    obj, x0 = cfg.built_problem(problem_params)
    kind = optimizer_params["kind"]
    if kind == "adacubic":
        keys = ("eta1", "eta2", "alpha1", "alpha2", "kappa_easy", "eps_m",
                "hutchinson_samples", "max_newton_iters", "kkt_tol")
        overrides = {k: optimizer_params[k] for k in keys if k in optimizer_params}
        acfg = AdaCubicConfig(rng_seed=seed, **overrides)
        return run(obj, x0, acfg, cfg.max_iters, cfg.batch_size, cfg.stop_grad_norm,
                   xi0=float(optimizer_params.get("xi0", 1.0)))
    return run_baseline(
        obj, x0, kind, float(optimizer_params.get("lr", 0.1)), cfg.max_iters,
        cfg.batch_size, cfg.stop_grad_norm, seed,
        momentum=float(optimizer_params.get("momentum", 0.0)),
        beta1=float(optimizer_params.get("beta1", 0.9)),
        beta2=float(optimizer_params.get("beta2", 0.999)),
        eps=float(optimizer_params.get("eps", 1e-8)))


# ---------------------------------------------------------------------------
# CSV serialization (17 significant digits: lossless float64 round-trip)
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def record_to_row(rec: StepRecord) -> str:
    return ",".join([
        str(rec.iteration), _fmt(rec.loss_before), _fmt(rec.loss_after),
        _fmt(rec.grad_norm), _fmt(rec.rho), _fmt(rec.nu), _fmt(rec.xi),
        _fmt(rec.step_norm), rec.status.value, rec.subproblem_status.value,
        str(rec.accepted)])


def write_trajectory_csv(path: str, records: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRAJECTORY_HEADER + "\n")
        for rec in records:
            fh.write(record_to_row(rec) + "\n")


@dataclass(frozen=True)
class SummaryRow:
    problem: str
    optimizer: str
    mean_final_loss: float
    std_final_loss: float
    mean_iters_to_threshold: float
    success_rate: float


def _final_loss(rows: list) -> float:
    """Loss at the final iterate, as recoverable from the CSV columns."""
    if not rows:
        return float("nan")
    last = rows[-1]
    return last["loss_after"] if last["accepted"] else last["loss_before"]


def summarize_cells(cells: dict, max_iters: int) -> list:
    """cells: (problem, optimizer) -> list of row-dict lists, one per seed."""
    out = []
    for (prob, opt), runs in cells.items():
        finals = np.array([_final_loss(rows) for rows in runs])
        # empty trajectories mark failed runs; a run that stops before the
        # budget did so at the gradient threshold (or a stationary model)
        successes = np.array([0 < len(rows) < max_iters for rows in runs])
        iters = np.array([len(rows) for rows in runs], dtype=float)
        mean_iters = float(iters[successes].mean()) if successes.any() else float("nan")
        out.append(SummaryRow(prob, opt, float(finals.mean()),
                              float(finals.std()), mean_iters,
                              float(successes.mean())))
    return out


def _records_as_rows(records: list) -> list:
    return [{"loss_before": r.loss_before, "loss_after": r.loss_after,
             "accepted": r.accepted} for r in records]


def read_trajectory_csv(path: str) -> list:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != TRAJECTORY_HEADER:
            raise ConfigError(f"{path}: unexpected trajectory header")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            rows.append({"loss_before": float(parts[1]),
                         "loss_after": float(parts[2]),
                         "accepted": parts[10] == "True"})
    return rows


def write_summary_csv(path: str, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for r in rows:
            fh.write(",".join([r.problem, r.optimizer, _fmt(r.mean_final_loss),
                               _fmt(r.std_final_loss),
                               _fmt(r.mean_iters_to_threshold),
                               _fmt(r.success_rate)]) + "\n")


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> tuple:
    """Run the (problem x optimizer x seed) grid; write per-run trajectory CSVs
    plus a summary CSV.  A failed run counts as unsuccessful and the grid
    continues.  Returns (trajectory paths, summary path).
    """
    out_dir = out_dir or cfg.out
    os.makedirs(out_dir, exist_ok=True)
    cells = {}
    paths = []
    for prob_name, prob_params in cfg.problems.items():
        for opt_name, opt_params in cfg.optimizers.items():
            runs = []
            for seed in cfg.seeds:
                try:
                    traj = run_one(prob_params, opt_params, seed, cfg)
                    records = traj.records
                except Exception:
                    records = []  # counts as unsuccessful below
                path = os.path.join(out_dir, f"{prob_name}__{opt_name}__seed{seed}.csv")
                write_trajectory_csv(path, records)
                paths.append(path)
                runs.append(_records_as_rows(records))
            cells[(prob_name, opt_name)] = runs
    summary = summarize_cells(cells, cfg.max_iters)
    summary_path = os.path.join(out_dir, "summary.csv")
    write_summary_csv(summary_path, summary)
    return paths, summary_path


def recompute_summary(out_dir: str, cfg: ExperimentConfig) -> list:
    """Rebuild summary rows from the emitted trajectory CSVs."""
    cells = {}
    for prob_name in cfg.problems:
        for opt_name in cfg.optimizers:
            runs = []
            for seed in cfg.seeds:
                path = os.path.join(out_dir, f"{prob_name}__{opt_name}__seed{seed}.csv")
                runs.append(read_trajectory_csv(path))
            cells[(prob_name, opt_name)] = runs
    return summarize_cells(cells, cfg.max_iters)


# ---------------------------------------------------------------------------
# Subsampling deviation measurements
# ---------------------------------------------------------------------------

def measure_subsample_deviation(obj: Objective, x: np.ndarray, batch_size: int,
                                trials: int, S: int, seed: int = 0) -> dict:
    """Empirical deviations of batched gradient and Hutchinson diagonal.

    Over ``trials`` seeded batch draws, records ||g_batch - g_full||_2 and
    ||b_batch - diag_full||_inf, and summarizes them with quantiles.  The
    theoretical bounds involve constants that are not observable, so this
    reports distributions rather than pass/fail.
    """
    if obj.num_samples == 0:
        raise ValueError("deviation measurement needs a stochastic objective")
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    g_full = obj.grad(x)
    diag_full = obj.exact_diag_hessian(x)
    grad_devs = np.empty(trials)
    diag_devs = np.empty(trials)
    for t in range(trials):
        batch = draw_batch(rng, obj.num_samples, batch_size)
        grad_devs[t] = np.linalg.norm(obj.grad(x, batch) - g_full)
        b = hutchinson_diag(lambda v: obj.hvp(x, v, batch), obj.dim, S, rng)
        diag_devs[t] = np.max(np.abs(b - diag_full))
    qs = [0.1, 0.25, 0.5, 0.75, 0.9]
    return {
        "grad_devs": grad_devs,
        "diag_devs": diag_devs,
        "quantile_levels": qs,
        "grad_quantiles": np.quantile(grad_devs, qs),
        "diag_quantiles": np.quantile(diag_devs, qs),
    }
