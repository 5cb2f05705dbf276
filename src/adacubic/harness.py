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
from dataclasses import dataclass, field, fields

import numpy as np

from .config import AdaCubicConfig
from .driver import Trajectory, run, run_baseline
from .hutchinson import hutchinson_diag
from .problems import (Objective, draw_batch, load_logistic_csv, make_quadratic,
                       make_rosenbrock, make_saddle, make_synthetic_logistic)

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
    # repr of the sorted params (scalars or lists of scalars) -> (objective,
    # x0): built by validate_config or the first run that needs it
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def built_problem(self, params: dict) -> tuple[Objective, np.ndarray]:
        """The (objective, x0) of a problem section, built once per distinct
        params: identical sections share a build, changed params are rebuilt."""
        key = repr(sorted(params.items()))
        if key not in self._built:
            self._built[key] = build_problem(params)
        return self._built[key]


def parse_value(raw: str):
    """A config value as written: int, float or string; a comma list gives a
    list of them."""
    raw = raw.strip()
    if "," in raw:
        return [parse_value(tok) for tok in raw.split(",") if tok.strip()]
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    return raw


def parse_config_text(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    section = params = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            axis, dot, name = section.partition(".")
            if dot and axis in ("problem", "optimizer"):
                params = getattr(cfg, axis + "s")[name] = {}
            elif section != "run":
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line or section is None:
            raise ConfigError(f"line {lineno}: expected 'key = value' inside a section")
        key, _, raw = line.partition("=")
        key, value = key.strip(), parse_value(raw)
        if section == "run":
            _apply_run_key(cfg, key, value)
        else:
            params[key] = value
    validate_config(cfg)
    return cfg


def _apply_run_key(cfg: ExperimentConfig, key: str, value) -> None:
    if key == "seeds":
        cfg.seeds = checked_seeds(value)
    elif key == "max_iters":
        cfg.max_iters = _checked_int(key, value)
    elif key == "batch_size":
        cfg.batch_size = None if value == "full" else _checked_int(key, value)
    elif key == "stop_grad_norm":
        if not (isinstance(value, (int, float)) and 0.0 <= value < math.inf):  # NaN fails
            raise ConfigError(f"need 0 <= stop_grad_norm < inf, got {value!r}")
        cfg.stop_grad_norm = float(value)
    elif key == "out":
        cfg.out = str(value)
    else:
        raise ConfigError(f"unknown [run] key: {key}")


def _checked_int(key: str, value, least: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{key} must be an integer >= {least}, got {value!r}")
    return value


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


# the keys each kind reads besides 'kind'
_PROBLEM_KEYS = {"quadratic": ("diag", "g0", "x0"), "rosenbrock": ("dim", "x0"),
                 "saddle": ("x0",), "logistic": ("l2", "data", "n", "dim", "data_seed", "x0")}
_OPTIMIZER_KEYS = {"adacubic": tuple(f.name for f in fields(AdaCubicConfig)),
                   "sgd": ("lr", "momentum"), "adam": ("lr", "beta1", "beta2", "eps")}


def _checked_kind(params: dict, keys_by_kind: dict) -> str:
    """A section's kind, once it and each other key of the section are known."""
    kind = params.get("kind")
    if kind not in keys_by_kind:
        raise ConfigError(f"unknown kind {kind!r}")
    unknown = [k for k in params if k != "kind" and k not in keys_by_kind[kind]]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} for kind {kind!r}")
    return kind


def _hyperparameters(params: dict):
    """The checked values of an ``optimizer.*`` section: the section's keys
    besides ``kind``, as an AdaCubicConfig for adacubic and as run_baseline's
    keyword arguments (floats, lr included) for sgd and adam."""
    values = {k: v for k, v in params.items() if k != "kind"}
    if params["kind"] == "adacubic":
        return AdaCubicConfig(**values)
    hyper = {}
    for key, raw in values.items():
        try:
            value = hyper[key] = float(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be a number, got {raw!r}") from None
        if key in ("lr", "eps"):
            if not (0.0 < value < math.inf):
                raise ConfigError(f"need 0 < {key} < inf, got {value}")
        elif not (0.0 <= value < 1.0):  # momentum, beta1, beta2
            raise ConfigError(f"need 0 <= {key} < 1, got {value}")
    return hyper


def checked_seeds(value) -> list:
    """A parsed ``seeds`` value (one seed or a list) as a list of seeds;
    raises ConfigError unless it holds one or more non-negative integers."""
    seeds = value if isinstance(value, list) else [value]
    if not seeds:
        raise ConfigError("seeds must be non-empty")
    for seed in seeds:
        if not isinstance(seed, int) or seed < 0:
            raise ConfigError(f"seeds must be non-negative integers, got {seed!r}")
    return seeds


def validate_config(cfg: ExperimentConfig) -> None:
    if not cfg.problems:
        raise ConfigError("no [problem.*] sections defined")
    if not cfg.optimizers:
        raise ConfigError("no [optimizer.*] sections defined")
    for name, params in cfg.problems.items():
        try:
            obj, _ = cfg.built_problem(params)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"problem.{name}: {err}") from None
        if cfg.batch_size is not None and 0 < obj.num_samples < cfg.batch_size:
            raise ConfigError(f"problem.{name}: [run] batch_size = {cfg.batch_size} "
                              f"exceeds its {obj.num_samples} samples")
    for name, params in cfg.optimizers.items():
        try:
            _checked_kind(params, _OPTIMIZER_KEYS)
            _hyperparameters(params)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"optimizer.{name}: {err}") from None


def _as_array(value, key: str) -> np.ndarray:
    """A number or list as a float array; a string in the list raises ValueError."""
    if isinstance(value, str):
        raise ConfigError(f"{key}: expected a number or comma list")
    array = np.array(value, dtype=float, ndmin=1)
    if not np.isfinite(array).all():
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return array


def build_problem(params: dict) -> tuple[Objective, np.ndarray]:
    """Instantiate a problem section; returns (objective, x0)."""
    kind = _checked_kind(params, _PROBLEM_KEYS)
    if kind == "quadratic":
        diag = _as_array(params.get("diag", [1.0]), "diag")
        g0 = _as_array(params.get("g0", [0.0] * diag.size), "g0")
        obj = make_quadratic(diag, g0)
        x0 = _as_array(params.get("x0", [1.0] * diag.size), "x0")
    elif kind == "rosenbrock":
        d = _checked_int("dim", params.get("dim", 2))
        obj = make_rosenbrock(d)
        x0 = _as_array(params.get("x0", [-1.2] + [1.0] * (d - 1)), "x0")
    elif kind == "saddle":
        obj = make_saddle()
        x0 = _as_array(params.get("x0", [0.0, 0.0]), "x0")
    else:  # logistic
        l2 = float(params.get("l2", 0.0))
        if "data" in params:
            for key in ("n", "dim", "data_seed"):
                if key in params:
                    raise ConfigError(f"{key!r} is ignored when 'data' is given")
            obj = load_logistic_csv(str(params["data"]), l2)
        else:
            n = _checked_int("n", params.get("n", 200))
            d = _checked_int("dim", params.get("dim", 5))
            seed = _checked_int("data_seed", params.get("data_seed", 0), least=0)
            obj = make_synthetic_logistic(n, d, l2, seed)
        x0 = _as_array(params.get("x0", [0.0] * obj.dim), "x0")
    if x0.size != obj.dim:
        raise ConfigError(f"x0 has length {x0.size}, problem dimension is {obj.dim}")
    return obj, x0


def run_one(problem_params: dict, optimizer_params: dict, seed: int,
            cfg: ExperimentConfig) -> Trajectory:
    obj, x0 = cfg.built_problem(problem_params)
    kind = optimizer_params["kind"]
    limits = (cfg.max_iters, cfg.batch_size, cfg.stop_grad_norm, seed)
    hyper = _hyperparameters(optimizer_params)
    if kind == "adacubic":
        return run(obj, x0, hyper, *limits)
    return run_baseline(obj, x0, kind, hyper.pop("lr", 0.1), *limits, **hyper)


# ---------------------------------------------------------------------------
# CSV serialization (%.17g, 17 significant digits: lossless float64 round-trip)
# ---------------------------------------------------------------------------

def write_trajectory_csv(path: str, records: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRAJECTORY_HEADER + "\n")
        for r in records:  # row by row: the file is never held in memory
            fh.write("%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s,%s,%s\n" % (
                r.iteration, r.loss_before, r.loss_after, r.grad_norm, r.rho, r.nu,
                r.xi, r.step_norm, r.status.value, r.subproblem_status.value,
                r.accepted))


def write_summary_csv(path: str, cells: dict, max_iters: int) -> None:
    """cells: (problem, optimizer) -> one (final loss, iterations) pair per seed."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for (prob, opt), runs in cells.items():
            finals = np.array([final for final, _ in runs])
            iters = np.array([n for _, n in runs], dtype=float)
            # a failed run has no iterations; a run that stops before the
            # budget did so at the gradient threshold (or a stationary model)
            successes = (0 < iters) & (iters < max_iters)
            mean_iters = float(iters[successes].mean()) if successes.any() else float("nan")
            fh.write("%s,%s,%.17g,%.17g,%.17g,%.17g\n" % (
                prob, opt, finals.mean(), finals.std(), mean_iters, successes.mean()))


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> tuple:
    """Run the (problem x optimizer x seed) grid; write per-run trajectory CSVs
    plus a summary CSV.  A failed run counts as unsuccessful and the grid
    continues.  Of a run's records only its final loss and their number are
    kept.  Returns (trajectory paths, summary path).
    """
    out_dir = out_dir or cfg.out
    os.makedirs(out_dir, exist_ok=True)
    cells = {}
    paths = []
    for prob_name, prob_params in cfg.problems.items():
        for opt_name, opt_params in cfg.optimizers.items():
            runs = cells[(prob_name, opt_name)] = []
            for seed in cfg.seeds:
                try:
                    records = run_one(prob_params, opt_params, seed, cfg).records
                except Exception:
                    records = []  # counts as unsuccessful in the summary
                path = os.path.join(out_dir, f"{prob_name}__{opt_name}__seed{seed}.csv")
                write_trajectory_csv(path, records)
                paths.append(path)
                # the loss at the final iterate, as the trajectory CSV records it
                last = records[-1] if records else None
                final = (float("nan") if last is None
                         else last.loss_after if last.accepted else last.loss_before)
                runs.append((final, len(records)))
    summary_path = os.path.join(out_dir, "summary.csv")
    write_summary_csv(summary_path, cells, cfg.max_iters)
    return paths, summary_path


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
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 1 <= batch_size <= obj.num_samples:
        raise ValueError(f"need 1 <= batch_size <= {obj.num_samples}, got {batch_size}")
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
