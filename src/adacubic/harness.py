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
import re
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .config import AdaCubicConfig
from .driver import Trajectory, run, run_baseline
from .problems import (Objective, load_logistic_csv, make_quadratic, make_rosenbrock,
                       make_saddle, make_synthetic_logistic)

TRAJECTORY_HEADER = ("iter,loss_before,loss_after,grad_norm,rho,nu,xi,"
                     "step_norm,status,subproblem_status,accepted")
SUMMARY_HEADER = ("problem,optimizer,mean_final_loss,std_final_loss,"
                  "mean_iters_to_threshold,success_rate")
# a section name goes into file names and unquoted summary fields; '__'
# separates the problem from the optimizer in a trajectory file's name
_SECTION_NAME = re.compile(r"[A-Za-z0-9_.-]+")


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
    run_params = {}  # [run] may reopen, as each of its keys is still set once
    section = params = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            axis, dot, name = section.partition(".")
            if section == "run":
                params = run_params
            elif dot and axis in ("problem", "optimizer"):
                table = getattr(cfg, axis + "s")
                if name in table:
                    raise ConfigError(f"line {lineno}: duplicate section [{section}]")
                if not _SECTION_NAME.fullmatch(name) or "__" in name:
                    raise ConfigError(f"line {lineno}: section name {name!r} must be "
                                      "letters, digits, '_', '.' or '-', without '__'")
                params = table[name] = {}
            else:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line or section is None:
            raise ConfigError(f"line {lineno}: expected 'key = value' inside a section")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key in params:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        # out and data name paths, so their text is kept as written, up to
        # the '#' that starts a comment in every value
        params[key] = raw.strip() if key in ("out", "data") else parse_value(raw)
    for key, value in run_params.items():
        _apply_run_key(cfg, key, value)
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
        cfg.stop_grad_norm = _as_float(key, value)
    elif key == "out":
        cfg.out = _checked_out(value)
    else:
        raise ConfigError(f"unknown [run] key: {key}")


def _checked_out(value: str) -> str:
    if not value:
        raise ConfigError("out must name a directory, got ''")
    return value


def _as_float(key: str, value) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{key} is too large for a float") from None
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


def _checked_int(key: str, value, least: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{key} must be an integer >= {least}, got {value!r}")
    if value > sys.maxsize:  # no array size or index can be larger
        raise ConfigError(f"{key} must be at most sys.maxsize")
    return value


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


# the keys each kind reads besides 'kind'
_PROBLEM_KEYS = {"quadratic": ("diag", "g0", "x0"), "rosenbrock": ("dim", "x0"),
                 "saddle": ("x0",), "logistic": ("l2", "data", "n", "dim", "data_seed", "x0")}
_OPTIMIZER_KEYS = {"adacubic": tuple(f.name for f in fields(AdaCubicConfig)),
                   "sgd": ("lr",), "adam": ("lr",)}


def _checked_kind(params: dict, keys_by_kind: dict) -> str:
    """A section's kind, once it and each other key of the section are known."""
    kind = params.get("kind")
    if not isinstance(kind, str) or kind not in keys_by_kind:
        raise ConfigError(f"unknown kind {kind!r}")
    unknown = [k for k in params if k != "kind" and k not in keys_by_kind[kind]]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} for kind {kind!r}")
    return kind


def _hyperparameters(params: dict):
    """The checked values of an ``optimizer.*`` section: an AdaCubicConfig for
    adacubic, and the learning rate ``lr`` (default 0.1) for sgd and adam."""
    if params["kind"] == "adacubic":
        return AdaCubicConfig(**{k: v for k, v in params.items() if k != "kind"})
    lr = _as_float("lr", params.get("lr", 0.1))
    if not (0.0 < lr < math.inf):  # NaN fails
        raise ConfigError(f"need 0 < lr < inf, got {lr}")
    return lr


def checked_seeds(value) -> list:
    """A parsed ``seeds`` value (one seed or a list) as a list of seeds;
    raises ConfigError unless it holds one or more distinct integers in
    [0, 2**64), which keeps each seed's trajectory file name short and its
    own."""
    seeds = value if isinstance(value, list) else [value]
    if not seeds:
        raise ConfigError("seeds must be non-empty")
    for i, seed in enumerate(seeds):
        if not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
            raise ConfigError("seeds must be non-negative integers below 2**64, "
                              f"got {seed!r}")
        if seed in seeds[:i]:
            raise ConfigError(f"seeds must be distinct, got {seed} twice")
    return seeds


def validate_config(cfg: ExperimentConfig) -> None:
    if not cfg.problems:
        raise ConfigError("no [problem.*] sections defined")
    if not cfg.optimizers:
        raise ConfigError("no [optimizer.*] sections defined")
    for name, params in cfg.problems.items():
        try:
            obj, _ = cfg.built_problem(params)
        except (TypeError, ValueError, OverflowError, OSError) as err:
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
    """A number or list as a float array, converted in one numpy call."""
    try:
        array = np.array(value, dtype=float, ndmin=1)
    except OverflowError:
        raise ConfigError(f"{key} has a value too large for a float") from None
    except (TypeError, ValueError):  # a word, alone or in the list
        raise ConfigError(f"{key}: expected a number or comma list") from None
    if not np.isfinite(array).all():
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return array


def build_problem(params: dict) -> tuple[Objective, np.ndarray]:
    """Instantiate a problem section; returns (objective, x0). A vector the
    section sets is checked by _as_array; a default is a constant that numpy
    builds whole, with no per-element Python work."""
    kind = _checked_kind(params, _PROBLEM_KEYS)
    if kind == "quadratic":
        diag = _as_array(params["diag"], "diag") if "diag" in params else np.ones(1)
        g0 = _as_array(params["g0"], "g0") if "g0" in params else np.zeros(diag.size)
        obj = make_quadratic(diag, g0)
        x0 = _as_array(params["x0"], "x0") if "x0" in params else np.ones(diag.size)
    elif kind == "rosenbrock":
        d = _checked_int("dim", params.get("dim", 2))
        obj = make_rosenbrock(d)
        if "x0" in params:
            x0 = _as_array(params["x0"], "x0")
        else:
            x0 = np.ones(d)
            x0[0] = -1.2
    elif kind == "saddle":
        obj = make_saddle()
        x0 = _as_array(params["x0"], "x0") if "x0" in params else np.zeros(2)
    else:  # logistic
        l2 = _as_float("l2", params.get("l2", 0.0))
        if "data" in params:
            for key in ("n", "dim", "data_seed"):
                if key in params:
                    raise ConfigError(f"{key!r} is ignored when 'data' is given")
            obj = load_logistic_csv(params["data"], l2)
        else:
            n = _checked_int("n", params.get("n", 200))
            d = _checked_int("dim", params.get("dim", 5))
            seed = _checked_int("data_seed", params.get("data_seed", 0), least=0)
            obj = make_synthetic_logistic(n, d, l2, seed)
        x0 = _as_array(params["x0"], "x0") if "x0" in params else np.zeros(obj.dim)
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
    return run_baseline(obj, x0, kind, hyper, *limits)


# ---------------------------------------------------------------------------
# CSV serialization (%.17g, 17 significant digits: lossless float64 round-trip)
# ---------------------------------------------------------------------------

def write_trajectory_csv(path: str, records: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRAJECTORY_HEADER + "\n")
        # row by row: the file is never held in memory.  A record unpacks in
        # field order, cheaper than reading its fields by name; an Enum
        # member's _value_ is its value, without .value's property call
        for k, before, after, g_norm, rho, nu, xi, s_norm, status, sub, accepted in records:
            fh.write("%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s,%s,%s\n" % (
                k, before, after, g_norm, rho, nu, xi, s_norm, status._value_, sub._value_,
                accepted))


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
    kept.  Returns (trajectory paths, summary path); an empty ``out_dir``, or
    an empty ``cfg.out`` when ``out_dir`` is None, is a ConfigError.
    """
    out_dir = _checked_out(cfg.out if out_dir is None else out_dir)
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
