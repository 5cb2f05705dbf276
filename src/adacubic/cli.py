"""Command-line benchmark runner.

Subcommands:
  run        execute a (problem x optimizer x seed) grid and write CSVs
  deviation  measure subsampling deviations of gradient / diagonal curvature
  verify     run the property suites and print a KKT/duality report

Exit codes: 0 success, 1 any verification/acceptance failure, 2 usage,
config or file error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import harness, verify
from .harness import ConfigError
from .hutchinson import hutchinson_diag, rademacher_probes
from .problems import Objective, draw_batch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adacubic")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a benchmark grid")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seeds", default=None, help="comma list, overrides config")
    p_run.add_argument("--optimizer", default=None,
                       help="restrict to one optimizer section by name")
    p_run.add_argument("--problem", default=None,
                       help="restrict to one problem section by name")

    p_dev = sub.add_parser("deviation", help="subsampling deviation quantiles")
    p_dev.add_argument("--config", required=True)
    p_dev.add_argument("--trials", type=int, default=1000)
    p_dev.add_argument("--batch-size", type=int, default=None)
    p_dev.add_argument("--samples", type=int, default=1,
                       help="Hutchinson probes per trial")

    sub.add_parser("verify", help="run the property suites")
    return parser


def _cmd_run(args) -> int:
    cfg = harness.load_config(args.config)
    if args.seeds is not None:
        cfg.seeds = harness.checked_seeds(harness.parse_value(args.seeds))
    if args.problem is not None:
        if args.problem not in cfg.problems:
            raise ConfigError(f"problem: no section [problem.{args.problem}]")
        cfg.problems = {args.problem: cfg.problems[args.problem]}
    if args.optimizer is not None:
        if args.optimizer not in cfg.optimizers:
            raise ConfigError(f"optimizer: no section [optimizer.{args.optimizer}]")
        cfg.optimizers = {args.optimizer: cfg.optimizers[args.optimizer]}
    paths, summary_path = harness.run_experiment(cfg, args.out)
    print(f"wrote {len(paths)} trajectory files and {summary_path}")
    return 0


def _deviations(obj: Objective, x: np.ndarray, batch_size: int, trials: int,
                S: int) -> tuple[np.ndarray, np.ndarray]:
    """||g_batch - g_full||_2 and ||b_batch - diag_full||_inf over ``trials``
    batch draws, batches and probes from one ``default_rng(0)``.  The
    theoretical bounds involve constants that are not observable, so the
    command reports distributions rather than pass/fail."""
    rng = np.random.default_rng(0)
    g_full = obj.grad(x)
    diag_full = obj.exact_diag_hessian(x)
    grad_devs = np.empty(trials)
    diag_devs = np.empty(trials)
    for t in range(trials):
        batch = draw_batch(rng, obj.num_samples, batch_size)
        grad_devs[t] = np.linalg.norm(obj.grad(x, batch) - g_full)
        b = hutchinson_diag(lambda V: obj.hvp(x, V, batch),
                            rademacher_probes(rng, S, obj.dim))
        diag_devs[t] = np.max(np.abs(b - diag_full))
    return grad_devs, diag_devs


def _cmd_deviation(args) -> int:
    for flag, value in (("--trials", args.trials), ("--samples", args.samples)):
        if value < 1:
            raise ConfigError(f"{flag} must be an integer >= 1, got {value}")
    cfg = harness.load_config(args.config)
    for name, params in cfg.problems.items():
        obj, x0 = cfg.built_problem(params)
        if obj.num_samples > 0:
            break
    else:
        raise ConfigError("deviation needs at least one stochastic problem")
    batch_size = (max(1, obj.num_samples // 8) if args.batch_size is None
                  else args.batch_size)
    if not 1 <= batch_size <= obj.num_samples:
        raise ConfigError(f"--batch-size must be between 1 and the {obj.num_samples} "
                          f"samples of problem.{name}, got {batch_size}")
    grad_devs, diag_devs = _deviations(obj, x0, batch_size, args.trials, args.samples)
    print(f"problem={name} n={obj.num_samples} batch={batch_size} "
          f"trials={args.trials} S={args.samples}")
    print("quantile,grad_deviation,diag_deviation")
    levels = (0.1, 0.25, 0.5, 0.75, 0.9)
    for q, gq, dq in zip(levels, np.quantile(grad_devs, levels),
                         np.quantile(diag_devs, levels)):
        print(f"{q:.2f},{gq:.17g},{dq:.17g}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "deviation":
            return _cmd_deviation(args)
        text, ok = verify.report()
        sys.stdout.write(text)
        return 0 if ok else 1
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
