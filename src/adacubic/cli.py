"""Command-line benchmark runner.

Subcommands:
  run        execute a (problem x optimizer x seed) grid and write CSVs
  deviation  measure subsampling deviations of gradient / diagonal curvature
  verify     run the property suites and print a KKT/duality report

Exit codes: 0 success, 1 any verification/acceptance failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import harness, verify
from .harness import ConfigError


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
        cfg.seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        if not cfg.seeds:
            raise ConfigError("seeds: empty override")
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


def _cmd_deviation(args) -> int:
    cfg = harness.load_config(args.config)
    for name, params in cfg.problems.items():
        obj, x0 = cfg.built_problem(params)
        if obj.num_samples > 0:
            break
    else:
        raise ConfigError("deviation needs at least one stochastic problem")
    batch_size = args.batch_size or max(1, obj.num_samples // 8)
    res = harness.measure_subsample_deviation(obj, x0, batch_size, args.trials,
                                              args.samples)
    print(f"problem={name} n={obj.num_samples} batch={batch_size} "
          f"trials={args.trials} S={args.samples}")
    print("quantile,grad_deviation,diag_deviation")
    for q, gq, dq in zip(res["quantile_levels"], res["grad_quantiles"],
                         res["diag_quantiles"]):
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
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
