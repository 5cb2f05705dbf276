"""Run one benchmark workload for one seed and print its metrics.

    env OPENBLAS_NUM_THREADS=1 python3 perfbench/run.py \\
        --workload logistic-grid --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout: the package is imported from its
``src/`` directory, never from an installed copy.  The process repeats
whole rounds of the workload until ``--seconds`` have passed and checks
every round's output.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` operations, and the
metrics named in ``BENCHMARK.json`` -- the end-to-end ones with
``--trace 0``, the per-layer ones from a traced run with ``--trace 1``.
The exit code is 0 when every check passed, except the known fault that
the README describes, and 1 otherwise; 2 when the source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("logistic-grid", "rosenbrock-1000", "rosenbrock-2-to-tol", "verify-suites")


def use_source() -> bool:
    """Put the checkout's ``src/`` first on the import path."""
    if not (SRC / "adacubic" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def run_rounds(workload, seconds: float, out_dir: Path, setup: list | None = None) -> list:
    """Whole rounds until ``seconds`` have passed; at least one.  Given a
    ``setup`` list, three set-up samples go into it before each round, so
    that they span the same stretch of the host's speed as the rounds."""
    rounds = []
    end = perf_counter() + seconds
    while not rounds or perf_counter() < end:
        if setup is not None:
            setup += [workload.setup_sample() for _ in range(3)]
        rounds.append(workload.round(str(out_dir / "csv")))
    return rounds


def summarize(rounds: list, extra_errors: list) -> dict:
    ops = [op for r in rounds for op in r.ops]
    for op in ops:
        for msg in op.errors + op.known:
            print(f"{op.name}: {msg}", file=sys.stderr)
    for msg in extra_errors:
        print(msg, file=sys.stderr)
    return {"correct": not extra_errors and not any(op.errors for op in ops),
            "attempted": len(ops), "failed": sum(op.failed for op in ops)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_source():
        print(f"error: no package source in {SRC}", file=sys.stderr)
        return 2
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy is imported
    import spans
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workload = workloads.make(args.workload, args.seed)
    out_dir = OUT / f"{args.workload}-trace{args.trace}"  # each run overwrites it
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.trace:
        tracer = spans.Tracer()
        with spans.install(tracer):
            rounds = run_rounds(workload, args.seconds, out_dir)
        tracer.write(out_dir / "spans.csv")
        print(f"solve_s with tracing on: {statistics.median(r.solve_s for r in rounds)!r}"
              f" (median of {len(rounds)} rounds)", file=sys.stderr)
        values = spans.layer_metrics(
            tracer, len(rounds), sum(r.iters for r in rounds),
            sum(r.accepted for r in rounds), sum(r.adacubic_iters for r in rounds),
            sum(r.csv_bytes for r in rounds), sum(r.csv_rows for r in rounds))
    else:
        samples = []
        rounds = run_rounds(workload, args.seconds, out_dir, samples)
        print(f"setup samples (s): {samples}\nsolve_s by round: "
              f"{[r.solve_s for r in rounds]}", file=sys.stderr)
        setup = statistics.median(samples)
        solve = statistics.median(r.solve_s for r in rounds)
        iters = rounds[0].iters
        values = {"setup_s": setup, "solve_s": solve, "iters_per_s": iters / solve,
                  "iters": iters,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}

    errors = []
    if len({r.iters for r in rounds}) != 1:
        errors.append(f"identical rounds took {sorted({r.iters for r in rounds})} iterations")
    if set(values) != {m["name"] for m in declared}:
        errors.append(f"metrics {sorted(values)} differ from BENCHMARK.json")
    result = summarize(rounds, errors)
    result["metrics"] = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
                         for m in declared}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
