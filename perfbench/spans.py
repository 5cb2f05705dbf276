"""Spans recorded around the calls into each adacubic module.

The package is not edited: :func:`install` replaces the public functions
each layer calls with timing wrappers, and puts the originals back when
the ``with`` block ends.  A span records its name, start, end and the
span open when it began (its parent).  Spans stay in memory; the caller
writes them out with :meth:`Tracer.write` when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import statistics
from array import array
from time import perf_counter_ns

import numpy as np

from adacubic import driver, harness, verify
from adacubic.subproblem import SolverStallError

ORACLE = ("eval", "grad", "hvp")
SUITES = ("kkt", "duality", "phi_calculus", "hutchinson")


class Tracer:
    def __init__(self):
        self.names = []
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._open = [-1]
        self.data_passes = 0.0   # full-batch call = 1, batch call = batch/n
        self.newton_iters = []   # one entry per root_finder solve that returned
        self.stalls = 0          # SolverStallError raised by root_finder

    def _begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1])
        self.starts.append(0)
        self.ends.append(0)
        self._open.append(i)
        self.starts[i] = perf_counter_ns()
        return i

    def _end(self, i: int) -> None:
        self.ends[i] = perf_counter_ns()
        self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(i)
        return traced

    def wrap_oracle(self, kind: str, fn, num_samples: int):
        """Objective callables get the batch as their last positional argument."""
        full, part = f"problems.{kind}.full", f"problems.{kind}.batch"

        def traced(*args):
            batch = args[-1]
            if batch is None or num_samples == 0:
                i = self._begin(full)
                self.data_passes += 1.0
            else:
                i = self._begin(part)
                self.data_passes += len(batch) / num_samples
            try:
                return fn(*args)
            finally:
                self._end(i)
        return traced

    def wrap_root_finder(self, fn):
        def traced(*args, **kwargs):
            i = self._begin("subproblem.root_finder")
            try:
                sol = fn(*args, **kwargs)
            except SolverStallError:
                self.stalls += 1
                raise
            finally:
                self._end(i)
            self.newton_iters.append(sol.newton_iters)
            return sol
        return traced

    def wrap_build(self, fn):
        """``build_problem`` whose Objective's callables are traced."""
        build = self.wrap("harness.build_problem", fn)

        def traced(params):
            obj, x0 = build(params)
            n = obj.num_samples
            return dataclasses.replace(
                obj,
                eval_fn=self.wrap_oracle("eval", obj.eval_fn, n),
                grad_fn=self.wrap_oracle("grad", obj.grad_fn, n),
                hvp_fn=self.wrap_oracle("hvp", obj.hvp_fn, n)), x0
        return traced

    def write(self, path) -> None:
        t0 = self.starts[0] if self.starts else 0
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{self.parents[i]},{name},"
                         f"{self.starts[i] - t0},{self.ends[i] - t0}\n")


@contextlib.contextmanager
def patched(replacements):
    """Set ``(module, attribute, value)`` triples; restore them on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


def install(tracer: Tracer):
    """Trace every layer boundary, looked up where the caller looks it up:
    ``harness`` imported ``run``/``run_baseline`` by name, ``driver`` and
    ``verify`` imported ``root_finder`` and the others by name."""
    t = tracer
    names = [(harness, "parse_config_text"), (harness, "load_config"),
             (harness, "run_one"), (harness, "write_trajectory_csv"),
             (harness, "write_summary_csv")]
    replacements = [(mod, attr, t.wrap(f"harness.{attr}", getattr(mod, attr)))
                    for mod, attr in names]
    replacements += [
        (harness, "build_problem", t.wrap_build(harness.build_problem)),
        (harness, "run", t.wrap("driver.run", harness.run)),
        (harness, "run_baseline", t.wrap("driver.run_baseline", harness.run_baseline)),
        (driver, "adacubic_step", t.wrap("driver.adacubic_step", driver.adacubic_step)),
        (driver, "hutchinson_diag",
         t.wrap("hutchinson.hutchinson_diag", driver.hutchinson_diag)),
        (driver, "root_finder", t.wrap_root_finder(driver.root_finder)),
        (verify, "root_finder", t.wrap_root_finder(verify.root_finder)),
        (verify, "brute_force_subproblem_min",
         t.wrap("problems.brute_force_subproblem_min",
                verify.brute_force_subproblem_min)),
    ]
    replacements += [(verify, f"{s}_suite", t.wrap(f"verify.{s}_suite",
                                                   getattr(verify, f"{s}_suite")))
                     for s in SUITES]
    return patched(replacements)


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, rounds: int, iters: int, accepted: int,
                  adacubic_iters: int, csv_bytes: int, csv_rows: int) -> dict:
    """Per-layer figures from the spans of ``rounds`` identical rounds.

    ``iters`` counts every optimizer iteration of those rounds;
    ``accepted`` and ``adacubic_iters`` count AdaCubic's steps only.
    Totals are per round; a ratio whose base is zero reads 0.
    """
    code = {}
    codes = np.fromiter((code.setdefault(n, len(code)) for n in tracer.names),
                        dtype=np.int64, count=len(tracer.names))
    dur = (np.frombuffer(tracer.ends, dtype=np.int64)
           - np.frombuffer(tracer.starts, dtype=np.int64)) / 1e9
    parents = np.frombuffer(tracer.parents, dtype=np.int64)
    child = parents >= 0
    self_s = dur - np.bincount(parents[child], weights=dur[child],
                               minlength=len(dur))

    def mask(*wanted):
        return np.isin(codes, [code[w] for w in wanted if w in code])

    def per_iter(count):
        return count / iters if iters else 0.0

    m = {}
    oracle = mask(*[f"problems.{k}.{b}" for k in ORACLE for b in ("full", "batch")])
    for k in ORACLE:
        full = int(mask(f"problems.{k}.full").sum())
        part = int(mask(f"problems.{k}.batch").sum())
        m[f"problems.{k}_calls_per_iter"] = per_iter(full + part)
        m[f"problems.{k}_calls_per_iter.full"] = per_iter(full)
        m[f"problems.{k}_calls_per_iter.batch"] = per_iter(part)
    m["problems.data_passes_per_iter"] = per_iter(tracer.data_passes)
    for k in ORACLE:
        m[f"problems.{k}_us"] = _median(
            dur[mask(f"problems.{k}.full", f"problems.{k}.batch")]) * 1e6
    m["problems.busy_s"] = float(dur[oracle].sum()) / rounds
    brute = mask("problems.brute_force_subproblem_min")
    m["problems.brute_force_calls"] = int(brute.sum()) / rounds
    m["problems.brute_force_s"] = float(dur[brute].sum()) / rounds

    hutch = mask("hutchinson.hutchinson_diag")
    m["hutchinson.calls_per_iter"] = per_iter(int(hutch.sum()))
    m["hutchinson.self_us"] = _median(self_s[hutch]) * 1e6

    solves = mask("subproblem.root_finder")
    m["subproblem.solves"] = int(solves.sum()) / rounds
    m["subproblem.us_per_solve"] = _median(dur[solves]) * 1e6
    m["subproblem.newton_iters_mean"] = (float(np.mean(tracer.newton_iters))
                                         if tracer.newton_iters else 0.0)
    m["subproblem.newton_iters_max"] = max(tracer.newton_iters, default=0)
    m["subproblem.stalls"] = tracer.stalls / rounds

    loop = mask("driver.run", "driver.run_baseline", "driver.adacubic_step")
    m["driver.self_us_per_iter"] = per_iter(float(self_s[loop].sum()) * 1e6)
    m["driver.accepted_per_iter"] = accepted / adacubic_iters if adacubic_iters else 0.0

    parse = mask("harness.parse_config_text")
    m["harness.load_config_s"] = _median(dur[parse])
    build = mask("harness.build_problem")
    m["harness.build_calls"] = int(build.sum()) / rounds
    m["harness.build_s"] = float(dur[build].sum()) / rounds
    write_s = float(dur[mask("harness.write_trajectory_csv",
                             "harness.write_summary_csv")].sum())
    m["harness.csv_write_s"] = write_s / rounds
    m["harness.csv_bytes"] = csv_bytes / rounds
    m["harness.csv_us_per_row"] = write_s * 1e6 / csv_rows if csv_rows else 0.0

    for s in SUITES:
        m[f"verify.{s}_s"] = float(dur[mask(f"verify.{s}_suite")].sum()) / rounds
    m["verify.duality_probe_s"] = float(self_s[mask("verify.duality_suite")].sum()) / rounds
    return m
