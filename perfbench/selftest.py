"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/selftest.py

They run every workload, show that each check rejects a wrong output,
and show that tracing changes no byte of a trajectory CSV.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

assert run.use_source()

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from adacubic import harness  # noqa: E402
from adacubic.config import IterationClass  # noqa: E402
from adacubic.driver import StepRecord  # noqa: E402
from adacubic.subproblem import SubproblemStatus  # noqa: E402


@pytest.mark.parametrize("name", run.NAMES)
def test_tiny_workload_passes_its_checks(name, tmp_path):
    rnd = workloads.make(name, 3, tiny=True).round(str(tmp_path / "csv"))
    assert rnd.iters > 0 and rnd.solve_s > 0.0
    assert rnd.ops and all(op.errors == [] for op in rnd.ops)


def tiny_logistic_round(tmp_path):
    wl = workloads.make("logistic-grid", 1, tiny=True)
    out = tmp_path / "csv"
    wl.round(str(out))
    cfg = harness.parse_config_text(wl.text)
    return wl, cfg, out


def test_trajectory_csv_rejects_truncated_empty_and_altered_files(tmp_path):
    wl = workloads.make("rosenbrock-1000", 0, tiny=True)
    with workloads.captured_runs() as runs:
        wl.round(str(tmp_path / "csv"))
    recs = runs[0][3].records
    path = next((tmp_path / "csv").glob("*seed0.csv"))
    lines = path.read_text().splitlines(keepends=True)
    assert checks.trajectory_csv(str(path), recs, rows=20) == []
    assert checks.trajectory_csv(str(path), recs, rows=21)          # wrong budget
    assert checks.trajectory_csv(str(path), recs, below=20)         # did not stop
    path.write_text("".join(lines[:-1]))                            # truncated
    assert checks.trajectory_csv(str(path), recs, rows=20)
    path.write_text(lines[0])                                       # empty
    assert checks.trajectory_csv(str(path), [], rows=None)
    fields = lines[5].split(",")
    fields[2] = repr(float(fields[2]) * (1 + 1e-15))                # one ulp or so
    path.write_text("".join(lines[:5] + [",".join(fields)] + lines[6:]))
    assert checks.trajectory_csv(str(path), recs, rows=20)
    path.write_text("".join(["iter,loss\n"] + lines[1:]))           # header
    assert checks.trajectory_csv(str(path), recs, rows=20)


def test_summary_check_rejects_a_changed_value(tmp_path):
    wl, cfg, out = tiny_logistic_round(tmp_path)
    cells = {("logistic", o): [str(out / f"logistic__{o}__seed{s}.csv") for s in cfg.seeds]
             for o in cfg.optimizers}
    summary = out / "summary.csv"
    assert checks.summary_csv(str(summary), cells, cfg.max_iters) == []
    rows = summary.read_text().splitlines()
    parts = rows[1].split(",")
    parts[2] = repr(float(parts[2]) + 1e-9)
    summary.write_text("\n".join([rows[0], ",".join(parts)] + rows[2:]) + "\n")
    assert checks.summary_csv(str(summary), cells, cfg.max_iters)


def test_oracle_checks_reject_a_perturbed_gradient_and_hvp():
    obj, _ = harness.build_problem({"kind": "logistic", "n": 300, "dim": 6, "l2": 1e-3})
    x = np.linspace(-1.0, 1.0, 6)
    bump = np.zeros(6)
    bump[2] = 1e-3
    assert checks.grad_matches_fd(obj, x, np.random.default_rng(0)) == []
    assert checks.hvp_matches_fd(obj, x, np.random.default_rng(0)) == []
    bad_g = dataclasses.replace(obj, grad_fn=lambda w, b=None: obj.grad_fn(w, b) + bump)
    bad_h = dataclasses.replace(obj, hvp_fn=lambda w, v, b=None: obj.hvp_fn(w, v, b) + bump)
    assert checks.grad_matches_fd(bad_g, x, np.random.default_rng(0))
    assert checks.hvp_matches_fd(bad_h, x, np.random.default_rng(0))


def test_rosenbrock_checks_reject_a_wrong_hvp_and_an_off_minimizer_point():
    obj, _ = harness.build_problem({"kind": "rosenbrock", "dim": 7})
    x = np.linspace(-1.0, 1.5, 7)
    assert checks.hvp_matches_tridiagonal(obj, x, np.random.default_rng(0)) == []
    bad = dataclasses.replace(obj, hvp_fn=lambda w, v, b=None: obj.hvp_fn(w, v, b) * (1 + 1e-9))
    assert checks.hvp_matches_tridiagonal(bad, x, np.random.default_rng(0))
    assert np.allclose(checks.rosenbrock_grad(x), obj.grad(x), rtol=1e-14)
    assert checks.at_minimizer(np.ones(2), 1e-6, 1e-4) == []
    assert checks.at_minimizer(np.array([1.0, 1.0 + 2e-4]), 1e-6, 1.0)   # gradient
    assert checks.at_minimizer(np.array([1.0 + 2e-4, 1.0 + 4e-4]), 1.0, 1e-4)  # distance


def record(it, before, after, accepted, xi=1.0):
    return StepRecord(it, before, after, 1.0, 0.5, 0.0, xi, 0.1,
                      IterationClass.SUCCESSFUL, SubproblemStatus.INTERIOR, accepted)


def test_descent_check_rejects_a_rising_accepted_step_and_a_low_xi():
    good = [record(0, 2.0, 1.0, True), record(1, 1.0, 1.5, False)]
    assert checks.accepted_steps_descend(good, 1e-6) == []
    assert checks.accepted_steps_descend([record(0, 1.0, 1.0, True)], 1e-6)
    assert checks.accepted_steps_descend([record(0, 2.0, 1.0, True, xi=1e-7)], 1e-6)


def test_verify_check_rejects_a_fail_line_and_a_missing_suite():
    suites = ("kkt", "duality")
    ok = "PASS kkt: n=5\nPASS duality: n=2\nverify: all suites passed\n"
    assert checks.verify_report(ok, suites) == {"kkt": [], "duality": []}
    failed = checks.verify_report(ok.replace("PASS kkt", "FAIL kkt"), suites)
    assert failed["kkt"] and failed["duality"] == []
    assert checks.verify_report("PASS kkt: n=5\n", suites)["duality"]


def test_final_loss_check_is_a_known_fault_only_for_adacubic():
    wl = workloads.make("logistic-grid", 0, tiny=True)
    obj, _ = workloads.build_problem(harness.parse_config_text(wl.text).problems["logistic"])
    far = np.full(obj.dim, 50.0)
    traj = type("Traj", (), {"final_x": far})
    for kind, known in (("adacubic", True), ("sgd", False)):
        op = workloads.Op(kind)
        wl.check_run(op, obj, kind, traj, 0)
        assert bool(op.known) is known and bool(op.errors) is not known


SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TIMES = {m["name"] for m in SPEC["per_layer"] if m["unit"].split("/")[0] in ("s", "us")}


def csv_bytes(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


@pytest.mark.parametrize("name", ["logistic-grid", "rosenbrock-1000"])
def test_tracing_changes_no_byte_and_counts_repeat(name, tmp_path):
    plain = tmp_path / "plain"
    workloads.make(name, 2, tiny=True).round(str(plain))
    counts = []
    for k in range(2):
        traced = tmp_path / f"traced{k}"
        tracer = spans.Tracer()
        with spans.install(tracer):
            rnd = workloads.make(name, 2, tiny=True).round(str(traced))
        assert csv_bytes(traced) == csv_bytes(plain)
        assert any(p >= 0 for p in tracer.parents)
        m = spans.layer_metrics(tracer, 1, rnd.iters, rnd.accepted, rnd.adacubic_iters,
                                rnd.csv_bytes, rnd.csv_rows)
        counts.append({k: v for k, v in m.items() if k not in TIMES})
    assert counts[0] == counts[1]
    assert counts[0]["harness.build_calls"] > 1 and counts[0]["subproblem.solves"] > 0
    # the originals are back once tracing ends
    assert harness.build_problem is workloads.build_problem


def test_run_prints_every_declared_metric(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "rosenbrock-1000",
             "--seed", "1", "--seconds", "0", "--trace", str(trace)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["correct"] and out["attempted"] == 1 and out["failed"] == 0
        assert set(out["metrics"]) == {m["name"] for m in SPEC[key]}
        assert all(math.isfinite(v["value"]) for v in out["metrics"].values())


def test_run_exits_nonzero_without_the_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "verify-suites", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
