"""Config parsing, the experiment grid, CSV schemas, summaries, deviation
measurement, and the CLI."""

import os

import numpy as np
import pytest

from adacubic import cli, harness
from adacubic.harness import (ConfigError, SUMMARY_HEADER, TRAJECTORY_HEADER,
                              build_problem, load_config, parse_config_text,
                              measure_subsample_deviation, recompute_summary,
                              run_experiment)
from adacubic.problems import make_synthetic_logistic

BASIC = """
[run]
seeds = 0,1,2
max_iters = 40
stop_grad_norm = 1e-6

[problem.quad]
kind = quadratic
diag = 1,2
g0 = 1,1
x0 = 1,1

[problem.saddle]
kind = saddle

[optimizer.ac]
kind = adacubic

[optimizer.sgd01]
kind = sgd
lr = 0.1
"""


def test_parse_basic_config():
    cfg = parse_config_text(BASIC)
    assert cfg.seeds == [0, 1, 2]
    assert cfg.max_iters == 40
    assert cfg.stop_grad_norm == 1e-6
    assert set(cfg.problems) == {"quad", "saddle"}
    assert set(cfg.optimizers) == {"ac", "sgd01"}
    assert cfg.optimizers["sgd01"]["lr"] == 0.1


def test_parse_comments_and_full_batch():
    cfg = parse_config_text("""
[run]  # run section
batch_size = full
[problem.p]
kind = saddle
[optimizer.o]
kind = adam
""")
    assert cfg.batch_size is None


@pytest.mark.parametrize("text,fragment", [
    ("[bogus]\nx = 1", "unknown section"),
    ("x = 1", "inside a section"),
    ("[run]\nwat = 3\n[problem.p]\nkind = saddle\n[optimizer.o]\nkind = sgd",
     "unknown [run] key"),
    ("[run]\nmax_iters = 0\n[problem.p]\nkind = saddle\n[optimizer.o]\nkind = sgd",
     "max_iters"),
    ("[optimizer.o]\nkind = sgd", "no [problem.*]"),
    ("[problem.p]\nkind = saddle", "no [optimizer.*]"),
    ("[problem.p]\nkind = nope\n[optimizer.o]\nkind = sgd", "kind"),
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = lbfgs", "unknown kind"),
    ("[problem.p]\nkind = saddle\nx0 = 1,2,3\n[optimizer.o]\nkind = sgd", "x0"),
])
def test_config_errors_name_offender(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert fragment in str(err.value)


def test_build_problem_kinds():
    obj, x0 = build_problem({"kind": "quadratic", "diag": [1, 2], "g0": [0, 0]})
    assert obj.dim == 2
    obj, x0 = build_problem({"kind": "rosenbrock", "dim": 3})
    assert obj.dim == 3 and x0[0] == -1.2
    obj, x0 = build_problem({"kind": "saddle"})
    assert obj.dim == 2
    obj, x0 = build_problem({"kind": "logistic", "n": 50, "dim": 4, "l2": 0.01})
    assert obj.dim == 4 and obj.num_samples == 50


def test_build_problem_from_csv(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((8, 2))
    y = np.where(rng.random(8) < 0.5, -1.0, 1.0)
    path = tmp_path / "d.csv"
    np.savetxt(path, np.column_stack([X, y]), delimiter=",")
    obj, x0 = build_problem({"kind": "logistic", "data": str(path)})
    assert obj.num_samples == 8 and obj.dim == 2


GRID = """
[run]
seeds = 0,1,2
max_iters = 5
[problem.ros]
kind = rosenbrock
dim = 3
[optimizer.ac]
kind = adacubic
[optimizer.sgd]
kind = sgd
lr = 0.001
[optimizer.adam]
kind = adam
"""


def _count_builds(monkeypatch):
    built = []

    def counted(params):
        built.append(dict(params))
        return build_problem(params)

    monkeypatch.setattr(harness, "build_problem", counted)
    return built


def test_each_problem_is_built_once_per_experiment(tmp_path, monkeypatch):
    built = _count_builds(monkeypatch)
    cfg = parse_config_text(GRID)
    paths, _ = run_experiment(cfg, str(tmp_path / "out"))
    assert len(paths) == 9 and len(built) == 1


def test_params_changed_after_parsing_are_honoured(tmp_path, monkeypatch):
    built = _count_builds(monkeypatch)
    cfg = parse_config_text(GRID)
    cfg.problems["ros"]["dim"] = 4
    cfg.problems["ros"]["x0"] = [0.5, 0.5, 0.5, 0.5]
    cfg.seeds = [0]
    run_experiment(cfg, str(tmp_path / "out"))
    assert [p["dim"] for p in built] == [3, 4]
    traj = harness.run_one(cfg.problems["ros"], cfg.optimizers["sgd"], 0, cfg)
    assert traj.final_x.size == 4 and len(built) == 2


def test_grid_counting_contract(tmp_path):
    cfg = parse_config_text(BASIC)
    paths, summary_path = run_experiment(cfg, str(tmp_path / "out"))
    assert len(paths) == 2 * 2 * 3  # problems x optimizers x seeds
    with open(summary_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == SUMMARY_HEADER
    assert len(lines) == 1 + 4  # one row per (problem, optimizer)


def test_trajectory_csv_schema(tmp_path):
    cfg = parse_config_text(BASIC)
    paths, _ = run_experiment(cfg, str(tmp_path / "out"))
    path = os.path.join(str(tmp_path / "out"), "quad__ac__seed0.csv")
    assert path in paths
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ("iter,loss_before,loss_after,grad_norm,rho,nu,xi,"
                        "step_norm,status,subproblem_status,accepted")
    assert lines[0] == TRAJECTORY_HEADER
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[8] in ("VerySuccessful", "Successful", "Unsuccessful")
    assert first[9] in ("Interior", "Boundary", "HardCase")
    assert first[10] in ("True", "False")


def test_experiment_determinism(tmp_path):
    cfg = parse_config_text(BASIC)
    run_experiment(cfg, str(tmp_path / "a"))
    run_experiment(cfg, str(tmp_path / "b"))
    for name in sorted(os.listdir(tmp_path / "a")):
        with open(tmp_path / "a" / name, "rb") as fa, \
                open(tmp_path / "b" / name, "rb") as fb:
            assert fa.read() == fb.read(), name


def test_summary_recompute_matches(tmp_path):
    cfg = parse_config_text(BASIC)
    _, summary_path = run_experiment(cfg, str(tmp_path / "out"))
    rows = {}
    with open(summary_path) as fh:
        fh.readline()
        for line in fh:
            parts = line.rstrip("\n").split(",")
            rows[(parts[0], parts[1])] = [float(v) for v in parts[2:]]
    for row in recompute_summary(str(tmp_path / "out"), cfg):
        emitted = rows[(row.problem, row.optimizer)]
        recomputed = [row.mean_final_loss, row.std_final_loss,
                      row.mean_iters_to_threshold, row.success_rate]
        np.testing.assert_allclose(recomputed, emitted, rtol=1e-12)


def test_failed_run_counts_as_unsuccessful(tmp_path):
    # batch_size larger than the dataset makes every draw fail
    cfg = parse_config_text("""
[run]
seeds = 0
max_iters = 10
batch_size = 999

[problem.log]
kind = logistic
n = 20
dim = 2

[optimizer.ac]
kind = adacubic
""")
    _, summary_path = run_experiment(cfg, str(tmp_path / "out"))
    with open(summary_path) as fh:
        fh.readline()
        parts = fh.readline().split(",")
    assert float(parts[-1]) == 0.0  # success_rate


def test_diverged_baseline_run_is_empty_and_unsuccessful(tmp_path):
    cfg = parse_config_text("""
[run]
seeds = 0
max_iters = 400

[problem.ros]
kind = rosenbrock
dim = 10

[optimizer.sgd]
kind = sgd
lr = 0.01
momentum = 0.5
""")
    with np.errstate(over="ignore", invalid="ignore"):
        (path,), summary_path = run_experiment(cfg, str(tmp_path / "out"))
    with open(path) as fh:
        assert fh.read() == TRAJECTORY_HEADER + "\n"
    with open(summary_path) as fh:
        fh.readline()
        parts = fh.readline().split(",")
    assert float(parts[-1]) == 0.0  # success_rate


def test_deviation_measurement_quantiles():
    obj = make_synthetic_logistic(128, 4, 1e-2, 0)
    x = np.zeros(4)
    small = measure_subsample_deviation(obj, x, 16, 300, 1)
    large = measure_subsample_deviation(obj, x, 64, 300, 1)
    assert np.median(large["grad_devs"]) < np.median(small["grad_devs"])
    many = measure_subsample_deviation(obj, x, 16, 300, 16)
    assert np.median(many["diag_devs"]) <= np.median(small["diag_devs"])
    assert list(small["quantile_levels"]) == [0.1, 0.25, 0.5, 0.75, 0.9]


def test_deviation_rejects_deterministic_objective():
    obj, x0 = build_problem({"kind": "saddle"})
    with pytest.raises(ValueError):
        measure_subsample_deviation(obj, x0, 4, 10, 1)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write_config(tmp_path, text=BASIC):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


def test_cli_run(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    code = cli.main(["run", "--config", cfg_path,
                     "--out", str(tmp_path / "out")])
    assert code == 0
    assert "summary.csv" in capsys.readouterr().out
    assert os.path.exists(tmp_path / "out" / "summary.csv")


def test_cli_run_overrides(tmp_path):
    cfg_path = _write_config(tmp_path)
    code = cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"),
                     "--seeds", "5", "--problem", "saddle",
                     "--optimizer", "ac"])
    assert code == 0
    names = sorted(os.listdir(tmp_path / "o"))
    assert names == ["saddle__ac__seed5.csv", "summary.csv"]


def test_cli_usage_errors(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    assert cli.main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert cli.main(["run", "--config", cfg_path, "--problem", "nope"]) == 2
    assert cli.main(["run", "--config", cfg_path, "--optimizer", "nope"]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\nwat = 1\n")
    assert cli.main(["run", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_deviation(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, """
[run]
seeds = 0
[problem.log]
kind = logistic
n = 64
dim = 3
l2 = 0.01
[optimizer.ac]
kind = adacubic
""")
    code = cli.main(["deviation", "--config", cfg_path, "--trials", "50"])
    assert code == 0
    out = capsys.readouterr().out
    assert "quantile,grad_deviation,diag_deviation" in out
    assert out.count("\n") >= 6


def test_cli_deviation_needs_stochastic_problem(tmp_path):
    cfg_path = _write_config(tmp_path)
    assert cli.main(["deviation", "--config", cfg_path, "--trials", "5"]) == 2
