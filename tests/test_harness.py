"""Config parsing, the experiment grid, CSV schemas, summaries, and the CLI
with its deviation measurement."""

import itertools
import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from adacubic import IterationClass, StepRecord, SubproblemStatus, cli, harness, verify
from adacubic.harness import (ConfigError, SUMMARY_HEADER, TRAJECTORY_HEADER,
                              build_problem, load_config, parse_config_text,
                              run_experiment)
from adacubic.problems import make_quadratic, make_synthetic_logistic

HUGE = "9" * 400  # an integer beyond the largest float, about 1.8e308
MINIMAL = "[problem.p]\nkind = saddle\n[optimizer.o]\nkind = sgd\n"

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
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = adacubic\netaa1 = 0.5",
     "optimizer.o: unknown key 'etaa1'"),
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = adacubic\nlr = 0.5",
     "optimizer.o: unknown key 'lr'"),
    ("[problem.p]\nkind = rosenbrock\ndiim = 7\n[optimizer.o]\nkind = sgd",
     "problem.p: unknown key 'diim'"),
    # true and false are not values: no key takes a boolean
    ("[problem.p]\nkind = quadratic\ndiag = true\n[optimizer.o]\nkind = sgd",
     "problem.p: diag: expected a number or comma list"),
    ("[problem.p]\nkind = quadratic\nx0 = false\n[optimizer.o]\nkind = sgd",
     "problem.p: x0: expected a number or comma list"),
    ("[problem.p]\nkind = logistic\nl2 = true\n[optimizer.o]\nkind = sgd",
     "problem.p: l2 must be a number, got 'true'"),
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = sgd\nlr = true",
     "optimizer.o: lr must be a number, got 'true'"),
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = adacubic\nxi0 = true",
     "optimizer.o: unknown key 'xi0' for kind 'adacubic'"),
    # every value of a section is converted and range-checked at load
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = sgd\nlr = abc",
     "optimizer.o: lr must be a number"),
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = sgd\nlr = -1",
     "optimizer.o: need 0 < lr"),
    # the xi floor and the initial xi are constants, not keys
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = adacubic\nxi0 = -1",
     "optimizer.o: unknown key 'xi0' for kind 'adacubic'"),
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = adacubic\nxi0 = abc",
     "optimizer.o: unknown key 'xi0' for kind 'adacubic'"),
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = adacubic\neps_m = abc",
     "optimizer.o: unknown key 'eps_m' for kind 'adacubic'"),
    ("[problem.p]\nkind = logistic\nl2 = abc\n[optimizer.o]\nkind = sgd",
     "problem.p: l2 must be a number, got 'abc'"),
    ("[problem.p]\nkind = saddle\nx0 = 1,abc\n[optimizer.o]\nkind = sgd",
     "problem.p: x0: expected a number or comma list"),
    # a number too large for a float is an error at load, not at run time
    (f"[problem.p]\nkind = saddle\nx0 = {HUGE},1\n[optimizer.o]\nkind = sgd",
     "problem.p: x0 has a value too large for a float"),
    (f"[problem.p]\nkind = quadratic\ndiag = 1,{HUGE}\n[optimizer.o]\nkind = sgd",
     "problem.p: diag has a value too large for a float"),
    (f"[problem.p]\nkind = logistic\nl2 = {HUGE}\n[optimizer.o]\nkind = sgd",
     "problem.p: l2 is too large for a float"),
    (f"[run]\nstop_grad_norm = {HUGE}\n[problem.p]\nkind = saddle\n[optimizer.o]\n"
     "kind = sgd", "stop_grad_norm is too large for a float"),
    (f"[problem.p]\nkind = saddle\n[optimizer.o]\nkind = adacubic\nxi0 = {HUGE}",
     "optimizer.o: unknown key 'xi0' for kind 'adacubic'"),
    (f"[problem.p]\nkind = saddle\n[optimizer.o]\nkind = adacubic\neps_m = {HUGE}",
     "optimizer.o: unknown key 'eps_m' for kind 'adacubic'"),
    (f"[problem.p]\nkind = saddle\n[optimizer.o]\nkind = sgd\nlr = {HUGE}",
     "optimizer.o: lr is too large for a float"),
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = adacubic\n"
     "hutchinson_samples = 2.5", "optimizer.o: hutchinson_samples"),
    ("[run]\nseeds = -1\n[problem.p]\nkind = saddle\n[optimizer.o]\nkind = sgd",
     "seeds must be non-negative integers"),
    ("[run]\nseeds = 0,1.5\n[problem.p]\nkind = saddle\n[optimizer.o]\nkind = sgd",
     "seeds must be non-negative integers"),
    # a seed goes into a file name, so it is bounded at load
    (f"[run]\nseeds = 0,{2 ** 64}\n[problem.p]\nkind = saddle\n[optimizer.o]\nkind = sgd",
     "seeds must be non-negative integers below 2**64"),
    (f"[run]\nseeds = {HUGE}\n[problem.p]\nkind = saddle\n[optimizer.o]\nkind = sgd",
     "seeds must be non-negative integers below 2**64"),
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = adacubic\n"
     f"hutchinson_samples = {'9' * 30}",
     "optimizer.o: hutchinson_samples must be an integer in [1, sys.maxsize]"),
    # every [run] value is converted and range-checked at load
    ("[run]\nmax_iters = abc\n[problem.p]\nkind = saddle\n[optimizer.o]\nkind = sgd",
     "max_iters must be an integer >= 1"),
    ("[run]\nmax_iters = 2.5\n[problem.p]\nkind = saddle\n[optimizer.o]\nkind = sgd",
     "max_iters must be an integer >= 1"),
    ("[run]\nbatch_size = -3\n[problem.p]\nkind = saddle\n[optimizer.o]\nkind = sgd",
     "batch_size must be an integer >= 1"),
    ("[run]\nbatch_size = 0\n[problem.p]\nkind = saddle\n[optimizer.o]\nkind = sgd",
     "batch_size must be an integer >= 1"),
    ("[run]\nbatch_size = half\n[problem.p]\nkind = saddle\n[optimizer.o]\nkind = sgd",
     "batch_size must be an integer >= 1"),
    ("[run]\nstop_grad_norm = nan\n[problem.p]\nkind = saddle\n[optimizer.o]\nkind = sgd",
     "need 0 <= stop_grad_norm < inf"),
    ("[run]\nstop_grad_norm = -1e-6\n[problem.p]\nkind = saddle\n[optimizer.o]\nkind = sgd",
     "need 0 <= stop_grad_norm < inf"),
    ("[run]\nstop_grad_norm = inf\n[problem.p]\nkind = saddle\n[optimizer.o]\nkind = sgd",
     "need 0 <= stop_grad_norm < inf"),
    ("[run]\nstop_grad_norm = abc\n[problem.p]\nkind = saddle\n[optimizer.o]\nkind = sgd",
     "need 0 <= stop_grad_norm < inf"),
    # problem sizes and data seeds are integers, never truncated
    ("[problem.p]\nkind = rosenbrock\ndim = 2.5\n[optimizer.o]\nkind = sgd",
     "problem.p: dim must be an integer >= 1, got 2.5"),
    ("[problem.p]\nkind = logistic\nn = 60.9\n[optimizer.o]\nkind = sgd",
     "problem.p: n must be an integer >= 1, got 60.9"),
    ("[problem.p]\nkind = logistic\ndim = 0\n[optimizer.o]\nkind = sgd",
     "problem.p: dim must be an integer >= 1, got 0"),
    ("[problem.p]\nkind = logistic\ndata_seed = 1.5\n[optimizer.o]\nkind = sgd",
     "problem.p: data_seed must be an integer >= 0, got 1.5"),
    ("[problem.p]\nkind = logistic\ndata_seed = -1\n[optimizer.o]\nkind = sgd",
     "problem.p: data_seed must be an integer >= 0, got -1"),
    # NaN and infinity fail every problem value check
    ("[problem.p]\nkind = logistic\nl2 = nan\n[optimizer.o]\nkind = sgd",
     "problem.p: need 0 <= l2 < inf, got nan"),
    ("[problem.p]\nkind = logistic\nl2 = inf\n[optimizer.o]\nkind = sgd",
     "problem.p: need 0 <= l2 < inf, got inf"),
    ("[problem.p]\nkind = logistic\nl2 = -1\n[optimizer.o]\nkind = sgd",
     "problem.p: need 0 <= l2 < inf, got -1"),
    ("[problem.p]\nkind = quadratic\ndiag = nan,1\n[optimizer.o]\nkind = sgd",
     "problem.p: diag must be finite"),
    ("[problem.p]\nkind = quadratic\ndiag = 1,1\ng0 = 0,-inf\n[optimizer.o]\nkind = sgd",
     "problem.p: g0 must be finite"),
    ("[problem.p]\nkind = quadratic\ndiag = 1,1\nx0 = inf,1\n[optimizer.o]\nkind = sgd",
     "problem.p: x0 must be finite"),
    ("[problem.p]\nkind = rosenbrock\nx0 = nan,1\n[optimizer.o]\nkind = sgd",
     "problem.p: x0 must be finite"),
    # a size past sys.maxsize fits no array, and the error names its key
    (f"[problem.p]\nkind = rosenbrock\ndim = {'9' * 400}\n[optimizer.o]\nkind = sgd",
     "problem.p: dim must be at most sys.maxsize"),
    (f"[problem.p]\nkind = logistic\nn = {'9' * 30}\n[optimizer.o]\nkind = sgd",
     "problem.p: n must be at most sys.maxsize"),
    (f"[problem.p]\nkind = logistic\ndim = {'9' * 19}\n[optimizer.o]\nkind = sgd",
     "problem.p: dim must be at most sys.maxsize"),
    # a data file sets the size of a logistic problem, so a size key is an error
    ("[problem.p]\nkind = logistic\ndata = d.csv\ndim = 7\n[optimizer.o]\nkind = sgd",
     "problem.p: 'dim' is ignored when 'data' is given"),
    ("[problem.p]\nkind = logistic\ndata = d.csv\nn = 3\n[optimizer.o]\nkind = sgd",
     "problem.p: 'n' is ignored when 'data' is given"),
    ("[problem.p]\nkind = logistic\ndata = d.csv\ndata_seed = 1\n[optimizer.o]\nkind = sgd",
     "problem.p: 'data_seed' is ignored when 'data' is given"),
    # a repeated section or key would silently replace the first; [run] may
    # reopen, but each of its keys is still set once
    (f"{MINIMAL}[problem.p]\nkind = rosenbrock\ndim = 5",
     "line 5: duplicate section [problem.p]"),
    (f"{MINIMAL}[optimizer.o]\nkind = adam", "line 5: duplicate section [optimizer.o]"),
    (f"[run]\nmax_iters = 3\nmax_iters = 4\n{MINIMAL}",
     "line 3: duplicate key 'max_iters' in [run]"),
    (f"[run]\nmax_iters = 3\n{MINIMAL}[run]\nmax_iters = 4",
     "line 8: duplicate key 'max_iters' in [run]"),
    ("[problem.p]\nkind = rosenbrock\ndim = 3\ndim = 5\n[optimizer.o]\nkind = sgd",
     "line 4: duplicate key 'dim' in [problem.p]"),
    (f"{MINIMAL}lr = 0.1\nlr = 0.2", "line 6: duplicate key 'lr' in [optimizer.o]"),
    # a repeated seed would run twice into one file and count twice in the summary
    (f"[run]\nseeds = 0,0\n{MINIMAL}", "seeds must be distinct, got 0 twice"),
    (f"[run]\nseeds = 3,1,2,1\n{MINIMAL}", "seeds must be distinct, got 1 twice"),
    # the subproblem solver's tolerances are constants, not config keys
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = adacubic\nkappa_easy = 0.1",
     "optimizer.o: unknown key 'kappa_easy'"),
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = adacubic\nkkt_tol = 1e-6",
     "optimizer.o: unknown key 'kkt_tol'"),
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = adacubic\nmax_newton_iters = 50",
     "optimizer.o: unknown key 'max_newton_iters'"),
    # so are the trust-region rule's thresholds and factors
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = adacubic\neta1 = 0.5",
     "optimizer.o: unknown key 'eta1'"),
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = adacubic\neta2 = 0.5",
     "optimizer.o: unknown key 'eta2'"),
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = adacubic\nalpha1 = 2",
     "optimizer.o: unknown key 'alpha1'"),
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = adacubic\nalpha2 = 0.5",
     "optimizer.o: unknown key 'alpha2'"),
    # SGD and Adam take only a learning rate; their other values are constants
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = sgd\nmomentum = 0.5",
     "optimizer.o: unknown key 'momentum'"),
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = adam\nbeta1 = 0.5",
     "optimizer.o: unknown key 'beta1'"),
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = adam\nbeta2 = 0.5",
     "optimizer.o: unknown key 'beta2'"),
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = adam\neps = 1e-6",
     "optimizer.o: unknown key 'eps'"),
    # a section name goes into file names and summary fields
    ("[problem./abs/dir/esc]\nkind = saddle\n[optimizer.o]\nkind = sgd",
     "line 1: section name '/abs/dir/esc'"),
    ("[problem.]\nkind = saddle\n[optimizer.o]\nkind = sgd", "line 1: section name ''"),
    ("[problem.x,y]\nkind = saddle\n[optimizer.o]\nkind = sgd",
     "line 1: section name 'x,y'"),
    # (a__b, c) and (a, b__c) would write the same trajectory file
    ("[problem.a]\nkind = saddle\n[optimizer.b__c]\nkind = sgd",
     "line 3: section name 'b__c'"),
    # a comma list is not a kind
    ("[problem.p]\nkind = saddle,quadratic\n[optimizer.o]\nkind = sgd",
     "problem.p: unknown kind ['saddle', 'quadratic']"),
    ("[problem.p]\nkind = saddle\n[optimizer.o]\nkind = sgd,adam",
     "optimizer.o: unknown kind ['sgd', 'adam']"),
])
def test_config_errors_name_offender(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert fragment in str(err.value)


def _listed(array, values) -> bool:
    """Whether a default holds the float64 bytes of the list ``values``,
    converted as _as_array converts a written value."""
    listed = np.array(values, dtype=float, ndmin=1)
    return array.dtype == np.float64 and array.tobytes() == listed.tobytes()


def test_build_problem_kinds(monkeypatch):
    given = {}

    def seen(diag, g0):
        given.update(diag=diag, g0=g0)
        return make_quadratic(diag, g0)

    monkeypatch.setattr(harness, "make_quadratic", seen)
    obj, x0 = build_problem({"kind": "quadratic", "diag": [1, 2], "g0": [0, 0]})
    assert obj.dim == 2
    obj, x0 = build_problem({"kind": "quadratic", "diag": [1, 2, 3]})
    assert obj.dim == 3 and _listed(given["g0"], [0.0] * 3) and _listed(x0, [1.0] * 3)
    obj, x0 = build_problem({"kind": "quadratic"})
    assert _listed(given["diag"], [1.0]) and _listed(given["g0"], [0.0])
    assert _listed(x0, [1.0])
    for d in (2, 3, 1000):
        obj, x0 = build_problem({"kind": "rosenbrock", "dim": d})
        assert obj.dim == d and _listed(x0, [-1.2] + [1.0] * (d - 1))
    obj, x0 = build_problem({"kind": "saddle"})
    assert obj.dim == 2 and _listed(x0, [0.0, 0.0])
    obj, x0 = build_problem({"kind": "logistic", "n": 50, "dim": 4, "l2": 0.01})
    assert obj.dim == 4 and obj.num_samples == 50 and _listed(x0, [0.0] * 4)


def test_a_default_start_is_built_without_a_python_list():
    # numpy builds a default x0 whole: a traced peak of about the one
    # float64 vector, where a Python list of d floats, converted, holds two
    tracemalloc.start()
    try:
        build_problem({"kind": "rosenbrock", "dim": 10 ** 6})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * 10 ** 6


def test_build_problem_from_csv(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((8, 2))
    y = np.where(rng.random(8) < 0.5, -1.0, 1.0)
    path = tmp_path / "d.csv"
    np.savetxt(path, np.column_stack([X, y]), delimiter=",")
    obj, x0 = build_problem({"kind": "logistic", "data": str(path)})
    assert obj.num_samples == 8 and obj.dim == 2


# as written, up to a '#': it starts a comment in every value, paths too
@pytest.mark.parametrize("written, out", [("007", "007"), ("1e5", "1e5"),
                                          ("runs,v2", "runs,v2"), ("runs#2", "runs")],
                         ids=["007", "1e5", "runs,v2", "runs#2"])
def test_out_is_taken_as_written(written, out):
    assert parse_config_text(f"[run]\nout = {written}  # a path\n" + MINIMAL).out == out


def test_empty_out_is_a_config_error():
    with pytest.raises(ConfigError, match="out must name a directory"):
        parse_config_text("[run]\nout =\n" + MINIMAL)


def test_empty_out_flag_is_a_config_error(tmp_path, capsys, monkeypatch):
    # an empty --out is refused, not replaced by the config's out
    monkeypatch.chdir(tmp_path)
    cfg_path = _write_config(tmp_path, f"{BASIC}[run]\nout = {tmp_path / 'cfg_out'}\n")
    assert cli.main(["run", "--config", cfg_path, "--out", ""]) == 2
    assert capsys.readouterr().err.startswith("error: out must name a directory")
    assert not os.path.exists(tmp_path / "cfg_out")
    with pytest.raises(ConfigError, match="out must name a directory"):
        run_experiment(load_config(cfg_path), "")


def test_nan_features_are_a_config_error(tmp_path, capsys):
    # a run on them would fail, and the grid would still exit 0
    path = tmp_path / "f.csv"
    path.write_text("0.5,1\nnan,-1\n1.5,1\n")
    text = f"[problem.p]\nkind = logistic\ndata = {path}\n[optimizer.o]\nkind = adacubic\n"
    with pytest.raises(ConfigError, match="problem.p: features must be finite"):
        parse_config_text(text)
    assert cli.main(["run", "--config", _write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: problem.p: features must be finite\n"
    assert not os.path.exists(tmp_path / "o")


def test_data_is_taken_as_written(tmp_path, monkeypatch):
    # a file named 007 is read from 007, not from 7
    np.savetxt(tmp_path / "007", [[0.5, 1.0], [-0.5, -1.0], [1.5, 1.0]], delimiter=",")
    monkeypatch.chdir(tmp_path)
    cfg = parse_config_text("[problem.p]\nkind = logistic\ndata = 007\n"
                            "[optimizer.o]\nkind = sgd\n")
    assert cfg.problems["p"]["data"] == "007"
    assert cfg.built_problem(cfg.problems["p"])[0].num_samples == 3


def test_unreadable_data_is_a_config_error(tmp_path, capsys):
    text = f"[problem.p]\nkind = logistic\ndata = {tmp_path}\n[optimizer.o]\nkind = sgd\n"
    with pytest.raises(ConfigError, match="problem.p: "):
        parse_config_text(text)
    assert cli.main(["run", "--config", _write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: problem.p: ")


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


def test_a_list_value_changed_in_place_is_rebuilt(monkeypatch):
    built = _count_builds(monkeypatch)
    cfg = parse_config_text(GRID.replace("dim = 3", "dim = 3\nx0 = 1,1,1"))
    params = cfg.problems["ros"]
    params["x0"][0] = 0.5
    _, x0 = cfg.built_problem(params)
    assert x0[0] == 0.5 and len(built) == 2


def test_unchanged_params_are_not_rebuilt(monkeypatch):
    built = _count_builds(monkeypatch)
    cfg = parse_config_text(GRID)
    obj, _ = cfg.built_problem(cfg.problems["ros"])
    assert cfg.built_problem(cfg.problems["ros"])[0] is obj and len(built) == 1


def test_identical_sections_share_one_build(tmp_path, monkeypatch):
    built = _count_builds(monkeypatch)
    cfg = parse_config_text(GRID + "[problem.twin]\nkind = rosenbrock\ndim = 3\n")
    paths, _ = run_experiment(cfg, str(tmp_path / "out"))
    assert len(paths) == 18 and len(built) == 1


def test_grid_keeps_no_earlier_run_records(tmp_path, monkeypatch):
    # the summary needs only each run's final loss and length, so a run's
    # records may live only until the next run replaces them
    last_records, alive_at_start = [], []
    original = harness.run_one

    def run_one(*args):
        alive_at_start.append(sum(ref() is not None for ref in last_records))
        traj = original(*args)
        last_records.append(weakref.ref(traj.records[-1]))
        return traj

    monkeypatch.setattr(harness, "run_one", run_one)
    paths, _ = run_experiment(parse_config_text(GRID), str(tmp_path / "out"))
    assert len(paths) == 9 and max(alive_at_start) <= 1


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


def test_the_trajectory_header_names_the_record_fields_in_order():
    # the writer unpacks a record by position, so the columns follow its fields
    columns = [{"iter": "iteration"}.get(c, c) for c in TRAJECTORY_HEADER.split(",")]
    assert columns == list(StepRecord._fields)


def _reference_row(r):
    """A trajectory CSV row as one % format reading each Enum's .value: the
    reference for write_trajectory_csv."""
    return "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s,%s,%s\n" % (
        r.iteration, r.loss_before, r.loss_after, r.grad_norm, r.rho, r.nu, r.xi,
        r.step_norm, r.status.value, r.subproblem_status.value, r.accepted)


def test_trajectory_csv_bytes_match_a_reference_formatter(tmp_path):
    # every iteration and subproblem class and both booleans, with NaN,
    # +-inf, -0.0 and round-trip floats in each float column
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.1, 1.0 / 3.0, 5e-324, -1e300]
    records = []
    for i, (status, sub, accepted) in enumerate(itertools.product(
            IterationClass, SubproblemStatus, (True, False))):
        floats = [specials[(i + j) % len(specials)] for j in range(7)]
        records.append(StepRecord(i, *floats, status, sub, accepted))
    path = tmp_path / "t.csv"
    harness.write_trajectory_csv(str(path), records)
    want = TRAJECTORY_HEADER + "\n" + "".join(_reference_row(r) for r in records)
    assert path.read_bytes() == want.encode()


def test_experiment_determinism(tmp_path):
    cfg = parse_config_text(BASIC)
    run_experiment(cfg, str(tmp_path / "a"))
    run_experiment(cfg, str(tmp_path / "b"))
    for name in sorted(os.listdir(tmp_path / "a")):
        with open(tmp_path / "a" / name, "rb") as fa, \
                open(tmp_path / "b" / name, "rb") as fb:
            assert fa.read() == fb.read(), name


def _summary_from_csvs(out_dir, cfg, problem, optimizer):
    """A summary row's four values, recomputed from its trajectory CSVs: the
    final loss is the last row's loss_after if accepted, else loss_before."""
    finals, lengths = [], []
    for seed in cfg.seeds:
        with open(os.path.join(out_dir, f"{problem}__{optimizer}__seed{seed}.csv")) as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        lengths.append(len(rows))
        last = rows[-1] if rows else None
        finals.append(float("nan") if last is None
                      else float(last[2] if last[10] == "True" else last[1]))
    done = [n for n in lengths if 0 < n < cfg.max_iters]
    return [np.mean(finals), np.std(finals),
            np.mean(done) if done else float("nan"), len(done) / len(lengths)]


def test_summary_recompute_matches(tmp_path):
    cfg = parse_config_text(BASIC)
    out_dir = str(tmp_path / "out")
    _, summary_path = run_experiment(cfg, out_dir)
    with open(summary_path) as fh:
        lines = fh.read().splitlines()[1:]
    assert len(lines) == len(cfg.problems) * len(cfg.optimizers)
    for line in lines:
        problem, optimizer, *emitted = line.split(",")
        np.testing.assert_allclose(_summary_from_csvs(out_dir, cfg, problem, optimizer),
                                   [float(v) for v in emitted], rtol=1e-12)


BIG_BATCH = """
[run]
seeds = 0
max_iters = 10
batch_size = 999

[problem.quad]
kind = quadratic

[problem.log]
kind = logistic
n = 20
dim = 2

[optimizer.ac]
kind = adacubic
"""


def test_batch_size_larger_than_a_dataset_is_a_config_error(tmp_path, capsys):
    # every run of the cell would fail at its first batch draw
    with pytest.raises(ConfigError) as err:
        parse_config_text(BIG_BATCH)
    assert "problem.log: [run] batch_size = 999" in str(err.value)
    assert cli.main(["run", "--config", _write_config(tmp_path, BIG_BATCH),
                     "--out", str(tmp_path / "out")]) == 2
    assert "batch_size" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")
    # a deterministic problem ignores batch_size; the whole dataset is a batch
    parse_config_text(BIG_BATCH.replace("n = 20", "n = 999"))


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
""")
    with np.errstate(over="ignore", invalid="ignore"):
        (path,), summary_path = run_experiment(cfg, str(tmp_path / "out"))
    with open(path) as fh:
        assert fh.read() == TRAJECTORY_HEADER + "\n"
    with open(summary_path) as fh:
        fh.readline()
        parts = fh.readline().split(",")
    assert float(parts[-1]) == 0.0  # success_rate


def test_the_largest_seed_runs_and_names_its_file(tmp_path):
    cfg = parse_config_text(f"""
[run]
seeds = {2 ** 64 - 1}
max_iters = 3

[problem.quad]
kind = quadratic

[optimizer.sgd]
kind = sgd
""")
    (path,), _ = run_experiment(cfg, str(tmp_path / "out"))
    assert os.path.basename(path) == f"quad__sgd__seed{2 ** 64 - 1}.csv"
    with open(path) as fh:
        assert len(fh.read().splitlines()) == 4  # the header and three steps


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
    # a --seeds override is checked as a seeds line in the file is
    for seeds in ("-1", "0,-2", ",", "1.5", "abc", HUGE, "1,0,1"):
        assert cli.main(["run", "--config", cfg_path, "--seeds", seeds,
                         "--out", str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\nwat = 1\n")
    assert cli.main(["run", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_config_that_is_a_directory_is_a_file_error(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_out_that_is_a_file_is_a_file_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg_path = _write_config(tmp_path, f"{BASIC}[run]\nout = {taken}\n")
    assert cli.main(["run", "--config", cfg_path]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_deviation_measurement_quantiles():
    obj = make_synthetic_logistic(128, 4, 1e-2, 0)
    x = np.zeros(4)
    small_grad, small_diag = cli._deviations(obj, x, 16, 300, 1)
    large_grad, _ = cli._deviations(obj, x, 64, 300, 1)
    assert np.median(large_grad) < np.median(small_grad)
    _, many_diag = cli._deviations(obj, x, 16, 300, 16)
    assert np.median(many_diag) <= np.median(small_diag)


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
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "quantile,grad_deviation,diag_deviation"
    assert [line.split(",")[0] for line in lines[2:]] == [
        "0.10", "0.25", "0.50", "0.75", "0.90"]


DEVIATION_PIN = """
[run]
seeds = 0
[problem.quad]
kind = quadratic
[problem.log]
kind = logistic
n = 40
dim = 3
l2 = 0.01
data_seed = 7
[optimizer.ac]
kind = adacubic
"""


@pytest.mark.parametrize("flags, report", [
    (["--samples", "1"], """\
problem=log n=40 batch=5 trials=25 S=1
quantile,grad_deviation,diag_deviation
0.10,0.12398437698072796,0.12625267207975432
0.25,0.16460832306646037,0.15166852577636508
0.50,0.23315336206493509,0.19206079412275501
0.75,0.26341051160476042,0.23899289617365399
0.90,0.32684487725411843,0.2652379053172168
"""),
    # S = 4 is one block HVP, whose matrix product sums in its own order
    (["--samples", "4", "--batch-size", "10"], """\
problem=log n=40 batch=10 trials=25 S=4
quantile,grad_deviation,diag_deviation
0.10,0.1086931013031442,0.054394056385745237
0.25,0.12506039275060954,0.093696810179211415
0.50,0.14608987801493115,0.12343899507010661
0.75,0.19129201276724631,0.16548931027818842
0.90,0.22603008606393021,0.17855215774044653
"""),
])
def test_cli_deviation_report_is_pinned(flags, report, tmp_path, capsys):
    # the first stochastic problem, its batches and probes drawn from
    # default_rng(0): the report is the same text on every call
    cfg_path = _write_config(tmp_path, DEVIATION_PIN)
    assert cli.main(["deviation", "--config", cfg_path, "--trials", "25", *flags]) == 0
    assert capsys.readouterr().out == report


VERIFY_REPORT = """\
PASS kkt: n=500 max stationarity/tol=1.198e-02 min shifted curvature=0.000e+00 max decrease-margin excess=-3.800e-03 max iters-to-band=5
PASS duality: n=100 max coord err/grid-tol=0.000 worst probe violation=-6.683e-12
PASS phi-calculus: n=200 max fd err/tol=0.000
PASS hutchinson: diag err=0.0e+00 enum err=2.2e-16 median devs S=1,4,16: 3.0696, 1.4266, 0.7238
verify: all suites passed
"""


def test_cli_verify_report_is_pinned(suites, capsys, monkeypatch):
    # the suites at their defaults, run once per session (criterion 8 checks
    # that a fresh `adacubic verify` prints the same report)
    monkeypatch.setattr(verify, "all_suites", lambda: suites[0])
    assert cli.main(["verify"]) == 0
    assert capsys.readouterr().out == VERIFY_REPORT


def test_cli_deviation_needs_stochastic_problem(tmp_path):
    cfg_path = _write_config(tmp_path)
    assert cli.main(["deviation", "--config", cfg_path, "--trials", "5"]) == 2


DEVIATION_N20 = """
[run]
seeds = 0
[problem.log]
kind = logistic
n = 20
dim = 3
[optimizer.ac]
kind = adacubic
"""


@pytest.mark.parametrize("flags, named", [
    (["--batch-size", "50"], "--batch-size"),   # more than the 20 samples
    (["--batch-size", "-3"], "--batch-size"),
    (["--batch-size", "0"], "--batch-size"),    # not "unset"
    (["--trials", "0"], "--trials"),
    (["--samples", "0"], "--samples"),
    (["--batch-size", "21"], "--batch-size"),   # one more than the 20 samples
    (["--trials", "-1"], "--trials"),
])
def test_cli_deviation_rejects_bad_flags(flags, named, tmp_path, capsys, monkeypatch):
    def refused(*args):
        raise AssertionError("a bad flag reached the measurement")

    monkeypatch.setattr(cli, "_deviations", refused)
    cfg_path = _write_config(tmp_path, DEVIATION_N20)
    assert cli.main(["deviation", "--config", cfg_path, "--trials", "5", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
