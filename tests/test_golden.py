"""The golden pin: digests of every trajectory CSV and ``summary.csv`` of a
fixed grid, and the outcome of ``root_finder`` on fixed instance families,
checked against ``tests/golden.json``.

The pinned grid runs, at 100 iterations each, six problems (quadratic PD,
quadratic indefinite, the saddle from x0 = (0, 0), logistic n=200 d=5,
Rosenbrock d=2 from (-1.2, 1) and Rosenbrock d=10) by four optimizers
(AdaCubic S=1, AdaCubic S=4, SGD, Adam) over seeds 0-2, at
full batch and at batch size 32.  The pin also holds criterion 6b's run of
43 474 iterations (``test_acceptance.run_criterion_6b``).  The solver part
pins each solution's ``s``, ``nu``, status and iteration counts (or
"stall") on the 500 seed-12345 kkt instances and the 400 scaled instances
of ``test_subproblem``.

On the numerical stack the file was written on (Python, numpy, BLAS name
and version) every entry must match exactly: a CSV by its SHA-256, a
solver outcome float for float.  On another stack the test compares final
losses, final iterates, ``s`` and ``nu`` to RTOL / ATOL below, and statuses,
stalls and failed runs exactly.

A change that alters these bytes on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

which prints the keys whose bytes change, one per line, before it writes
the file (none when the stored file is missing or unreadable); list them
in CHANGES.md.
Regenerating it on a new stack also means moving the Python, numpy and
scipy pins of ``.github/workflows/tier1.yml`` to that stack, so that CI
keeps taking the exact path; a test holds the Python and numpy pins to it.
"""

import copy
import hashlib
import json
import os
import platform
import re
import sys
import tempfile

import numpy as np
import pytest

from adacubic import (IterationClass, SolverStallError, harness, make_rosenbrock,
                      root_finder, verify)
from adacubic.harness import parse_config_text, run_experiment

from test_acceptance import run_criterion_6b

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
REGENERATE = "PYTHONPATH=src python tests/test_golden.py"

# other-stack tolerance on final losses and iterates, and on s and nu
RTOL, ATOL = 1e-6, 1e-9
# entries a different stack may change without changing the result
EXACT_ONLY = ("sha256", "newton_iters", "newton_iters_to_band")

GRID = """
[run]
seeds = 0,1,2
max_iters = 100
stop_grad_norm = 1e-6

[problem.quad_pd]
kind = quadratic
diag = 1,2,3,4,5
g0 = 1,-1,0.5,0,2
x0 = 1,1,1,1,1

[problem.quad_indef]
kind = quadratic
diag = 1,2,-0.5
g0 = 1,1,0.3
x0 = 1,1,1

[problem.saddle]
kind = saddle

[problem.logistic]
kind = logistic
n = 200
dim = 5
l2 = 0.01

[problem.ros2]
kind = rosenbrock
dim = 2
x0 = -1.2,1

[problem.ros10]
kind = rosenbrock
dim = 10

[optimizer.ac_s1]
kind = adacubic
hutchinson_samples = 1

[optimizer.ac_s4]
kind = adacubic
hutchinson_samples = 4

[optimizer.sgd]
kind = sgd
lr = 0.001

[optimizer.adam]
kind = adam
lr = 0.01
"""


def stack() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 prints its config only
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_grid(out_dir: str) -> dict:
    """Run the pinned grid at full batch and at batch size 32 under
    ``out_dir``: {"<batch>/<file>": entry}.  A trajectory's entry holds its
    CSV's digest, the full-batch loss at its final iterate and that iterate
    (both None for a failed run); summary.csv's holds its digest."""
    entries = {}
    run_one = harness.run_one
    finals = []

    def recording(problem, optimizer, seed, cfg):
        finals.append(None)
        traj = run_one(problem, optimizer, seed, cfg)
        obj = cfg.built_problem(problem)[0]
        finals[-1] = (obj.eval(traj.final_x), traj.final_x.tolist())
        return traj

    harness.run_one = recording
    try:
        for batch in ("full", "32"):
            cfg = parse_config_text(GRID + f"[run]\nbatch_size = {batch}\n")
            finals.clear()
            with np.errstate(over="ignore", invalid="ignore"):
                paths, summary = run_experiment(cfg, os.path.join(out_dir, batch))
            for path, final in zip(paths, finals):
                loss, x = final or (None, None)
                entries[f"{batch}/{os.path.basename(path)}"] = {
                    "sha256": _digest(path), "final_loss": loss, "final_x": x}
            entries[f"{batch}/summary.csv"] = {"sha256": _digest(summary)}
    finally:
        harness.run_one = run_one
    return entries


CRITERION_6B = "criterion6b/ros2__adacubic__seed0.csv"


def criterion_6b_entry(traj, out_dir: str) -> dict:
    """The entry of criterion 6b's run, whose CSV is written under ``out_dir``."""
    path = os.path.join(out_dir, os.path.basename(CRITERION_6B))
    harness.write_trajectory_csv(path, traj.records)
    return {"sha256": _digest(path), "final_loss": make_rosenbrock(2).eval(traj.final_x),
            "final_x": traj.final_x.tolist()}


def solution_entry(sol) -> dict:
    return {"s": sol.s.tolist(), "nu": sol.nu, "status": sol.status.value,
            "newton_iters": sol.newton_iters,
            "newton_iters_to_band": sol.newton_iters_to_band}


# the floor of the scaled instances' xi: part of the definition of that
# instance family, whose solutions tests/golden.json pins, so it stays 1e-6
# whatever AdaCubicConfig.eps_m becomes
EPS_M = 1e-6


def _scaled_instances(n, seed=2024):
    """Seeded kkt-style instances with b and xi each scaled by 10^U(-6, 6)
    (xi floored at eps_m): scales far from 1, where a tolerance absolute in
    units of f would stall the solver; a stall is pinned as "stall"."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        b, g, xi = verify.random_instance(rng)
        b = b * 10.0 ** rng.uniform(-6, 6)
        xi = max(xi * 10.0 ** rng.uniform(-6, 6), EPS_M)
        yield b, g, xi


def solver_entries(kkt_solutions: list) -> dict:
    """The outcomes of the kkt instances (solved by the caller) and of the
    400 scaled instances, solved here: {"kkt/<i>" or "scaled/<i>": entry}."""
    entries = {f"kkt/{i}": solution_entry(sol)
               for i, sol in enumerate(kkt_solutions)}
    for i, (b, g, xi) in enumerate(_scaled_instances(400)):
        try:
            entries[f"scaled/{i}"] = solution_entry(root_finder(b, g, xi))
        except SolverStallError:
            entries[f"scaled/{i}"] = "stall"
    return entries


def pin(kkt_solutions: list, criterion_6b) -> dict:
    with tempfile.TemporaryDirectory() as out_dir:
        runs = {CRITERION_6B: criterion_6b_entry(criterion_6b, out_dir),
                **run_grid(out_dir)}
    return {"regenerate": REGENERATE, "stack": stack(), "runs": runs,
            "solver": solver_entries(kkt_solutions)}


def _same(want, got) -> bool:
    # a float's repr round-trips, so equal JSON means equal bits
    return json.dumps(want, sort_keys=True) == json.dumps(got, sort_keys=True)


def _close(want, got) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and want.keys() == got.keys() and all(
            _close(want[k], got[k]) for k in want if k not in EXACT_ONLY)
    if isinstance(want, (float, list)) and isinstance(got, (float, list)):
        return np.shape(want) == np.shape(got) and \
            np.allclose(got, want, rtol=RTOL, atol=ATOL)
    return want == got


def mismatches(stored: dict, fresh: dict) -> list:
    """The "<section>/<key>"s of ``fresh`` that differ from ``stored``:
    bit for bit when both come from the same stack, else to RTOL / ATOL."""
    same = _same if stored["stack"] == fresh["stack"] else _close
    bad = []
    for section in ("runs", "solver"):
        want, got = stored[section], fresh[section]
        for key in sorted(want.keys() | got.keys()):
            if key not in want or key not in got or not same(want[key], got[key]):
                bad.append(f"{section}/{key}")
    return bad


def load() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def dump(golden: dict) -> str:
    """The pin as JSON text, one line per run and per solver instance."""
    lines = ["{", f' "regenerate": {json.dumps(golden["regenerate"])},',
             f' "stack": {json.dumps(golden["stack"])},']
    for section in ("runs", "solver"):
        body = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                          for key, value in golden[section].items())
        lines.append(f' "{section}": {{\n{body}\n }}'
                     + ("," if section == "runs" else ""))
    return "\n".join(lines + ["}"]) + "\n"


# the pin's five parts, each checked on its own so a failure names its part
PARTS = ("runs/full/", "runs/32/", "runs/criterion6b/", "solver/kkt/", "solver/scaled/")


@pytest.fixture(scope="module")
def fresh(kkt_solved, criterion_6b):
    """The pin as this checkout computes it, once per module."""
    return pin([sol for *_, sol in kkt_solved[0]], criterion_6b[0])


@pytest.mark.parametrize("part", PARTS)
def test_golden_pin(part, fresh):
    bad = [key for key in mismatches(load(), fresh) if key.startswith(part)]
    assert not bad, f"{len(bad)} pinned entries changed, first: {bad[:10]}"


def _elsewhere(stored: dict) -> dict:
    return dict(stored, stack=dict(stored["stack"], blas="another 1.0"))


def test_another_stack_accepts_todays_results(fresh):
    # the tolerance path must not fail on results that match bit for bit
    assert mismatches(_elsewhere(fresh), fresh) == []


def test_golden_file_is_what_regeneration_writes():
    golden = load()
    assert golden["regenerate"] == REGENERATE
    assert golden["stack"].keys() == stack().keys()
    with open(GOLDEN, encoding="utf-8") as fh:
        assert fh.read() == dump(golden)


WORKFLOW = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        ".github", "workflows", "tier1.yml")


def test_ci_runs_on_the_stack_the_pin_was_written_on():
    # elsewhere CI would pass on the tolerance path alone; no YAML package
    # is installed, so the workflow's pins are read from its text
    with open(WORKFLOW, encoding="utf-8") as fh:
        text = fh.read()
    python = re.findall(r'^\s*python-version:\s*"?([^"\s]+)"?\s*$', text, re.M)
    numpy = re.findall(r"\bnumpy==([^\s]+)", text)
    stored = load()["stack"]
    assert (python, numpy) == ([stored["python"]], [stored["numpy"]])


def test_ci_token_can_only_read_the_repository():
    # the job checks out the repository and runs the tests, nothing more;
    # the one top-level permissions block grants exactly that
    with open(WORKFLOW, encoding="utf-8") as fh:
        text = fh.read()
    blocks = re.findall(r"^( *)permissions:(.*)\n((?:\1 +\S.*\n)*)", text, re.M)
    assert [(indent, rest.strip(), body.split()) for indent, rest, body in blocks] == \
        [("", "", ["contents:", "read"])]


def _changed(golden: dict, section: str, key: str, **values) -> dict:
    """A copy of ``golden`` whose ``section/key`` entry takes ``values``."""
    changed = copy.deepcopy(golden)
    changed[section][key].update(values)
    return changed


BITE_RUN = "full/ros2__ac_s1__seed0.csv"


@pytest.fixture(scope="module")
def bite(fresh):
    """This checkout's pin cut down to the two entries that the edits below
    touch, so that these tests judge the comparison, not the stored file."""
    return {"stack": fresh["stack"], "runs": {BITE_RUN: fresh["runs"][BITE_RUN]},
            "solver": {"kkt/0": fresh["solver"]["kkt/0"]}}


@pytest.mark.parametrize("edit", ["loss_after one ulp up", "class flipped"])
def test_one_record_changed_fails_the_exact_pin(edit, bite, tmp_path):
    cfg = parse_config_text(GRID)
    records = harness.run_one(cfg.problems["ros2"], cfg.optimizers["ac_s1"], 0,
                              cfg).records

    def digest(records):
        path = str(tmp_path / "run.csv")
        harness.write_trajectory_csv(path, records)
        return _digest(path)

    rec = records[5]
    assert rec.status is IterationClass.VERY_SUCCESSFUL
    change = {"loss_after one ulp up":
              {"loss_after": np.nextafter(rec.loss_after, np.inf)},
              "class flipped": {"status": IterationClass.SUCCESSFUL}}[edit]
    nudged = records[:5] + [rec._replace(**change)] + records[6:]
    fresh = _changed(bite, "runs", BITE_RUN, sha256=digest(nudged))
    assert mismatches(bite, fresh) == [f"runs/{BITE_RUN}"]


@pytest.mark.parametrize("edit", ["nu one ulp up", "status flipped"])
def test_one_solver_outcome_changed_fails_the_exact_pin(edit, bite):
    sol = bite["solver"]["kkt/0"]
    assert sol["status"] == "Boundary"
    change = {"nu one ulp up": {"nu": float(np.nextafter(sol["nu"], np.inf))},
              "status flipped": {"status": "Interior"}}[edit]
    assert mismatches(bite, _changed(bite, "solver", "kkt/0", **change)) \
        == ["solver/kkt/0"]


def test_another_stack_forgives_one_ulp(bite):
    x = np.array(bite["runs"][BITE_RUN]["final_x"])
    assert mismatches(_elsewhere(bite), _changed(
        bite, "runs", BITE_RUN, final_x=np.nextafter(x, np.inf).tolist())) == []


def test_another_stack_fails_an_iterate_past_rtol(bite):
    x = np.array(bite["runs"][BITE_RUN]["final_x"])
    assert mismatches(_elsewhere(bite), _changed(
        bite, "runs", BITE_RUN, final_x=(x * (1 + 3 * RTOL)).tolist())) \
        == [f"runs/{BITE_RUN}"]


def test_another_stack_fails_a_flipped_status(bite):
    assert mismatches(_elsewhere(bite), _changed(
        bite, "solver", "kkt/0", status="Interior")) == ["solver/kkt/0"]


def test_another_stack_fails_a_stall(bite):
    stalled = copy.deepcopy(bite)
    stalled["solver"]["kkt/0"] = "stall"
    assert mismatches(_elsewhere(bite), stalled) == ["solver/kkt/0"]


if __name__ == "__main__":
    solutions = [root_finder(b, g, xi) for b, g, xi in verify.kkt_instances()]
    golden = pin(solutions, run_criterion_6b()[0])
    try:
        stored = load()
    except (FileNotFoundError, json.JSONDecodeError) as err:
        print(f"cannot read {GOLDEN} ({err}), so no keys are listed", file=sys.stderr)
    else:
        # bit for bit on any stack: the stored stack makes mismatches use _same
        for key in mismatches(stored, dict(golden, stack=stored["stack"])):
            print(key)
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump(golden))
    print(f"wrote {GOLDEN}", file=sys.stderr)
