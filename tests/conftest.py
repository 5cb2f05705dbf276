"""Fixtures shared by more than one test module."""

import time

import pytest

from adacubic import root_finder, verify

from test_acceptance import run_criterion_6b


@pytest.fixture(scope="session")
def kkt_solved():
    """The 500 seed-12345 kkt instances, drawn and solved once for the
    acceptance criteria 1, 3 and 5, the solver tests and the golden pin:
    [(b, g, xi, solution)] and the seconds that took."""
    start = time.perf_counter()
    solved = [(b, g, xi, root_finder(b, g, xi)) for b, g, xi in verify.kkt_instances()]
    return solved, time.perf_counter() - start


@pytest.fixture(scope="session")
def criterion_6b():
    """Criterion 6b's run, made once for its acceptance test and the golden
    pin: the trajectory and the seconds it took."""
    return run_criterion_6b()


@pytest.fixture(scope="session")
def suites():
    """The ``verify.all_suites()`` results, run once for criteria 2, 3, 4
    and 8 and the pinned ``verify`` report, and the seconds each suite
    took, by name."""
    results, seconds = [], {}
    for suite in (verify.kkt_suite, verify.duality_suite,
                  verify.phi_calculus_suite, verify.hutchinson_suite):
        start = time.perf_counter()
        results.append(suite())
        seconds[results[-1][0]] = time.perf_counter() - start
    return results, seconds
