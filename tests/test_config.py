"""Hyperparameter defaults, validation, and the trust-region rule."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from adacubic import (AdaCubicConfig, IterationClass, adacubic_step,
                      make_quadratic, update_xi)
from adacubic.config import ALPHA1, ALPHA2, ETA1, ETA2


def test_default_hyperparameters():
    cfg = AdaCubicConfig()
    assert cfg.hutchinson_samples == 1
    # the probe count is the one field; the xi floor and the initial xi are
    # constants of the class, the trust-region rule's thresholds and factors,
    # and the subproblem solver's tolerances, constants of their modules
    assert len(dataclasses.fields(cfg)) == 1
    assert (AdaCubicConfig.eps_m, AdaCubicConfig.xi0) == (1e-6, 1.0)
    assert (cfg.eps_m, cfg.xi0) == (1e-6, 1.0)
    assert (ETA1, ETA2, ALPHA1, ALPHA2) == (0.05, 0.75, 2.5, 0.25)


@pytest.mark.parametrize("name", ["eta1", "eta2", "alpha1", "alpha2", "eps_m", "xi0"])
def test_trust_region_constants_are_not_fields(name):
    with pytest.raises(TypeError):
        AdaCubicConfig(**{name: 0.5})


@pytest.mark.parametrize("kwargs", [
    {"hutchinson_samples": 0},
    # the count is an integer, not a float or a bool
    {"hutchinson_samples": 2.5},
    {"hutchinson_samples": True},
    # and at most sys.maxsize, numpy's largest array dimension: the probe
    # block has S rows
    {"hutchinson_samples": sys.maxsize + 1},
    {"hutchinson_samples": 10 ** 30},
])
def test_invalid_config_rejected(kwargs):
    with pytest.raises(ValueError):
        AdaCubicConfig(**kwargs)


def test_the_largest_probe_count_is_accepted():
    # validation only: a run at this count would allocate S x d probes
    assert AdaCubicConfig(hutchinson_samples=sys.maxsize).hutchinson_samples == sys.maxsize


def test_replace_returns_new_validated_config():
    cfg = AdaCubicConfig()
    other = dataclasses.replace(cfg, hutchinson_samples=4)
    assert other.hutchinson_samples == 4
    assert cfg.hutchinson_samples == 1
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, hutchinson_samples=0)
    # a constant is no field, so replace cannot set it
    with pytest.raises(TypeError):
        dataclasses.replace(cfg, xi0=0.5)


def test_classify_iteration_branches():
    def cls(rho):
        return update_xi(0.1, rho, 0.2)[0]

    assert cls(0.9) is IterationClass.VERY_SUCCESSFUL
    assert cls(0.75) is IterationClass.VERY_SUCCESSFUL
    assert cls(0.3) is IterationClass.SUCCESSFUL
    # boundary rho == ETA1 counts as Successful (accepted, xi kept)
    assert update_xi(0.1, 0.05, 0.2) == (IterationClass.SUCCESSFUL, 0.1)
    assert cls(0.01) is IterationClass.UNSUCCESSFUL
    assert cls(-1.0) is IterationClass.UNSUCCESSFUL


def test_classify_rejects_nan():
    with pytest.raises(ValueError):
        update_xi(1.0, math.nan, 0.1)


def test_accept_step():
    # a step is accepted exactly when its class is not UNSUCCESSFUL, which
    # is the paper's rule rho >= ETA1, boundary included
    rhos = [0.5, 0.05, 0.049, -1.0] + [float(r) for r in np.linspace(-1.0, 1.5, 101)]
    for rho in rhos:
        cls, _ = update_xi(1.0, rho, 0.1)
        assert (cls is not IterationClass.UNSUCCESSFUL) == (rho >= ETA1)


def test_update_xi_branches():
    # very successful: expand toward ALPHA1 * ||s||^3
    assert update_xi(0.1, 0.9, 0.2)[1] == pytest.approx(0.5)
    # successful: keep
    assert update_xi(0.1, 0.3, 0.2)[1] == 0.1
    # unsuccessful: shrink, floored at eps_m
    assert update_xi(0.1, 0.01, 1e-9)[1] == 1e-6


def test_update_xi_expansion_never_shrinks():
    assert update_xi(10.0, 0.9, 0.001)[1] == 10.0


def test_xi_floor_over_random_update_sequences():
    rng = np.random.default_rng(3)
    xi = 1.0
    for _ in range(500):
        rho = float(rng.uniform(-2.0, 2.0))
        cube = float(rng.uniform(0.0, 2.0))
        _, xi = update_xi(xi, rho, cube)
        assert xi >= AdaCubicConfig.eps_m


def test_update_xi_monotone_in_step_norm():
    cubes = np.linspace(0.0, 5.0, 50)
    vsi = [update_xi(1e-6, 0.9, float(c))[1] for c in cubes]
    ui = [update_xi(1e-6, 0.0, float(c))[1] for c in cubes]
    assert all(b >= a for a, b in zip(vsi, vsi[1:]))
    assert all(b >= a for a, b in zip(ui, ui[1:]))


def test_update_xi_rejects_negative_cube():
    with pytest.raises(ValueError):
        update_xi(1.0, 0.5, -1.0)


def test_nan_rho_propagates_from_update():
    # a finite predicted decrease with a NaN loss after the step gives a NaN
    # rho: the step raises rather than recording a rejection
    quad = make_quadratic(np.array([1.0]), np.array([1.0]))
    obj = dataclasses.replace(
        quad, eval_fn=lambda x, b=None: 0.0 if x[0] == 0.0 else math.nan)
    x = np.zeros(1)
    g = obj.grad(x)
    with pytest.raises(ValueError):
        adacubic_step(obj, x, 1.0, obj.exact_diag_hessian(x), obj.eval(x), g,
                      math.sqrt(g @ g))
