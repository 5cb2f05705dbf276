"""Hyperparameter defaults, validation, and the trust-region rule."""

import dataclasses
import math

import numpy as np
import pytest

from adacubic import (AdaCubicConfig, IterationClass, adacubic_step,
                      make_quadratic, update_xi)
from adacubic.config import ALPHA1, ALPHA2, ETA1, ETA2


def test_default_hyperparameters():
    cfg = AdaCubicConfig()
    assert cfg.eps_m == 1e-6
    assert cfg.hutchinson_samples == 1
    assert cfg.xi0 == 1.0
    # the trust-region rule's thresholds and factors, and the subproblem
    # solver's tolerances, are constants of their modules
    assert len(dataclasses.fields(cfg)) == 3
    assert (ETA1, ETA2, ALPHA1, ALPHA2) == (0.05, 0.75, 2.5, 0.25)


@pytest.mark.parametrize("name", ["eta1", "eta2", "alpha1", "alpha2"])
def test_trust_region_constants_are_not_fields(name):
    with pytest.raises(TypeError):
        AdaCubicConfig(**{name: 0.5})


@pytest.mark.parametrize("kwargs", [
    {"eps_m": 0.0},
    {"hutchinson_samples": 0},
    # NaN fails every check
    {"eps_m": math.nan},
    # the count is an integer, not a float or a bool
    {"hutchinson_samples": 2.5},
    {"hutchinson_samples": True},
    # eps_m <= xi0 < inf
    {"xi0": -1.0},
    {"xi0": 1e-7},
    {"xi0": math.inf},
    {"xi0": math.nan},
])
def test_invalid_config_rejected(kwargs):
    with pytest.raises(ValueError):
        AdaCubicConfig(**kwargs)


def test_replace_returns_new_validated_config():
    cfg = AdaCubicConfig()
    other = dataclasses.replace(cfg, xi0=0.5)
    assert other.xi0 == 0.5
    assert cfg.xi0 == 1.0
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, xi0=1e-7)


def test_classify_iteration_branches():
    cfg = AdaCubicConfig()

    def cls(rho):
        return update_xi(0.1, rho, 0.2, cfg)[0]

    assert cls(0.9) is IterationClass.VERY_SUCCESSFUL
    assert cls(0.75) is IterationClass.VERY_SUCCESSFUL
    assert cls(0.3) is IterationClass.SUCCESSFUL
    # boundary rho == ETA1 counts as Successful (accepted, xi kept)
    assert update_xi(0.1, 0.05, 0.2, cfg) == (IterationClass.SUCCESSFUL, 0.1)
    assert cls(0.01) is IterationClass.UNSUCCESSFUL
    assert cls(-1.0) is IterationClass.UNSUCCESSFUL


def test_classify_rejects_nan():
    with pytest.raises(ValueError):
        update_xi(1.0, math.nan, 0.1, AdaCubicConfig())


def test_accept_step():
    # a step is accepted exactly when its class is not UNSUCCESSFUL, which
    # is the paper's rule rho >= ETA1, boundary included
    cfg = AdaCubicConfig()
    rhos = [0.5, 0.05, 0.049, -1.0] + [float(r) for r in np.linspace(-1.0, 1.5, 101)]
    for rho in rhos:
        cls, _ = update_xi(1.0, rho, 0.1, cfg)
        assert (cls is not IterationClass.UNSUCCESSFUL) == (rho >= ETA1)


def test_update_xi_branches():
    cfg = AdaCubicConfig()
    # very successful: expand toward ALPHA1 * ||s||^3
    assert update_xi(0.1, 0.9, 0.2, cfg)[1] == pytest.approx(0.5)
    # successful: keep
    assert update_xi(0.1, 0.3, 0.2, cfg)[1] == 0.1
    # unsuccessful: shrink, floored at eps_m
    assert update_xi(0.1, 0.01, 1e-9, cfg)[1] == 1e-6


def test_update_xi_expansion_never_shrinks():
    assert update_xi(10.0, 0.9, 0.001, AdaCubicConfig())[1] == 10.0


def test_xi_floor_over_random_update_sequences():
    cfg = AdaCubicConfig()
    rng = np.random.default_rng(3)
    xi = 1.0
    for _ in range(500):
        rho = float(rng.uniform(-2.0, 2.0))
        cube = float(rng.uniform(0.0, 2.0))
        _, xi = update_xi(xi, rho, cube, cfg)
        assert xi >= cfg.eps_m


def test_update_xi_monotone_in_step_norm():
    cfg = AdaCubicConfig()
    cubes = np.linspace(0.0, 5.0, 50)
    vsi = [update_xi(1e-6, 0.9, float(c), cfg)[1] for c in cubes]
    ui = [update_xi(1e-6, 0.0, float(c), cfg)[1] for c in cubes]
    assert all(b >= a for a, b in zip(vsi, vsi[1:]))
    assert all(b >= a for a, b in zip(ui, ui[1:]))


def test_update_xi_rejects_negative_cube():
    with pytest.raises(ValueError):
        update_xi(1.0, 0.5, -1.0, AdaCubicConfig())


def test_nan_rho_propagates_from_update():
    # a finite predicted decrease with a NaN loss after the step gives a NaN
    # rho: the step raises rather than recording a rejection
    quad = make_quadratic(np.array([1.0]), np.array([1.0]))
    obj = dataclasses.replace(
        quad, eval_fn=lambda x, b=None: 0.0 if x[0] == 0.0 else math.nan)
    with pytest.raises(ValueError):
        adacubic_step(obj, np.zeros(1), 1.0, AdaCubicConfig(),
                      np.random.default_rng(0))
