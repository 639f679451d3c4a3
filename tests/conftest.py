"""Shared fixtures: canonical problem setups and cached solves."""

import numpy as np
import pytest

from contactmoc import cli, fixtures, moc


def assemble(eps, nxi, neta, fp_tol=1e-10):
    """Build (cfg, geom, profile, prob) for the canonical fixture family."""
    cfg, geom, profile = fixtures.perturbed_inputs(eps, nxi=nxi, neta=neta, fp_tol=fp_tol)
    prob, _ = cli.build_pipeline(cfg, geom, profile)
    return cfg, geom, profile, prob


_SOLVE_CACHE = {}


def solved(eps, nxi, neta, fp_tol=1e-10):
    """Memoized full solve for reuse across tests in one session."""
    key = (eps, nxi, neta, fp_tol)
    if key not in _SOLVE_CACHE:
        cfg, geom, profile, prob = assemble(eps, nxi, neta, fp_tol)
        grid, report = moc.fixed_point(prob, fp_tol=cfg.fp_tol, max_fp_iters=cfg.max_fp_iters)
        _SOLVE_CACHE[key] = (cfg, geom, profile, prob, grid, report)
    return _SOLVE_CACHE[key]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
