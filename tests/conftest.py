"""Shared fixtures: canonical problem setups and cached solves."""

import dataclasses

import numpy as np
import pytest

from contactmoc import cli, fixtures, lagrangian, moc


def assemble(eps, nxi, neta, fp_tol=1e-10):
    """Build (cfg, geom, profile, prob) for the canonical fixture family.

    ``neta`` is one node count for both layers or a pair (neta_a, neta_b).
    """
    neta_a, neta_b = (neta, neta) if np.ndim(neta) == 0 else neta
    cfg, geom, profile = fixtures.perturbed_inputs(eps, nxi=nxi, neta=neta_a, fp_tol=fp_tol)
    cfg = dataclasses.replace(cfg, grid_neta_b=neta_b)
    prob, _ = cli.build_pipeline(cfg, geom, profile)
    return cfg, geom, profile, prob


_SOLVE_CACHE = {}


def solved(eps, nxi, neta, fp_tol=1e-10):
    """Memoized full solve for reuse across tests in one session."""
    key = (eps, nxi, neta, fp_tol)
    if key not in _SOLVE_CACHE:
        cfg, geom, profile, prob = assemble(eps, nxi, neta, fp_tol)
        grid, history = moc.fixed_point(prob, fp_tol=cfg.fp_tol, max_fp_iters=cfg.max_fp_iters)
        _SOLVE_CACHE[key] = (cfg, geom, profile, prob, grid, history)
    return _SOLVE_CACHE[key]


def solve_pipeline(cfg, geom, profile):
    """The solve of ``cli.run_solve`` without its checks, summary and
    outputs: ``(prob, grid, history, efield)``, the problem, the fixed
    point's grid and history, and the reconstructed field."""
    prob, _ = cli.build_pipeline(cfg, geom, profile)
    grid, history = moc.fixed_point(prob, fp_tol=cfg.fp_tol, max_fp_iters=cfg.max_fp_iters)
    efield = lagrangian.reconstruct(moc.grid_states(grid, prob), geom, prob.domain)
    return prob, grid, history, efield


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
