"""Exact simple wave of a bumped upper wall, for refinement tests.

The inlet is the background, the lower wall is flat at y = -1 and the upper
wall is g_plus(x) = 1 + AMP sin(pi x / L)^4 on [0, L].  In layer a the
inlet's and the contact's z_minus are 0: the contact returns nothing until
the first wall characteristic reaches it, at xi = m_a / |lambda_-| > L.
With z_minus = 0 the speed lambda_- depends on z_plus alone, so z_plus is a
simple wave: constant along the straight lines

    eta = m_a + lambda_-(0, z_plus) (xi - xi0)

from the wall, where the reflection z_minus + z_plus = 2 arctan g'_plus
gives z_plus = 2 arctan g'_plus(xi0).  A node whose line starts at the inlet
carries the inlet's 0, and layer b stays at rest.  The speed is the textbook
form of ``tests/gas_reference.py``, not the solver's.
"""

import numpy as np

from contactmoc import config, fixtures, gas
from tests import gas_reference

AMP, L = 0.01, 1.5


def inputs(nxi, neta):
    """(cfg, geom, profile): the background fixture on [0, L] with the
    bumped upper wall, on an nxi x neta lattice per layer."""
    cfg, _, profile = fixtures.perturbed_inputs(0.0, L=L, nxi=nxi, neta=neta)
    geom = config.NozzleGeometry(
        g_minus=config.WallCurve.from_expression("-1"),
        g_plus=config.WallCurve.from_expression(f"1 + {AMP!r} * sin(pi * x / {L!r}) ** 4"),
        L=L)
    return cfg, geom, profile


def _wall_z_plus(x):
    """2 arctan g'_plus(x), in closed form."""
    a = np.pi * x / L
    return 2.0 * np.arctan(4.0 * AMP * np.pi / L * np.sin(a) ** 3 * np.cos(a))


def z_plus(cfg, domain, sweeps=60):
    """The exact z_plus of layer a on the (nxi, neta_a) lattice of ``domain``.

    The foot xi0 of each node's line is the root in [0, xi] of
    F(xi0) = m_a - eta + lambda_-(z_plus(xi0)) (xi - xi0), which increases
    in xi0 (-lambda_- dominates) from F(0) to F(xi) = m_a - eta >= 0.  One
    bisection runs on every node at once; a node with F(0) > 0 lies below
    the line from the inlet corner.
    """
    bg = cfg.background
    state_a, _ = bg.states()
    line = gas.Streamline(gas.entropy_function(state_a, cfg.gamma),
                          gas.bernoulli(state_a, cfg.gamma), bg.p, cfg.gamma)
    xi, eta = np.meshgrid(domain.xi, domain.eta_a, indexing="ij")
    m_a = domain.eta_a[-1]

    def f(x0):
        zp = _wall_z_plus(x0)
        state = gas.PrimitiveState(*gas_reference.state_from_invariants(np.zeros_like(zp), zp, line))
        return m_a - eta + gas_reference.lambda_pm(state, cfg.gamma)[0] * (xi - x0)

    lo, hi = np.zeros_like(xi), xi.copy()
    from_wall = f(lo) <= 0.0
    for _ in range(sweeps):
        mid = 0.5 * (lo + hi)
        below = f(mid) <= 0.0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return np.where(from_wall, _wall_z_plus(0.5 * (lo + hi)), 0.0)
