"""Canonical config generators: background state plus compatible perturbations.

The perturbed family keeps the inlet contact-compatible by construction
(shared flow angle and pressure expressions across y = 0, vanishing flow
angle at the walls, walls flat at the inlet corner) and is normalized so
that perturbation_size() returns exactly the requested eps.
"""

from __future__ import annotations

import numpy as np

from . import config
from .config import BackgroundState, InletLayer, InletProfile, NozzleGeometry, RunConfig, WallCurve

# Background used across tests and example runs.
DEFAULT_BACKGROUND = BackgroundState(u_a=2.2, rho_a=1.0, u_b=1.9, rho_b=1.2, p=1.0)
DEFAULT_L = 4.0


def background_geometry(L=DEFAULT_L):
    return NozzleGeometry(
        g_minus=WallCurve.from_expression("-1"),
        g_plus=WallCurve.from_expression("1"),
        L=L,
    )


def _layer_samples(y, ubar, rhobar, pbar, amp, shapes):
    """amp-scaled smooth deviations; shapes supplies one callable per field."""
    return InletLayer(
        y=y,
        u=ubar * (1.0 + amp * shapes["u"](y)),
        v=ubar * (1.0 + amp * shapes["u"](y)) * amp * shapes["w"](y),
        p=pbar * (1.0 + amp * shapes["p"](y)),
        rho=rhobar * (1.0 + amp * shapes["rho"](y)),
    )


def perturbed_inputs(eps, background=DEFAULT_BACKGROUND, L=DEFAULT_L, n_samples=161,
                     nxi=400, neta=100, fp_tol=1e-10):
    """Build (RunConfig, NozzleGeometry, InletProfile) with perturbation_size == eps.

    eps == 0 gives the exact constant background with flat walls.
    """
    bg = background
    ya = np.linspace(0.0, 1.0, n_samples)
    yb = np.linspace(-1.0, 0.0, n_samples)

    # Flow-angle shape shared by both layers (w continuous at y=0, zero at
    # the wall ordinates +-1 so the flat-inlet corner slip holds); pressure
    # shape shared so it is smooth across y=0.  Every deviation is flat to
    # at least second order at y in {-1, 0, 1} (third for the sin^4 shapes),
    # which keeps the solution free of weak kinks along the corner
    # characteristics: derivative-level corner compatibility, not just the
    # value-level conditions.
    sin4 = lambda y: np.sin(np.pi * y) ** 4
    shapes_a = {
        "w": lambda y: np.sin(np.pi * y) ** 3,
        "p": lambda y: 0.5 * sin4(y),
        "u": lambda y: 0.3 * sin4(y) * np.cos(np.pi * y),
        "rho": lambda y: 0.4 * sin4(y),
    }
    shapes_b = {
        "w": lambda y: np.sin(np.pi * y) ** 3,
        "p": lambda y: 0.5 * sin4(y),
        "u": lambda y: -0.25 * sin4(y),
        "rho": lambda y: 0.35 * sin4(y) * np.cos(2.0 * np.pi * y),
    }

    def build_geom(amp):
        if amp == 0.0:
            return background_geometry(L)
        # quartic-sine bumps: flat to third order at the inlet corner
        return NozzleGeometry(
            g_minus=WallCurve.from_expression(f"-1 - {amp!r} * sin(1.5 * pi * x / {L!r}) ** 4"),
            g_plus=WallCurve.from_expression(f"1 + {amp!r} * sin(pi * x / {L!r}) ** 4"),
            L=L,
        )

    def build_profile(amp):
        return InletProfile(
            layer_a=_layer_samples(ya, bg.u_a, bg.rho_a, bg.p, amp, shapes_a),
            layer_b=_layer_samples(yb, bg.u_b, bg.rho_b, bg.p, amp, shapes_b),
        )

    if eps == 0.0:
        geom, profile = build_geom(0.0), build_profile(0.0)
    else:
        # Normalize so perturbation_size comes out exactly eps: tabulated
        # inlet deviations scale exactly by t, and the wall deviation is
        # linear in its expression amplitude.
        geom0, profile0 = build_geom(eps), build_profile(eps)
        measured = config.perturbation_size(profile0, geom0, bg)
        t = eps / measured
        geom = build_geom(eps * t)
        profile = profile0.scale_deviation(bg, t)

    cfg = RunConfig(
        gamma=1.4,
        grid_nxi=nxi,
        grid_neta_a=neta,
        grid_neta_b=neta,
        fp_tol=fp_tol,
        background=bg,
    )
    return cfg, geom, profile


def write_fixture(path, eps, **kwargs):
    """Write a config file for the canonical fixture; returns the inputs."""
    cfg, geom, profile = perturbed_inputs(eps, **kwargs)
    config.write_config(cfg, geom, profile, path)
    return cfg, geom, profile


BLOWUP_FIXTURE = """\
[gas]
gamma = 1.4

[blowup]
u0 = 2.0
v0 = {delta!r} * sin(pi * y)
rho_wall = 1.0
ny = {ny}
x_max = {x_max!r}
dx_max = 0.05
grad_factor = {grad_factor!r}
"""


def write_blowup_fixture(path, delta=0.01, ny=800, x_max=200.0, grad_factor=15.0):
    with open(path, "w") as fh:
        fh.write(BLOWUP_FIXTURE.format(delta=delta, ny=ny, x_max=x_max, grad_factor=grad_factor))
