"""Gamma-law gas thermodynamics and Riemann-invariant algebra.

Working variables are the flow-angle tangent w = v/u and a pressure
functional Theta(p) defined per streamline by the entropy function
A0 = p/rho^gamma and the Bernoulli constant B0.  The combinations

    z_minus = arctan(w) + Theta(p),    z_plus = arctan(w) - Theta(p)

diagonalize the steady supersonic system in stream-function coordinates:
z_minus rides the fast (lambda_plus) characteristic family and z_plus the
slow (lambda_minus) one.  Theta is normalized so Theta(p_ref) = 0 with one
global reference pressure shared by every streamline of both layers; all
boundary and coupling relations used downstream depend only on z_minus+z_plus
and on Theta differences, so the convention is observable-free.

Theta is closed form: along a streamline dTheta/dp = sqrt(M^2-1)/(rho q^2)
= -d nu/dp, where nu is the Prandtl-Meyer function and M^2 is algebraic in
(p; A0, B0), so Theta(p) = nu(M(p_ref)) - nu(M(p)) (Courant & Friedrichs,
Supersonic Flow and Shock Waves, ch. IV).

All quantities are nondimensional.  Every function accepts scalars or numpy
arrays and broadcasts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

# Refuse pressures within this relative margin of the sonic pressure instead
# of regularizing the vanishing-radicand endpoint.
SONIC_MARGIN = 1e-6


class GasError(ValueError):
    """A thermodynamic operation left its admissible domain.

    The message starts with a short machine-readable code such as
    ``sonic-limit``, ``not-supersonic``, ``out-of-range``, ``cavitation``,
    ``degenerate``, ``no-convergence`` or ``stream-data-mismatch``.
    """


def _as_array(*vals):
    return [np.asarray(v, dtype=float) for v in vals]


def _maybe_scalar(x, *inputs):
    if all(np.ndim(v) == 0 for v in inputs):
        return float(x)
    return x


@dataclass(frozen=True)
class GasConstants:
    """Adiabatic exponent, gamma > 1."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise GasError(f"gamma invariant violated: gamma={self.gamma} must be > 1")


@dataclass(frozen=True)
class PrimitiveState:
    """Physical flow state (u, v, p, rho) at a point; fields may be arrays."""

    u: object
    v: object
    p: object
    rho: object

    def __post_init__(self):
        p, rho = _as_array(self.p, self.rho)
        if not (np.all(p > 0.0) and np.all(rho > 0.0)):
            raise GasError("nonpositive pressure or density in PrimitiveState")


@dataclass(frozen=True)
class InvariantPair:
    """Riemann invariants (z_minus, z_plus); |z_minus + z_plus| < pi."""

    z_minus: object
    z_plus: object

    def __post_init__(self):
        zm, zp = _as_array(self.z_minus, self.z_plus)
        if not np.all(np.abs(zm + zp) < np.pi):
            raise GasError("flow-angle out of range: |z_minus + z_plus| must stay below pi")


@dataclass(frozen=True)
class StreamData:
    """Streamline data at fixed eta: entropy function a0, Bernoulli b0, and
    the global Theta reference pressure.  a0/b0 may be arrays (one value per
    lattice point)."""

    a0: object
    b0: object
    p_ref: float

    def __post_init__(self):
        a0, b0 = _as_array(self.a0, self.b0)
        if not (np.all(a0 > 0.0) and np.all(b0 > 0.0)):
            raise GasError("stream data invariant violated: A0 and B0 must be positive")
        if not self.p_ref > 0.0:
            raise GasError("stream data invariant violated: p_ref must be positive")


class StreamTable:
    """Tabulated per-layer streamline data A0(eta), B0(eta) with monotone
    cubic interpolation, sharing one global Theta reference pressure."""

    def __init__(self, eta, a0, b0, p_ref, g: GasConstants):
        eta, a0, b0 = _as_array(eta, a0, b0)
        if eta.ndim != 1 or eta.size < 2 or not np.all(np.diff(eta) > 0):
            raise GasError("stream table needs at least two strictly increasing eta samples")
        StreamData(a0, b0, p_ref)  # positivity
        # p_ref must stay below the sonic pressure of every streamline,
        # otherwise Theta's reference point is inadmissible.
        cap = sonic_pressure(StreamData(a0, b0, p_ref), g)
        if not np.all(p_ref < cap * (1.0 - SONIC_MARGIN)):
            raise GasError("sonic-limit: reference pressure reaches the sonic pressure of a streamline")
        self.eta = eta
        self.a0_nodes = a0
        self.b0_nodes = b0
        self.p_ref = float(p_ref)
        self.g = g
        self._a0 = PchipInterpolator(eta, a0)
        self._b0 = PchipInterpolator(eta, b0)

    def at(self, eta):
        """Stream data at eta (scalar or array), clamped to the table span."""
        eta = np.asarray(eta, dtype=float)
        fuzz = 1e-9 * (self.eta[-1] - self.eta[0])
        if np.any(eta < self.eta[0] - fuzz) or np.any(eta > self.eta[-1] + fuzz):
            raise GasError("out-of-range: eta outside the tabulated layer span")
        eta = np.clip(eta, self.eta[0], self.eta[-1])
        return StreamData(self._a0(eta), self._b0(eta), self.p_ref)


# ---------------------------------------------------------------------------
# Pointwise thermodynamics


def sound_speed(state: PrimitiveState, g: GasConstants):
    """c = sqrt(gamma p / rho)."""
    p, rho = _as_array(state.p, state.rho)
    return _maybe_scalar(np.sqrt(g.gamma * p / rho), state.p, state.rho)


def is_supersonic(state: PrimitiveState, g: GasConstants):
    """True where u^2 + v^2 > c^2."""
    u, v = _as_array(state.u, state.v)
    c = np.asarray(sound_speed(state, g))
    out = u * u + v * v > c * c
    if np.ndim(state.u) == 0 and np.ndim(state.p) == 0:
        return bool(out)
    return out


def bernoulli(state: PrimitiveState, g: GasConstants):
    """B = (u^2+v^2)/2 + gamma p / ((gamma-1) rho), conserved along streamlines."""
    u, v, p, rho = _as_array(state.u, state.v, state.p, state.rho)
    out = 0.5 * (u * u + v * v) + g.gamma * p / ((g.gamma - 1.0) * rho)
    return _maybe_scalar(out, state.u, state.v, state.p, state.rho)


def entropy_function(state: PrimitiveState, g: GasConstants):
    """A = p / rho^gamma, conserved along streamlines."""
    p, rho = _as_array(state.p, state.rho)
    return _maybe_scalar(p / rho**g.gamma, state.p, state.rho)


def density_from_pressure(p, sd: StreamData, g: GasConstants):
    """rho = (p / A0)^(1/gamma) on a streamline with entropy function A0."""
    p, a0 = _as_array(p, sd.a0)
    return _maybe_scalar((p / a0) ** (1.0 / g.gamma), p, sd.a0)


def sonic_pressure(sd: StreamData, g: GasConstants):
    """Pressure at which the flow on this streamline turns sonic.

    Solves 2 B0 = gamma(gamma+1)/(gamma-1) A0^(1/gamma) p^((gamma-1)/gamma);
    the admissible supersonic pressures are 0 < p < sonic_pressure.
    """
    gam = g.gamma
    a0, b0 = _as_array(sd.a0, sd.b0)
    base = 2.0 * b0 * (gam - 1.0) / (gam * (gam + 1.0) * a0 ** (1.0 / gam))
    return _maybe_scalar(base ** (gam / (gam - 1.0)), sd.a0, sd.b0)


# ---------------------------------------------------------------------------
# Theta and its inverse


def _theta_integrand(tau, a0, b0, gam):
    a_pow = a0 ** (1.0 / gam)
    rad = 2.0 * b0 - gam * (gam + 1.0) / (gam - 1.0) * a_pow * tau ** ((gam - 1.0) / gam)
    den = (
        2.0
        * np.sqrt(gam)
        * a0 ** (-0.5 / gam)
        * (b0 - gam / (gam - 1.0) * a_pow * tau ** (1.0 - 1.0 / gam))
        * tau ** ((gam + 1.0) / (2.0 * gam))
    )
    return np.sqrt(np.maximum(rad, 0.0)) / den


def dtheta_dp(p, sd: StreamData, g: GasConstants):
    """Closed-form dTheta/dp; strictly positive on the supersonic range."""
    gam = g.gamma
    orig = (p, sd.a0, sd.b0)
    p, a0, b0 = np.broadcast_arrays(*_as_array(p, sd.a0, sd.b0))
    if not np.all(p > 0.0):
        raise GasError("out-of-range: pressure must be positive")
    rad = 2.0 * b0 - gam * (gam + 1.0) / (gam - 1.0) * a0 ** (1.0 / gam) * p ** ((gam - 1.0) / gam)
    if not np.all(rad > 0.0):
        raise GasError("sonic-limit: dTheta/dp radicand is nonpositive")
    return _maybe_scalar(_theta_integrand(p, a0, b0, gam), *orig)


def prandtl_meyer(mach2, g: GasConstants):
    """Prandtl-Meyer function nu(M), taking M^2 >= 1:

    nu = sqrt((g+1)/(g-1)) arctan(sqrt((g-1)/(g+1) (M^2-1))) - arctan(sqrt(M^2-1)).
    """
    k = (g.gamma + 1.0) / (g.gamma - 1.0)
    root = np.sqrt(np.maximum(mach2 - 1.0, 0.0))
    return np.sqrt(k) * np.arctan(root / np.sqrt(k)) - np.arctan(root)


def _mach2(p, a0, b0, gam):
    """M^2 = q^2/c^2 = 2 B0 / (gamma A0^(1/gamma) p^((gamma-1)/gamma)) - 2/(gamma-1)."""
    return 2.0 * b0 / (gam * a0 ** (1.0 / gam) * p ** ((gam - 1.0) / gam)) - 2.0 / (gam - 1.0)


def theta(p, sd: StreamData, g: GasConstants):
    """Theta(p; A0, B0) = nu(M(p_ref)) - nu(M(p)), the integral of dTheta/dp
    from p_ref to p in closed form.

    Theta(p_ref) = 0 by construction and Theta is strictly increasing.
    Pressures within SONIC_MARGIN (relative) of the sonic pressure are
    rejected with a ``sonic-limit`` error.
    """
    orig = (p, sd.a0, sd.b0)
    p, a0, b0 = np.broadcast_arrays(*_as_array(p, sd.a0, sd.b0))
    if not np.all(p > 0.0):
        raise GasError("out-of-range: pressure must be positive")
    cap = np.asarray(sonic_pressure(StreamData(a0, b0, sd.p_ref), g))
    if not np.all(p <= cap * (1.0 - SONIC_MARGIN)):
        raise GasError("sonic-limit: pressure within margin of the sonic pressure")
    nu_ref = prandtl_meyer(_mach2(sd.p_ref, a0, b0, g.gamma), g)
    out = nu_ref - prandtl_meyer(_mach2(p, a0, b0, g.gamma), g)
    return _maybe_scalar(out, *orig)


def flow_angle(z: InvariantPair):
    """w = v/u = tan((z_minus + z_plus)/2)."""
    zm, zp = _as_array(z.z_minus, z.z_plus)
    return _maybe_scalar(np.tan(0.5 * (zm + zp)), z.z_minus, z.z_plus)


def pressure_from_invariants(z: InvariantPair, sd: StreamData, g: GasConstants,
                             newton_tol=1e-12, max_newton_iters=50, p_init=None):
    """Invert Theta(p) = (z_minus - z_plus)/2 for the unique pressure.

    Newton iteration with the closed-form derivative, safeguarded by
    bisection on a bracket grown geometrically from p_ref: dTheta/dp vanishes
    at the sonic pressure, so bare Newton is unsafe near the cap.
    """
    zm, zp = np.broadcast_arrays(*_as_array(z.z_minus, z.z_plus))
    target, a0, b0 = np.broadcast_arrays(0.5 * (zm - zp), *_as_array(sd.a0, sd.b0))
    shape = target.shape
    t = np.ravel(target).astype(float)
    a0 = np.ravel(np.broadcast_to(a0, shape)).astype(float)
    b0 = np.ravel(np.broadcast_to(b0, shape)).astype(float)
    gam = g.gamma
    nu_ref = prandtl_meyer(_mach2(sd.p_ref, a0, b0, gam), g)

    def theta_at(x, sel=slice(None)):
        return nu_ref[sel] - prandtl_meyer(_mach2(x, a0[sel], b0[sel], gam), g)

    cap = (2.0 * b0 * (gam - 1.0) / (gam * (gam + 1.0) * a0 ** (1.0 / gam))) ** (gam / (gam - 1.0))
    cap = cap * (1.0 - SONIC_MARGIN)
    floor = np.full_like(cap, sd.p_ref * 2.0**-60)

    lo = np.full_like(t, sd.p_ref)
    hi = np.full_like(t, sd.p_ref)
    th_lo = np.zeros_like(t)
    th_hi = np.zeros_like(t)

    # Grow the bracket toward the sonic cap / vacuum floor until it contains
    # the target.
    for _ in range(70):
        grow = (t > th_hi) & (hi < cap)
        if not np.any(grow):
            break
        hi[grow] = np.minimum(hi[grow] * 2.0, cap[grow])
        th_hi[grow] = theta_at(hi[grow], grow)
    for _ in range(70):
        shrink = (t < th_lo) & (lo > floor)
        if not np.any(shrink):
            break
        lo[shrink] = np.maximum(lo[shrink] * 0.5, floor[shrink])
        th_lo[shrink] = theta_at(lo[shrink], shrink)

    if np.any(t > th_hi + newton_tol) or np.any(t < th_lo - newton_tol):
        raise GasError("out-of-range: target exceeds the range of Theta on the admissible interval")

    if p_init is not None:
        p = np.clip(np.ravel(np.broadcast_to(np.asarray(p_init, dtype=float), shape)).copy(), lo, hi)
    else:
        p = np.clip(np.full_like(t, sd.p_ref), lo, hi)
    resid = theta_at(p) - t
    iters = 0
    while np.any(np.abs(resid) > newton_tol):
        if iters >= max_newton_iters:
            raise GasError("no-convergence: Newton inversion of Theta did not meet newton_tol")
        iters += 1
        # Tighten the bracket with the current iterate (Theta is monotone).
        above = resid > 0.0
        hi = np.where(above & (p < hi), p, hi)
        lo = np.where(~above & (p > lo), p, lo)

        deriv = _theta_integrand(p, a0, b0, gam)
        step = -resid / deriv
        p_new = p + step
        bad = (p_new <= lo) | (p_new >= hi) | ~np.isfinite(p_new)
        p = np.where(bad, 0.5 * (lo + hi), p_new)
        resid = theta_at(p) - t

    return _maybe_scalar(p.reshape(shape), z.z_minus, z.z_plus, sd.a0, sd.b0)


def invariants_from_state(state: PrimitiveState, sd: StreamData, g: GasConstants,
                          mismatch_tol=1e-8):
    """z_minus = arctan(v/u) + Theta(p), z_plus = arctan(v/u) - Theta(p).

    The state must be supersonic and its entropy function / Bernoulli
    constant must match the streamline data within mismatch_tol (relative).
    """
    if not np.all(np.asarray(is_supersonic(state, g))):
        raise GasError("not-supersonic: invariants are defined only for supersonic states")
    a = np.asarray(entropy_function(state, g))
    b = np.asarray(bernoulli(state, g))
    a0, b0 = _as_array(sd.a0, sd.b0)
    if np.any(np.abs(a - a0) > mismatch_tol * np.abs(a0)) or np.any(
        np.abs(b - b0) > mismatch_tol * np.abs(b0)
    ):
        raise GasError("stream-data-mismatch: state A/B disagree with streamline data")
    u, v = _as_array(state.u, state.v)
    ang = np.arctan2(v, u)
    th = np.asarray(theta(state.p, sd, g))
    zm = _maybe_scalar(ang + th, state.u, state.v, state.p, sd.a0)
    zp = _maybe_scalar(ang - th, state.u, state.v, state.p, sd.a0)
    return InvariantPair(zm, zp)


def velocity_from_bernoulli(w, p, sd: StreamData, g: GasConstants):
    """Recover (u, v) from the flow-angle tangent, pressure and stream data.

    u = sqrt(2((gamma-1) B0 - gamma A0^(1/gamma) p^((gamma-1)/gamma))
             / ((gamma-1)(1+w^2))),  v = w u.
    """
    gam = g.gamma
    orig = (w, p, sd.a0, sd.b0)
    w, p, a0, b0 = np.broadcast_arrays(*_as_array(w, p, sd.a0, sd.b0))
    rad = 2.0 * ((gam - 1.0) * b0 - gam * a0 ** (1.0 / gam) * p ** ((gam - 1.0) / gam))
    if not np.all(rad > 0.0):
        raise GasError("cavitation: Bernoulli radicand is nonpositive")
    u = np.sqrt(rad / ((gam - 1.0) * (1.0 + w * w)))
    v = w * u
    return (_maybe_scalar(u, *orig), _maybe_scalar(v, *orig))


def state_from_invariants(z: InvariantPair, sd: StreamData, g: GasConstants,
                          newton_tol=1e-12, max_newton_iters=50, p_init=None):
    """Full inversion z -> (u, v, p, rho) on a streamline."""
    w = flow_angle(z)
    p = pressure_from_invariants(z, sd, g, newton_tol=newton_tol,
                                 max_newton_iters=max_newton_iters, p_init=p_init)
    u, v = velocity_from_bernoulli(w, p, sd, g)
    rho = density_from_pressure(p, sd, g)
    return PrimitiveState(u=u, v=v, p=p, rho=rho)


def lambda_pm(state: PrimitiveState, g: GasConstants):
    """Characteristic speeds in stream-function coordinates.

    lambda_pm = rho u c^2 / (u^2 - c^2) * (v/u ± sqrt(u^2+v^2-c^2)/c);
    requires u > c (so u^2 - c^2 > 0).  Returns (lambda_minus, lambda_plus).
    """
    u, v, p, rho = _as_array(state.u, state.v, state.p, state.rho)
    c2 = g.gamma * p / rho
    du = u * u - c2
    if not np.all(du > 0.0):
        raise GasError("degenerate: characteristic speeds need u > c")
    q2mc2 = u * u + v * v - c2
    if not np.all(q2mc2 > 0.0):
        raise GasError("not-supersonic: q must exceed c")
    c = np.sqrt(c2)
    front = rho * u * c2 / du
    disc = np.sqrt(q2mc2) / c
    lam_m = front * (v / u - disc)
    lam_p = front * (v / u + disc)
    return (
        _maybe_scalar(lam_m, state.u, state.v, state.p, state.rho),
        _maybe_scalar(lam_p, state.u, state.v, state.p, state.rho),
    )
