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
Supersonic Flow and Shock Waves, ch. IV).  The inverse p(Theta) is found by
Newton's method on nu in s = sqrt(M^2-1), whose derivative is rational in s,
and p is recovered from M^2 once.

All quantities are nondimensional.  The pointwise functions (sound speed,
Bernoulli and entropy constants, sonic pressure) accept scalars or numpy
arrays and broadcast.  The invariants of a state, their inversion
z -> (u, v, p, rho), the characteristic speeds and dTheta/dp exist only as
methods of ``Streamline``, which computes its streamlines' constants (sonic
pressure and its cap, nu(M(p_ref)), the Newton start and floor, the powers
of A0) once and takes arrays; ``moc.MocProblem.line`` is one for the whole
node row, shared by the fixed point and the upwind oracle.  nu(M(p_ref)) is
taken with p_ref as an array, through the same power as nu(M(p)), so a
state at p_ref has Theta exactly 0.0 and the background's invariants are
exactly (0, 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Refuse pressures within this relative margin of the sonic pressure instead
# of regularizing the vanishing-radicand endpoint.
SONIC_MARGIN = 1e-6


class GasError(ValueError):
    """A thermodynamic operation left its admissible domain.

    The message starts with a short machine-readable code such as
    ``sonic-limit``, ``not-supersonic``, ``out-of-range``, ``cavitation``,
    ``degenerate`` or ``no-convergence``.
    """


def _as_array(*vals):
    return [np.asarray(v, dtype=float) for v in vals]


def _check_positive(p, rho):
    if not ((p > 0.0) & (rho > 0.0)).all():
        raise GasError("out-of-range: nonpositive pressure or density in PrimitiveState")


@dataclass(frozen=True)
class PrimitiveState:
    """Physical flow state (u, v, p, rho) at a point; fields may be arrays."""

    u: object
    v: object
    p: object
    rho: object

    def __post_init__(self):
        _check_positive(*_as_array(self.p, self.rho))


# ---------------------------------------------------------------------------
# Pointwise thermodynamics


def sound_speed(state: PrimitiveState, gamma):
    """c = sqrt(gamma p / rho)."""
    p, rho = _as_array(state.p, state.rho)
    return np.sqrt(gamma * p / rho)


def bernoulli(state: PrimitiveState, gamma):
    """B = (u^2+v^2)/2 + gamma p / ((gamma-1) rho), conserved along streamlines."""
    u, v, p, rho = _as_array(state.u, state.v, state.p, state.rho)
    return 0.5 * (u * u + v * v) + gamma * p / ((gamma - 1.0) * rho)


def entropy_function(state: PrimitiveState, gamma):
    """A = p / rho^gamma, conserved along streamlines."""
    p, rho = _as_array(state.p, state.rho)
    return p / rho**gamma


def sonic_pressure(a0, b0, gamma):
    """Pressure at which the flow on the streamline with entropy function a0
    and Bernoulli constant b0 turns sonic.

    Solves 2 B0 = gamma(gamma+1)/(gamma-1) A0^(1/gamma) p^((gamma-1)/gamma);
    the admissible supersonic pressures are 0 < p < sonic_pressure.
    """
    a0, b0 = _as_array(a0, b0)
    base = 2.0 * b0 * (gamma - 1.0) / (gamma * (gamma + 1.0) * a0 ** (1.0 / gamma))
    return base ** (gamma / (gamma - 1.0))


# ---------------------------------------------------------------------------
# Theta: the invariants and their inversion


def _nu(s, k):
    """Prandtl-Meyer function in s = sqrt(M^2-1), with k = (gamma+1)/(gamma-1)."""
    return np.sqrt(k) * np.arctan(s / np.sqrt(k)) - np.arctan(s)


def prandtl_meyer(mach2, gamma):
    """Prandtl-Meyer function nu(M), taking M^2 >= 1:

    nu = sqrt((g+1)/(g-1)) arctan(sqrt((g-1)/(g+1) (M^2-1))) - arctan(sqrt(M^2-1)).
    """
    k = (gamma + 1.0) / (gamma - 1.0)
    return _nu(np.sqrt(np.maximum(mach2 - 1.0, 0.0)), k)


def _mach2(p, a0, b0, gam):
    """M^2 = q^2/c^2 = 2 B0 / (gamma A0^(1/gamma) p^((gamma-1)/gamma)) - 2/(gamma-1)."""
    return 2.0 * b0 / (gam * a0 ** (1.0 / gam) * p ** ((gam - 1.0) / gam)) - 2.0 / (gam - 1.0)


class Streamline:
    """The streamlines with entropy functions ``a0`` and Bernoulli constants
    ``b0`` (arrays, one value per node, or scalars), the global Theta
    reference pressure ``p_ref`` and the adiabatic exponent ``gamma``,
    prepared for repeated evaluations: the invariants of a state, the state
    at given invariants, the characteristic speeds and dTheta/dp.  It is the
    one way to evaluate any of them, and it exposes ``a0`` and ``b0`` as
    float arrays, ``p_ref`` and ``gamma``.  A0, B0 and p_ref must be
    positive (``out-of-range``).

    Everything that depends on the streamlines alone is computed once: here
    the powers of A0 that dTheta/dp and the Bernoulli velocity use, and on
    the first inversion or forward map the Newton constants, which are the
    sonic pressure and its SONIC_MARGIN cap, the Newton floor
    s_floor = s(cap) and nu(s_floor), nu_ref = nu(M(p_ref)), and the Newton
    start s0 = max(s(p_ref), s_floor) and nu(s0).  The forward map and the
    inversion read the same nu_ref and cap.

    The methods take numpy arrays (not Python scalars), broadcast against
    the shape of the stream data and return arrays.  The sonic pressure
    comes from ``sonic_pressure`` on the data as given, and every
    other power is taken on arrays, p_ref included: numpy's scalar power
    rounds differently from its array power, and nu_ref must carry the bits
    of nu(M(p)) at p = p_ref.
    """

    def __init__(self, a0, b0, p_ref, gamma, newton_tol=1e-12, max_newton_iters=50):
        self.a0, self.b0 = _as_array(a0, b0)
        if not (np.all(self.a0 > 0.0) and np.all(self.b0 > 0.0)):
            raise GasError("out-of-range: stream data invariant violated: "
                           "A0 and B0 must be positive")
        if not p_ref > 0.0:
            raise GasError("out-of-range: stream data invariant violated: p_ref must be positive")
        gam = self.gamma = gamma
        k = self._k = (gam + 1.0) / (gam - 1.0)
        self.p_ref = p_ref
        self.newton_tol = newton_tol
        self.max_newton_iters = max_newton_iters
        arrays = np.broadcast_arrays(self.a0, self.b0)
        shape = self.shape = arrays[0].shape
        a0, b0 = (np.ravel(v) for v in arrays)
        self._nu_max = (np.sqrt(k) - 1.0) * np.pi / 2

        # Factors of dTheta/dp and of the Bernoulli velocity, in the data's shape.
        a_pow = a0 ** (1.0 / gam)
        self._two_b0 = (2.0 * b0).reshape(shape)
        self._sonic_a = (gam * (gam + 1.0) / (gam - 1.0) * a_pow).reshape(shape)
        self._bern_a = (gam / (gam - 1.0) * a_pow).reshape(shape)
        self._front = (2.0 * np.sqrt(gam) * a0 ** (-0.5 / gam)).reshape(shape)
        self._gm1_b0 = ((gam - 1.0) * b0).reshape(shape)
        self._gam_a = (gam * a_pow).reshape(shape)

    @cached_property
    def _newton(self):
        """Newton constants, one per node of the raveled data, computed on
        the first call of ``invariants`` or of an inversion."""
        gam, k = self.gamma, self._k
        a0, b0, p_sonic = (np.ravel(v) for v in np.broadcast_arrays(
            self.a0, self.b0, sonic_pressure(self.a0, self.b0, gam)))
        cap = p_sonic * (1.0 - SONIC_MARGIN)
        s_floor = np.sqrt(_mach2(cap, a0, b0, gam) - 1.0)
        m2_ref = _mach2(np.full(a0.shape, self.p_ref), a0, b0, gam)
        s0 = np.maximum(np.sqrt(np.maximum(m2_ref - 1.0, 0.0)), s_floor)
        return (p_sonic, cap, s_floor, _nu(s_floor, k) - self.newton_tol,
                prandtl_meyer(m2_ref, gam), s0, _nu(s0, k))

    def invariants(self, u, v, p, rho):
        """The invariants of the states (u, v, p, rho), stacked as one
        (2, ...) array [z_minus, z_plus]:

        z_minus = arctan(v/u) + Theta(p),  z_plus = arctan(v/u) - Theta(p),

        with Theta(p) = nu_ref - nu(M(p)), the inverse of ``_invert``.  A
        state at p_ref has Theta exactly 0.0, and every pressure the
        inversion returns is admissible.  Raises ``not-supersonic`` where
        q <= c, ``out-of-range`` where p <= 0 and ``sonic-limit`` above the
        SONIC_MARGIN cap.
        """
        if not (u * u + v * v > self.gamma * p / rho).all():
            raise GasError("not-supersonic: invariants are defined only for supersonic states")
        if not (p > 0.0).all():
            raise GasError("out-of-range: pressure must be positive")
        _, cap, _, _, nu_ref, _, _ = (c.reshape(self.shape) for c in self._newton)
        if not (p <= cap).all():
            raise GasError("sonic-limit: pressure within margin of the sonic pressure")
        t = nu_ref - prandtl_meyer(_mach2(p, self.a0, self.b0, self.gamma), self.gamma)
        angle = np.arctan2(v, u)
        return np.stack([angle + t, angle - t])

    def _invert(self, t):
        """The pressure with Theta(p) = t.

        Theta(p) = nu_ref - nu(s) with s = sqrt(M^2-1), so Newton's method
        solves nu(s) = nu_ref - t in s, from each streamline's s0, and p is
        recovered from M^2 = 1 + s^2 once at the end.  With
        K = (gamma+1)/(gamma-1), nu(s) = sqrt(K) arctan(s/sqrt(K)) - arctan(s)
        increases with dnu/ds = s^2 (1 - 1/K) / ((1 + s^2/K)(1 + s^2)), which
        vanishes at the sonic point: a Newton step that leaves the bracket of
        s falls back to bisection.  The bracket's lower end is the s of the
        SONIC_MARGIN cap on p; its upper end is open until an iterate
        overshoots.

        Only nodes whose Theta residual exceeds newton_tol take a step;
        needing more than max_newton_iters such sweeps raises
        ``no-convergence``.  A target past the sonic cap, at or beyond vacuum
        (nu_max = (sqrt(K) - 1) pi/2), NaN, or whose pressure underflows
        raises ``out-of-range``.
        """
        gam, k, tol = self.gamma, self._k, self.newton_tol
        shape, consts = self.shape, self._newton
        if t.shape != shape:
            shape = np.broadcast_shapes(t.shape, shape)
            t = np.broadcast_to(t, shape)
            consts = [np.broadcast_to(c.reshape(self.shape), shape).ravel() for c in consts]
        p_sonic, cap, s_floor, nu_low, nu_ref, s0, nu_s0 = consts
        nu_goal = nu_ref - t.ravel()
        if not ((nu_goal >= nu_low) & (nu_goal < self._nu_max)).all():  # NaN fails too
            raise GasError("out-of-range: target exceeds the range of Theta on the admissible interval")

        s = s0.copy()
        lo = s_floor.copy()
        hi = np.full(s.size, np.inf)
        resid = nu_s0 - nu_goal
        live = np.flatnonzero(np.abs(resid) > tol)
        for _ in range(self.max_newton_iters):
            if not live.size:
                break
            x, r = s[live], resid[live]
            # nu is increasing, so an iterate above the target bounds s from above.
            above = r > 0.0
            lo[live] = x_lo = np.where(above, lo[live], x)
            hi[live] = x_hi = np.where(above, x, hi[live])
            x2 = x * x
            x = x - r * (1.0 + x2 / k) * (1.0 + x2) / (x2 * (1.0 - 1.0 / k))  # r / (dnu/ds)
            x = np.where((x > x_lo) & (x < x_hi), x, 0.5 * (x_lo + x_hi))
            s[live] = x
            resid[live] = r = _nu(x, k) - nu_goal[live]
            live = live[np.abs(r) > tol]
        if live.size:
            raise GasError("no-convergence: Newton inversion of Theta did not meet newton_tol")

        # _mach2 solved for p at M^2 = 1 + s^2.
        p = np.minimum(p_sonic * (k / (k + s * s)) ** (gam / (gam - 1.0)), cap)
        if not (p > 0.0).all():
            raise GasError("out-of-range: pressure underflows at this target")
        return p.reshape(shape)

    def velocity(self, w, p):
        """(u, v) from the flow-angle tangent w and the pressure p by the
        Bernoulli law:

        u = sqrt(2((gamma-1) B0 - gamma A0^(1/gamma) p^((gamma-1)/gamma))
                 / ((gamma-1)(1+w^2))),  v = w u.
        """
        gam = self.gamma
        rad = 2.0 * (self._gm1_b0 - self._gam_a * p ** ((gam - 1.0) / gam))
        if not (rad > 0.0).all():
            raise GasError("cavitation: Bernoulli radicand is nonpositive")
        u = np.sqrt(rad / ((gam - 1.0) * (1.0 + w * w)))
        return u, w * u

    def density(self, p):
        """rho = (p / A0)^(1/gamma)."""
        return (p / self.a0) ** (1.0 / self.gamma)

    def state(self, zm, zp):
        """(u, v, p, rho) at the invariants (z_minus, z_plus)."""
        z_sum = zm + zp
        if not (np.abs(z_sum) < np.pi).all():
            raise GasError("flow-angle: |z_minus + z_plus| must stay below pi")
        p = self._invert(0.5 * (zm - zp))
        u, v = self.velocity(np.tan(0.5 * z_sum), p)
        rho = self.density(p)
        _check_positive(p, rho)
        return u, v, p, rho

    def lambdas(self, u, v, p, rho):
        """Characteristic speeds (lambda_minus, lambda_plus) in
        stream-function coordinates at the state:

        lambda_pm = rho u c^2 / (u^2 - c^2) * (v/u ± sqrt(u^2+v^2-c^2)/c);

        requires u > c (so u^2 - c^2 > 0).
        """
        c2 = self.gamma * p / rho
        uu = u * u
        du = uu - c2
        q2mc2 = uu + v * v - c2
        # One reduction for both guards; the failing one is found only on error.
        if not ((du > 0.0) & (q2mc2 > 0.0)).all():
            if not (du > 0.0).all():
                raise GasError("degenerate: characteristic speeds need u > c")
            raise GasError("not-supersonic: q must exceed c")
        c = np.sqrt(c2)
        front = rho * u * c2 / du
        disc = np.sqrt(q2mc2) / c
        w = v / u
        return front * (w - disc), front * (w + disc)

    def dtheta_dp(self, p):
        """Closed-form dTheta/dp = sqrt(M^2-1)/(rho q^2) at the pressures p;
        strictly positive on the supersonic range."""
        gam = self.gamma
        rad = self._two_b0 - self._sonic_a * p ** ((gam - 1.0) / gam)
        # One reduction for both guards; the failing one is found only on error.
        if not ((p > 0.0) & (rad > 0.0)).all():
            if not (p > 0.0).all():
                raise GasError("out-of-range: pressure must be positive")
            raise GasError("sonic-limit: dTheta/dp radicand is nonpositive")
        den = (self._front * (self.b0 - self._bern_a * p ** (1.0 - 1.0 / gam))
               * p ** ((gam + 1.0) / (2.0 * gam)))
        return np.sqrt(rad) / den
