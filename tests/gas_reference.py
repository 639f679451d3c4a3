"""Test helper: Theta, the pressure inversion, the speeds and dTheta/dp
written per call.

``gas.Streamline`` computes each streamline's constants once, and it is the
package's only way to map states to invariants and back and to evaluate the
speeds and dTheta/dp.  This reference keeps those evaluations as plain
scalar-or-array functions, every constant recomputed on each call from the
broadcast inputs: Theta, the Newton inversion, dTheta/dp, the Bernoulli
velocity and density that complete a state, and the characteristic speeds.
They return floats for scalar inputs.  Both take nu(M(p_ref)) with p_ref as
an array, and both must agree bit for bit.  The streamline ``line`` they take
is a ``gas.Streamline``, of which they read only the values it was built
from: ``a0``, ``b0``, ``p_ref`` and ``gamma``.
"""

import numpy as np

from contactmoc.gas import (SONIC_MARGIN, GasError, PrimitiveState, Streamline, _as_array, _mach2,
                            _nu, prandtl_meyer, sonic_pressure)


def _maybe_scalar(x, *inputs):
    if all(np.ndim(v) == 0 for v in inputs):
        return float(x)
    return x


def theta(p, line: Streamline):
    """Theta(p; A0, B0) = nu(M(p_ref)) - nu(M(p)), the integral of dTheta/dp
    from p_ref to p in closed form.

    Theta(p_ref) = 0 by construction and Theta is strictly increasing.
    Pressures within SONIC_MARGIN (relative) of the sonic pressure are
    rejected with a ``sonic-limit`` error; the sonic pressure is taken on the
    streamline constants as given, as ``Streamline`` takes it, so theta
    accepts every pressure the inversion returns.
    """
    gam = line.gamma
    orig = (p, line.a0, line.b0)
    p, a0, b0 = np.broadcast_arrays(*_as_array(p, line.a0, line.b0))
    if not np.all(p > 0.0):
        raise GasError("out-of-range: pressure must be positive")
    cap = np.asarray(sonic_pressure(line.a0, line.b0, gam))
    if not np.all(p <= cap * (1.0 - SONIC_MARGIN)):
        raise GasError("sonic-limit: pressure within margin of the sonic pressure")
    nu_ref = prandtl_meyer(_mach2(np.full(p.shape, line.p_ref), a0, b0, gam), gam)
    out = nu_ref - prandtl_meyer(_mach2(p, a0, b0, gam), gam)
    return _maybe_scalar(out, *orig)


def dtheta_dp(p, line: Streamline):
    """Closed-form dTheta/dp = sqrt(M^2-1)/(rho q^2); strictly positive on the
    supersonic range."""
    gam = line.gamma
    orig = (p, line.a0, line.b0)
    p, a0, b0 = np.broadcast_arrays(*_as_array(p, line.a0, line.b0))
    if not np.all(p > 0.0):
        raise GasError("out-of-range: pressure must be positive")
    a_pow = a0 ** (1.0 / gam)
    rad = 2.0 * b0 - gam * (gam + 1.0) / (gam - 1.0) * a_pow * p ** ((gam - 1.0) / gam)
    if not np.all(rad > 0.0):
        raise GasError("sonic-limit: dTheta/dp radicand is nonpositive")
    den = (
        2.0
        * np.sqrt(gam)
        * a0 ** (-0.5 / gam)
        * (b0 - gam / (gam - 1.0) * a_pow * p ** (1.0 - 1.0 / gam))
        * p ** ((gam + 1.0) / (2.0 * gam))
    )
    return _maybe_scalar(np.sqrt(rad) / den, *orig)


def pressure_from_invariants(z_minus, z_plus, line: Streamline, newton_tol=1e-12,
                             max_newton_iters=50):
    """Invert Theta(p) = (z_minus - z_plus)/2 by Newton's method on nu(s)."""
    gam = line.gamma
    k = (gam + 1.0) / (gam - 1.0)
    zm, zp = _as_array(z_minus, z_plus)
    arrays = np.broadcast_arrays(0.5 * (zm - zp), *_as_array(
        line.a0, line.b0, sonic_pressure(line.a0, line.b0, gam)))
    shape = arrays[0].shape
    t, a0, b0, p_sonic = (np.ravel(v) for v in arrays)
    cap = p_sonic * (1.0 - SONIC_MARGIN)
    s_floor = np.sqrt(_mach2(cap, a0, b0, gam) - 1.0)
    m2_ref = _mach2(np.full(a0.shape, line.p_ref), a0, b0, gam)
    nu_goal = prandtl_meyer(m2_ref, gam) - t
    nu_max = (np.sqrt(k) - 1.0) * np.pi / 2
    if np.any(nu_goal < _nu(s_floor, k) - newton_tol) or np.any(nu_goal >= nu_max):
        raise GasError("out-of-range: target exceeds the range of Theta on the admissible interval")

    s = np.maximum(np.sqrt(np.maximum(m2_ref - 1.0, 0.0)), s_floor)
    lo = s_floor.copy()
    hi = np.full_like(s, np.inf)
    resid = _nu(s, k) - nu_goal
    live = np.flatnonzero(np.abs(resid) > newton_tol)
    for _ in range(max_newton_iters):
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
        live = live[np.abs(r) > newton_tol]
    if live.size:
        raise GasError("no-convergence: Newton inversion of Theta did not meet newton_tol")

    # _mach2 solved for p at M^2 = 1 + s^2.
    p = np.minimum(p_sonic * (k / (k + s * s)) ** (gam / (gam - 1.0)), cap)
    if not np.all(p > 0.0):
        raise GasError("out-of-range: pressure underflows at this target")
    return _maybe_scalar(p.reshape(shape), z_minus, z_plus, line.a0, line.b0)


def velocity_from_bernoulli(w, p, line: Streamline):
    """(u, v) from the flow-angle tangent and the pressure on the streamline."""
    gam = line.gamma
    orig = (w, p, line.a0, line.b0)
    w, p, a0, b0 = np.broadcast_arrays(*_as_array(w, p, line.a0, line.b0))
    rad = 2.0 * ((gam - 1.0) * b0 - gam * a0 ** (1.0 / gam) * p ** ((gam - 1.0) / gam))
    if not np.all(rad > 0.0):
        raise GasError("cavitation: Bernoulli radicand is nonpositive")
    u = np.sqrt(rad / ((gam - 1.0) * (1.0 + w * w)))
    v = w * u
    return (_maybe_scalar(u, *orig), _maybe_scalar(v, *orig))


def density_from_pressure(p, line: Streamline):
    """rho = (p / A0)^(1/gamma) on a streamline with entropy function A0."""
    p, a0 = _as_array(p, line.a0)
    return _maybe_scalar((p / a0) ** (1.0 / line.gamma), p, line.a0)


def state_from_invariants(z_minus, z_plus, line: Streamline, newton_tol=1e-12,
                          max_newton_iters=50):
    """(u, v, p, rho) from the invariants, composed of the functions above."""
    zm, zp = _as_array(z_minus, z_plus)
    if not np.all(np.abs(zm + zp) < np.pi):
        raise GasError("flow-angle: |z_minus + z_plus| must stay below pi")
    w = _maybe_scalar(np.tan(0.5 * (zm + zp)), z_minus, z_plus)
    p = pressure_from_invariants(z_minus, z_plus, line, newton_tol=newton_tol,
                                 max_newton_iters=max_newton_iters)
    u, v = velocity_from_bernoulli(w, p, line)
    return u, v, p, density_from_pressure(p, line)


def lambda_pm(state: PrimitiveState, gamma):
    """(lambda_minus, lambda_plus) = rho u c^2 / (u^2 - c^2) (v/u -+ sqrt(q^2 - c^2)/c)."""
    orig = (state.u, state.v, state.p, state.rho)
    u, v, p, rho = _as_array(*orig)
    c2 = gamma * p / rho
    if not np.all(u * u - c2 > 0.0):
        raise GasError("degenerate: characteristic speeds need u > c")
    if not np.all(u * u + v * v - c2 > 0.0):
        raise GasError("not-supersonic: q must exceed c")
    front = rho * u * c2 / (u * u - c2)
    disc = np.sqrt(u * u + v * v - c2) / np.sqrt(c2)
    return (_maybe_scalar(front * (v / u - disc), *orig),
            _maybe_scalar(front * (v / u + disc), *orig))
