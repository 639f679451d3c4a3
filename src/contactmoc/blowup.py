"""Gradient blow-up demonstrator: irrotational flow in a semi-infinite flat nozzle.

The model is the 2x2 genuinely nonlinear system for (Z_plus, Z_minus) =
theta +- Theta(q) with the Bernoulli normalization

    q^2/2 + c^2/(gamma-1) = qhat^2/2,      c = rho^((gamma-1)/2),

so c(q)^2 = (gamma-1)(qhat^2 - q^2)/2 and the flow is admissible for
c_hat < q < qhat with c_hat = qhat sqrt((gamma-1)/(gamma+1)).  Theta(q) is
the Prandtl-Meyer angle nu(M(q)) measured from q_ref, in closed form with
M^2 = 2 q^2 / ((gamma-1)(qhat^2 - q^2)).  Z_plus is constant along
dy/dx = lambda_minus and Z_minus along lambda_plus, lambda_-+ =
tan(theta -+ mu) with the Mach angle mu (sin mu = c/q), a function of Theta
alone.  The wall-bounded problem on y in [0, 1] is extended to one full
period y in [-1, 1) by even reflection of (u, rho) and odd reflection of v,
so the march is a pure periodic Cauchy problem.  It starts from the
configured closed forms: u0(y) and v0(y) are evaluated at the nodes and the
density follows pointwise from the Bernoulli law.

Two independent blow-up detectors run side by side: a gradient-explosion
trigger on sup|d_y Z| and a same-family characteristic-crossing trigger
(forward-integrated fans of characteristics whose ordering inverts).  The
march's settings, the trigger's among them, are plain keywords of
``cauchy_march``, whose defaults are the ``[blowup]`` defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import interp
from .csvout import write_csv
from .expressions import SmoothExpression
from .gas import GasError, prandtl_meyer


class BlowupError(ValueError):
    """Inadmissible state or data in the demonstrator."""


def sound_speed_of_density(rho, gamma):
    return np.asarray(rho, dtype=float) ** (0.5 * (gamma - 1.0))


def critical_speed(qhat, gamma):
    """Speed at which q = c(q); admissible supersonic range is (c_hat, qhat)."""
    return qhat * math.sqrt((gamma - 1.0) / (gamma + 1.0))


def _c_of_q2(q2, qhat, gamma):
    """The sound speed c(q) from the squared speed q2 = q * q."""
    return np.sqrt(0.5 * (gamma - 1.0) * (qhat * qhat - q2))


def _mach2_of_speed(q, qhat, gamma):
    return 2.0 * q * q / ((gamma - 1.0) * (qhat * qhat - q * q))


def theta_of_speed(q, qhat, gamma, q_ref):
    """Theta(q) = nu(M(q)) - nu(M(q_ref)), the integral of
    sqrt(tau^2 - c^2(tau)) / (tau c(tau)) from q_ref to q, for an array q."""
    c_hat = critical_speed(qhat, gamma)
    if np.any(q <= c_hat) or np.any(q >= qhat) or not c_hat < q_ref < qhat:
        raise BlowupError("sonic-limit: speed outside the admissible (c_hat, qhat) range")
    nu_ref = prandtl_meyer(_mach2_of_speed(q_ref, qhat, gamma), gamma)
    return prandtl_meyer(_mach2_of_speed(q, qhat, gamma), gamma) - nu_ref


def irrot_invariants(u, v, rho, gamma, q_ref, qhat):
    """Z_pm = theta +- Theta(q) for irrotational states, given as arrays,
    stacked as [Z_plus, Z_minus] along a new leading axis (the march's row
    order).

    (u, v, rho) data whose pointwise limit speed
    qhat = sqrt(q^2 + 2 c^2 / (gamma - 1)) departs from ``qhat`` by more than
    1e-8 (relative) is rejected.
    """
    q = np.hypot(u, v)
    c = sound_speed_of_density(rho, gamma)
    if np.any(q <= c):
        raise BlowupError("sonic-limit: state is not supersonic (q <= c)")
    qhat_point = np.sqrt(q * q + 2.0 * c * c / (gamma - 1.0))
    if np.any(np.abs(qhat_point - qhat) > 1e-8 * qhat):
        raise BlowupError("bernoulli-mismatch: (u, v, rho) violate the qhat normalization")
    theta = np.arctan2(v, u)
    th = theta_of_speed(q, qhat, gamma, q_ref)
    return np.array([theta + th, theta - th])


_MINUS_PLUS = np.array([-1.0, 1.0])
_HALF_PI = 0.5 * math.pi


def _mach_slopes(theta, mu):
    """Slopes dy/dx = tan(theta -+ mu), stacked as [lambda_minus, lambda_plus]
    along a new leading axis.  As u = q cos(theta) and c = q sin(mu), u > c
    is |theta| + mu < pi/2; elsewhere the state is ``degenerate``."""
    if (np.abs(theta) + mu >= _HALF_PI).any():
        raise BlowupError("degenerate: u dropped below c during the march")
    lam = np.multiply.outer(_MINUS_PLUS, mu)
    lam += theta
    return np.tan(lam, out=lam)


# ---------------------------------------------------------------------------
# Periodic profile


class PeriodicProfile:
    """Base inlet data on [0, 1] from the expressions ``u0(y)``, ``v0(y)``,
    with even/odd periodic extension to the line.

    The density follows pointwise from the Bernoulli normalization anchored
    at rho(0) = rho_wall for the adiabatic exponent ``gamma``, which must lie
    in (1, inf) (``gas.GasError``, ``out-of-range``); ``qhat`` and ``q_ref``
    are the limit speed and the speed at the wall y = 0.  (u, rho) extend
    evenly and v oddly about y = 0, then everything repeats with period 2,
    which keeps the wall conditions v(x, 0) = v(x, 1) = 0 built into the
    symmetry.
    """

    def __init__(self, u0_text, v0_text, gamma, rho_wall=1.0):
        if not 1.0 < gamma < math.inf:
            raise GasError(f"out-of-range: gamma invariant violated: gamma={gamma} "
                           "must be in (1, inf)")
        self.gamma = gamma
        self.u_expr = SmoothExpression(u0_text, var="y")
        self.v_expr = SmoothExpression(v0_text, var="y")
        c0 = rho_wall ** (0.5 * (gamma - 1.0))
        self.q_ref = math.hypot(float(self.u_expr(0.0)), float(self.v_expr(0.0)))
        self._qhat2 = self.q_ref * self.q_ref + 2.0 * c0 * c0 / (gamma - 1.0)
        self.qhat = math.sqrt(self._qhat2)
        # Reject a profile that reaches the limit speed or turns subsonic
        # anywhere on a 2001-node lattice of [0, 1], before any march.
        u, v, rho = self._base(np.linspace(0.0, 1.0, 2001))
        if np.any(np.hypot(u, v) <= sound_speed_of_density(rho, gamma)):
            raise BlowupError("sonic-limit: base profile has a non-supersonic sample")

    def _base(self, y):
        """(u0, v0, rho0) at y in [0, 1], rho0 from the Bernoulli radicand."""
        u = self.u_expr(y)
        v = self.v_expr(y)
        radic = 0.5 * (self.gamma - 1.0) * (self._qhat2 - (u * u + v * v))
        if np.any(radic <= 0.0):
            raise BlowupError("sonic-limit: profile speed reaches the limit speed")
        return u, v, radic ** (1.0 / (self.gamma - 1.0))

    def eval(self, y):
        """Periodic extension: (u, rho) even, v odd about integer lines."""
        t = np.mod(np.asarray(y, dtype=float) + 1.0, 2.0) - 1.0
        u, v, rho = self._base(np.abs(t))
        return u, np.where(t < 0.0, -1.0, 1.0) * v, rho


_COMPAT_TOL = 1e-8


def check_compatibility(profile: PeriodicProfile):
    """Wall compatibility of the base data: v0 = 0, d_y u0 = d_y rho0 = 0 and
    d2_y v0 = 0 at both walls, from the expressions' exact derivatives.
    Returns violation strings."""
    report = []
    for y_wall, label in ((0.0, "y=0"), (1.0, "y=1")):
        u, v, rho = (float(x) for x in profile._base(y_wall))
        if abs(v) > _COMPAT_TOL:
            report.append(f"v at {label}: v0 = {v:.3e} != 0")
        du = float(profile.u_expr(y_wall, 1))
        if abs(du) > _COMPAT_TOL:
            report.append(f"du/dy at {label}: {du:.3e} != 0")
        # Bernoulli: d rho / dy = -rho^(2 - gamma) (u u' + v v').
        drho = -rho ** (2.0 - profile.gamma) * (u * du + v * float(profile.v_expr(y_wall, 1)))
        if abs(drho) > _COMPAT_TOL:
            report.append(f"drho/dy at {label}: {drho:.3e} != 0")
        d2v = float(profile.v_expr(y_wall, 2))
        if abs(d2v) > _COMPAT_TOL:
            report.append(f"d2v/dy2 at {label}: {d2v:.3e} != 0")
    return report


# ---------------------------------------------------------------------------
# Detection


@dataclass
class BlowupReport:
    """March outcome: detector abscissas and the gradient history."""

    blowup_x: float = None
    trigger: str = None  # "gradient" or "crossing"
    gradient_x: float = None
    crossing_x: float = None
    x_history: np.ndarray = None
    grad_zp_history: np.ndarray = None
    grad_zm_history: np.ndarray = None
    x_end: float = 0.0
    steps: int = 0


# Step cap of the blow-up march, in cells: |dx lambda| <= _STEP_CAP dy.  A
# semi-Lagrangian step is stable past one cell; 1.5 rather than a whole
# number keeps near-constant-lambda rows from shifting by exact cells, which
# would hide the march's refinement error below the tracer floor.
_STEP_CAP = 1.5

_CROSSING_GAP_FRAC = 0.05  # see cauchy_march

# Safety bound on the number of march steps.
_MAX_STEPS = 2_000_000


def _periodic_pad():
    """Nodes copied onto each end of a row: an unwrapped foot within
    _STEP_CAP cells of its node lies in a cell [1, n - 2) of the padded row,
    so both of its Hermite slopes are interior, as ``interp.hermite_eval``
    requires."""
    return math.ceil(_STEP_CAP) + 2


class _MachAngleTable:
    """Dense monotone interpolant of the Mach angle mu(Theta), sin mu = c/q,
    built once per march from closed-form samples in q; one table lookup
    per step is cheaper than a per-step Newton inversion of Theta(q)."""

    def __init__(self, qhat, gamma, q_ref):
        c_hat = critical_speed(qhat, gamma)
        lo = c_hat + 1e-3 * (qhat - c_hat)
        hi = qhat - 1e-3 * (qhat - c_hat)
        qs = np.linspace(lo, hi, 2001)
        th = theta_of_speed(qs, qhat, gamma, q_ref)
        self.th_lo, self.th_hi = float(th[0]), float(th[-1])
        self.table = interp.pchip(th, np.arcsin(_c_of_q2(qs * qs, qhat, gamma) / qs))

    def mu_of_theta(self, th):
        """The Mach angle at Theta = th, for an array ``th``; a target
        outside the table, or NaN, is an error."""
        if not (self.th_lo <= th.min() and th.max() <= self.th_hi):
            raise BlowupError("sonic-limit: Theta target outside the admissible speed range")
        return self.table(th)


def _mod2(x):
    """``np.remainder(x, 2.0)`` bit for bit for finite x, from cheaper
    ufuncs.  x - 2 floor(x/2) rounds the same real number that the remainder
    rounds, once, wherever x/2 is exact; the one finite x whose half rounds,
    to -0.0, is -5e-324, and its remainder rounds up to 2.0."""
    k = np.floor(x * 0.5)
    r = x - (k + k)
    r[r < 0.0] = 2.0
    return r


def cauchy_march(profile: PeriodicProfile, x_max=200.0, ny=800, dx_max=0.05,
                 grad_factor=1e3, grad_floor=1e-6) -> BlowupReport:
    """March the diagonal system on one period with adaptive steps.

    The first row is ``irrot_invariants`` of ``profile.eval`` at the nodes,
    with the adiabatic exponent ``profile.gamma``.
    Each step takes both slopes as tan(theta -+ mu) (``_mach_slopes``), with
    mu(Theta) read from a table built once (``_MachAngleTable``).
    Semi-Lagrangian update (monotone cubic, periodic): Z_plus is pulled back
    along lambda_minus and Z_minus along lambda_plus.  The step size tracks
    dx = min(dx_max, 1.5 dy / max|lambda|, 0.1 / max|d_y Z|), so every foot
    lies within 1.5 cells of its node and is read unwrapped from the
    periodically padded row.  The march stops at x_max or once both
    detectors have fired; one that would need more than _MAX_STEPS steps
    raises a ``step-limit`` BlowupError.

    Gradient detector: the trigger fires once sup|d_y Z| exceeds
    max(grad_factor x its initial value, grad_floor).

    Crossing detector: same-family characteristic fans seeded at the inlet
    nodes are integrated alongside the solution; the trigger fires when an
    adjacent pair's gap falls below _CROSSING_GAP_FRAC of the initial spacing
    (at that separation the pair crosses within one step at grid
    resolution -- the raw ordering inversion of the numerically mollified
    field would fire systematically late).

    Both families share every array: row 0 holds Z_plus, lambda_minus and
    the family-minus fan, row 1 Z_minus, lambda_plus and the family-plus fan.
    """
    gamma = profile.gamma
    y = -1.0 + 2.0 * np.arange(ny) / ny  # one period, no duplicate endpoint
    dy = 2.0 / ny
    u, v, rho = profile.eval(y)
    z = irrot_invariants(u, v, rho, gamma, q_ref=profile.q_ref, qhat=profile.qhat)

    mach_angle = _MachAngleTable(profile.qhat, gamma, profile.q_ref)

    # Periodic padding: column j + pad of z.take(ext, axis=1) is node j, on
    # the lattice y0 + k h.  The step cap keeps every foot within _STEP_CAP
    # cells of its node and so inside the pad: feet are looked up as they
    # are, unwrapped.
    pad = _periodic_pad()
    ext = np.arange(-pad, ny + pad) % ny
    h = y[1] - y[0]
    y0 = y[0] - pad * h
    right, left = slice(pad + 1, pad + ny + 1), slice(pad - 1, pad + ny - 1)
    two_dy = 2.0 * dy

    def abs_gradient(zx):
        """max|d_y Z| of each row by central differences, from the padded
        rows.  Division by 2 dy > 0 is monotone, so it is taken after the
        maximum, on two numbers."""
        dmax_p, dmax_m = np.abs(zx[:, right] - zx[:, left]).max(axis=1).tolist()
        return dmax_p / two_dy, dmax_m / two_dy

    # The static half of np.interp(..., period=2.0) for the fans: the sorted
    # lattice extended by one node each side, and the order mapping lambda
    # onto it.
    wrapped = y % 2.0
    order = np.argsort(wrapped)
    fan_order = np.concatenate((order[-1:], order, order[:1]))
    fan_y = wrapped[fan_order]
    fan_y[0] -= 2.0
    fan_y[-1] += 2.0
    fans = np.array([y, y])

    zx = z.take(ext, axis=1)
    g0p, g0m = abs_gradient(zx)
    xs, gzp, gzm = [0.0], [g0p], [g0m]
    threshold = max(grad_factor * max(g0p, g0m), grad_floor)

    report = BlowupReport()
    x = 0.0
    x_stop = x_max
    while not (x >= x_stop or (report.gradient_x is not None and report.crossing_x is not None)):
        if len(xs) > _MAX_STEPS:
            raise BlowupError(f"step-limit: {_MAX_STEPS} steps reached only x = {x:.6g} "
                              f"before x_stop = {x_stop:.6g}")
        zp, zm = z
        lam = _mach_slopes(0.5 * (zp + zm), mach_angle.mu_of_theta(0.5 * (zp - zm)))

        max_lam = float(np.abs(lam).max())
        max_grad = max(gzp[-1], gzm[-1])
        dx = min(dx_max, _STEP_CAP * dy / max_lam)  # feet stay in the pad
        if max_grad > 0.0:
            dx = min(dx, 0.1 / max_grad)
        dx = min(dx, x_max - x)
        if dx <= 1e-12:
            break

        z = interp.monotone_interp(y0, h, zx, y - dx * lam)

        # Characteristic fans advance with the pre-step slopes (unwrapped).
        lam_fan = lam.take(fan_order, axis=1)
        fan_x = _mod2(fans)
        fans[0] += dx * np.interp(fan_x[0], fan_y, lam_fan[0])
        fans[1] += dx * np.interp(fan_x[1], fan_y, lam_fan[1])

        x += dx
        xs.append(x)
        zx = z.take(ext, axis=1)
        gp, gm = abs_gradient(zx)
        gzp.append(gp)
        gzm.append(gm)

        if report.blowup_x is not None:
            # Give the second detector a bounded window past the first one.
            x_stop = min(x_max, 1.25 * report.blowup_x + 10.0 * dy)
        if report.gradient_x is None and max(gp, gm) > threshold:
            report.gradient_x = x
            if report.blowup_x is None:
                report.blowup_x = x
                report.trigger = "gradient"
        if report.crossing_x is None:
            gap_m, gap_p = (fans[:, 1:] - fans[:, :-1]).min(axis=1).tolist()
            gap_limit = _CROSSING_GAP_FRAC * dy
            if gap_m <= gap_limit or gap_p <= gap_limit:
                report.crossing_x = x
                if report.blowup_x is None:
                    report.blowup_x = x
                    report.trigger = "crossing"

    report.x_history = np.asarray(xs)
    report.grad_zp_history = np.asarray(gzp)
    report.grad_zm_history = np.asarray(gzm)
    report.x_end = x
    report.steps = len(xs) - 1
    return report


def write_gradient_csv(report: BlowupReport, path):
    write_csv(path, ("x", "max_grad_Zp", "max_grad_Zm"),
              (report.x_history, report.grad_zp_history, report.grad_zm_history))
