"""Gradient blow-up demonstrator: irrotational flow in a semi-infinite flat nozzle.

The model is the 2x2 genuinely nonlinear system for (Z_plus, Z_minus) =
theta +- Theta(q) with the Bernoulli normalization

    q^2/2 + c^2/(gamma-1) = qhat^2/2,      c = rho^((gamma-1)/2),

so c(q)^2 = (gamma-1)(qhat^2 - q^2)/2 and the flow is admissible for
c_hat < q < qhat with c_hat = qhat sqrt((gamma-1)/(gamma+1)).  Theta(q) is
the Prandtl-Meyer angle nu(M(q)) measured from q_ref, in closed form with
M^2 = 2 q^2 / ((gamma-1)(qhat^2 - q^2)).  Z_plus is constant along
dy/dx = lambda_minus and Z_minus along lambda_plus.  The
wall-bounded problem on y in [0, 1] is extended to one full period
y in [-1, 1) by even reflection of (u, rho) and odd reflection of v, so the
march is a pure periodic Cauchy problem.

Two independent blow-up detectors run side by side: a gradient-explosion
trigger on sup|d_y Z| and a same-family characteristic-crossing trigger
(forward-integrated fans of characteristics whose ordering inverts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from . import interp
from .csvout import write_csv
from .expressions import SmoothExpression
from .gas import prandtl_meyer


class BlowupError(ValueError):
    """Inadmissible state or data in the demonstrator."""


def sound_speed_of_density(rho, g):
    return np.asarray(rho, dtype=float) ** (0.5 * (g.gamma - 1.0))


def critical_speed(qhat, g):
    """Speed at which q = c(q); admissible supersonic range is (c_hat, qhat)."""
    return qhat * math.sqrt((g.gamma - 1.0) / (g.gamma + 1.0))


def _c_of_q(q, qhat, g):
    return np.sqrt(0.5 * (g.gamma - 1.0) * (qhat * qhat - q * q))


def _mach2_of_speed(q, qhat, g):
    return 2.0 * q * q / ((g.gamma - 1.0) * (qhat * qhat - q * q))


def theta_of_speed(q, qhat, g, q_ref):
    """Theta(q) = nu(M(q)) - nu(M(q_ref)), the integral of
    sqrt(tau^2 - c^2(tau)) / (tau c(tau)) from q_ref to q."""
    q = np.asarray(q, dtype=float)
    c_hat = critical_speed(qhat, g)
    if np.any(q <= c_hat) or np.any(q >= qhat) or not c_hat < q_ref < qhat:
        raise BlowupError("sonic-limit: speed outside the admissible (c_hat, qhat) range")
    nu_ref = prandtl_meyer(_mach2_of_speed(q_ref, qhat, g), g)
    out = prandtl_meyer(_mach2_of_speed(q, qhat, g), g) - nu_ref
    return float(out) if np.ndim(q) == 0 else out


def dtheta_of_speed(q, qhat, g):
    """Closed-form dTheta/dq; positive on the admissible range."""
    q = np.asarray(q, dtype=float)
    c = _c_of_q(q, qhat, g)
    if np.any(q * q <= c * c):
        raise BlowupError("sonic-limit: dTheta/dq needs q > c(q)")
    return np.sqrt(q * q - c * c) / (q * c)


@dataclass(frozen=True)
class IrrotationalState:
    """Speed, flow angle and the derived Riemann invariants."""

    q: object
    theta_angle: object
    z_minus: object
    z_plus: object


def irrot_invariants(u, v, rho, g, q_ref, qhat=None, bernoulli_tol=1e-8):
    """Z_pm = theta +- Theta(q) for an irrotational state.

    ``qhat`` is derived pointwise from the Bernoulli normalization when not
    given; inconsistent (u, v, rho) data is rejected.
    """
    u, v, rho = (np.asarray(x, dtype=float) for x in (u, v, rho))
    q = np.hypot(u, v)
    c = sound_speed_of_density(rho, g)
    if np.any(q <= c):
        raise BlowupError("sonic-limit: state is not supersonic (q <= c)")
    qhat_point = np.sqrt(q * q + 2.0 * c * c / (g.gamma - 1.0))
    if qhat is None:
        qhat = float(np.max(qhat_point))
    if np.any(np.abs(qhat_point - qhat) > bernoulli_tol * qhat):
        raise BlowupError("bernoulli-mismatch: (u, v, rho) violate the qhat normalization")
    theta = np.arctan2(v, u)
    th = theta_of_speed(q, qhat, g, q_ref)
    return IrrotationalState(q=q, theta_angle=theta, z_minus=theta - th, z_plus=theta + th)


def irrot_lambdas(u, v, rho, g):
    """Characteristic slopes (uv -+ c sqrt(q^2 - c^2)) / (u^2 - c^2); needs u > c."""
    u, v, rho = (np.asarray(x, dtype=float) for x in (u, v, rho))
    c = sound_speed_of_density(rho, g)
    den = u * u - c * c
    if np.any(den <= 0.0):
        raise BlowupError("degenerate: characteristic slopes need u > c")
    disc = np.sqrt(np.maximum(u * u + v * v - c * c, 0.0))
    lam_m = (u * v - c * disc) / den
    lam_p = (u * v + c * disc) / den
    return lam_m, lam_p


# ---------------------------------------------------------------------------
# Periodic profile


class PeriodicProfile:
    """Base inlet data on [0, 1] with even/odd periodic extension to the line.

    (u, rho) extend evenly and v oddly about y = 0, then everything repeats
    with period 2, which keeps the wall conditions v(x, 0) = v(x, 1) = 0
    built into the symmetry.
    """

    def __init__(self, y, u0, v0, rho0, g, u_expr=None, v_expr=None):
        y = np.asarray(y, dtype=float)
        if y[0] != 0.0 or y[-1] != 1.0 or not np.all(np.diff(y) > 0):
            raise BlowupError("base profile must be tabulated on increasing y in [0, 1]")
        self.y = y
        self.u0 = np.asarray(u0, dtype=float)
        self.v0 = np.asarray(v0, dtype=float)
        self.rho0 = np.asarray(rho0, dtype=float)
        self.g = g
        self.u_expr = u_expr
        self.v_expr = v_expr
        self._interp = {
            "u": PchipInterpolator(y, self.u0),
            "v": PchipInterpolator(y, self.v0),
            "rho": PchipInterpolator(y, self.rho0),
        }
        c = sound_speed_of_density(self.rho0, g)
        q = np.hypot(self.u0, self.v0)
        if np.any(q <= c):
            raise BlowupError("sonic-limit: base profile has a non-supersonic sample")
        self.qhat = float(np.sqrt(q[0] ** 2 + 2.0 * c[0] ** 2 / (g.gamma - 1.0)))
        self.q_ref = float(q[0])

    @classmethod
    def from_expressions(cls, u0_text, v0_text, g, rho_wall=1.0, ny_base=2001):
        """Tabulate u0/v0 expressions and derive rho0 from the Bernoulli law
        anchored at rho(0) = rho_wall."""
        u_expr = SmoothExpression(u0_text, var="y")
        v_expr = SmoothExpression(v0_text, var="y")
        y = np.linspace(0.0, 1.0, ny_base)
        u0 = np.broadcast_to(u_expr(y), y.shape).astype(float)
        v0 = np.broadcast_to(v_expr(y), y.shape).astype(float)
        c0 = rho_wall ** (0.5 * (g.gamma - 1.0))
        q0 = math.hypot(float(u0[0]), float(v0[0]))
        qhat2 = q0 * q0 + 2.0 * c0 * c0 / (g.gamma - 1.0)
        q2 = u0 * u0 + v0 * v0
        radic = 0.5 * (g.gamma - 1.0) * (qhat2 - q2)
        if np.any(radic <= 0.0):
            raise BlowupError("sonic-limit: profile speed reaches the limit speed")
        rho0 = radic ** (1.0 / (g.gamma - 1.0))
        return cls(y, u0, v0, rho0, g, u_expr=u_expr, v_expr=v_expr)

    def eval(self, y):
        """Periodic extension: (u, rho) even, v odd about integer lines."""
        y = np.asarray(y, dtype=float)
        t = np.mod(y + 1.0, 2.0) - 1.0
        ref = np.abs(t)
        sign = np.where(t < 0.0, -1.0, 1.0)
        u = self._interp["u"](ref)
        v = sign * self._interp["v"](ref)
        rho = self._interp["rho"](ref)
        return u, v, rho

    def _deriv(self, name, y, order):
        if name == "u" and self.u_expr is not None:
            return self.u_expr(y, order)
        if name == "v" and self.v_expr is not None:
            return self.v_expr(y, order)
        return self._interp[name].derivative(order)(y)

    def rho_slope_from_bernoulli(self, y):
        """d rho / dy via the Bernoulli normalization (exact when u, v are
        expression-backed): proportional to -(u u' + v v')."""
        u = self._interp["u"](y)
        v = self._interp["v"](y)
        rho = self._interp["rho"](y)
        dq2 = 2.0 * (u * self._deriv("u", y, 1) + v * self._deriv("v", y, 1))
        return -rho ** (2.0 - self.g.gamma) * dq2 / 2.0


def check_compatibility(profile: PeriodicProfile, tol=1e-8):
    """Wall compatibility of the base data: v0 = 0, d_y u0 = d_y rho0 = 0 and
    d2_y v0 = 0 at both walls.  Returns violation strings."""
    report = []
    for y_wall, label in ((0.0, "y=0"), (1.0, "y=1")):
        v = float(profile._deriv("v", y_wall, 0)) if profile.v_expr else float(profile._interp["v"](y_wall))
        if abs(v) > tol:
            report.append(f"v at {label}: v0 = {v:.3e} != 0")
        du = float(profile._deriv("u", y_wall, 1))
        if abs(du) > tol:
            report.append(f"du/dy at {label}: {du:.3e} != 0")
        drho = float(profile.rho_slope_from_bernoulli(y_wall))
        if abs(drho) > tol:
            report.append(f"drho/dy at {label}: {drho:.3e} != 0")
        d2v = float(profile._deriv("v", y_wall, 2))
        if abs(d2v) > tol:
            report.append(f"d2v/dy2 at {label}: {d2v:.3e} != 0")
    return report


# ---------------------------------------------------------------------------
# Detection


@dataclass(frozen=True)
class ThresholdPolicy:
    """Gradient-explosion trigger: fire when sup|d_y Z| exceeds
    factor x (its initial value) or an absolute floor, whichever is larger."""

    factor: float = 1e3
    floor: float = 1e-6


def detect_blowup(grad_history, policy: ThresholdPolicy):
    """First index at which the gradient trigger fires, or None.

    ``grad_history`` has one row per step and one column per family.
    """
    hist = np.asarray(grad_history, dtype=float)
    if hist.size == 0:
        raise BlowupError("gradient history is empty")
    g0 = float(hist[0].max())
    threshold = max(policy.factor * g0, policy.floor)
    above = np.nonzero(hist.max(axis=1) > threshold)[0]
    return int(above[0]) if above.size else None


@dataclass
class BlowupReport:
    """March outcome: detector abscissas and the gradient history."""

    blowup_x: float = None
    trigger: str = None  # "gradient" or "crossing"
    trigger_family: str = None
    trigger_y: float = None
    gradient_x: float = None
    crossing_x: float = None
    x_history: np.ndarray = None
    grad_zp_history: np.ndarray = None
    grad_zm_history: np.ndarray = None
    x_end: float = 0.0
    steps: int = 0
    y_nodes: np.ndarray = None
    slabs: list = None  # optional (x, z_plus, z_minus) snapshots


def _periodic_interp(y_nodes, values, y_query):
    pad = 3
    v_ext = np.concatenate([values[-pad:], values, values[:pad]])
    t = np.mod(y_query + 1.0, 2.0) - 1.0
    h = y_nodes[1] - y_nodes[0]
    return interp.monotone_interp(y_nodes[0] - pad * h, h, v_ext, t)


def _cyclic_gradient(z, dy):
    return (np.roll(z, -1) - np.roll(z, 1)) / (2.0 * dy)


class _SpeedInverter:
    """Dense monotone interpolant of q <-> Theta(q), built once per march
    from closed-form samples; one table lookup per step is cheaper than a
    per-step Newton inversion of the closed form."""

    def __init__(self, qhat, g, q_ref, n=2001):
        c_hat = critical_speed(qhat, g)
        lo = c_hat + 1e-3 * (qhat - c_hat)
        hi = qhat - 1e-3 * (qhat - c_hat)
        qs = np.linspace(lo, hi, n)
        th = theta_of_speed(qs, qhat, g, q_ref)
        self.q_lo, self.q_hi = lo, hi
        self.th_lo, self.th_hi = float(th[0]), float(th[-1])
        self._q_of_th = PchipInterpolator(th, qs)

    def q_of_theta(self, th):
        if np.any(th < self.th_lo) or np.any(th > self.th_hi):
            raise BlowupError("sonic-limit: Theta target outside the admissible speed range")
        return self._q_of_th(th)


def cauchy_march(profile: PeriodicProfile, g, x_max, ny=800, dx_max=0.05,
                 policy: ThresholdPolicy = None, crossing_gap_frac=0.05,
                 max_steps=2_000_000, record_slabs=False) -> BlowupReport:
    """March the diagonal system on one period with adaptive steps.

    Semi-Lagrangian update (monotone cubic, periodic): Z_plus is pulled back
    along lambda_minus and Z_minus along lambda_plus.  The step size tracks
    dx = min(dx_max, 0.5 dy / max|lambda|, 0.1 / max|d_y Z|) and the march
    stops at x_max or once both detectors have fired.

    Crossing detector: same-family characteristic fans seeded at the inlet
    nodes are integrated alongside the solution; the trigger fires when an
    adjacent pair's gap falls below crossing_gap_frac of the initial spacing
    (at that separation the pair crosses within one step at grid
    resolution -- the raw ordering inversion of the numerically mollified
    field would fire systematically late).
    """
    if policy is None:
        policy = ThresholdPolicy()
    y = -1.0 + 2.0 * np.arange(ny) / ny  # one period, no duplicate endpoint
    dy = 2.0 / ny
    u, v, rho = profile.eval(y)
    state = irrot_invariants(u, v, rho, g, q_ref=profile.q_ref, qhat=profile.qhat)
    zp = np.asarray(state.z_plus, dtype=float).copy()
    zm = np.asarray(state.z_minus, dtype=float).copy()

    inverter = _SpeedInverter(profile.qhat, g, profile.q_ref)

    fan_p = y.copy()  # family +: carries z_minus
    fan_m = y.copy()  # family -: carries z_plus

    xs = [0.0]
    gzp = [float(np.max(np.abs(_cyclic_gradient(zp, dy))))]
    gzm = [float(np.max(np.abs(_cyclic_gradient(zm, dy))))]
    g0 = max(gzp[0], gzm[0])
    threshold = max(policy.factor * g0, policy.floor)

    report = BlowupReport()
    report.y_nodes = y
    report.slabs = [(0.0, zp.copy(), zm.copy())] if record_slabs else None
    x = 0.0
    x_stop = x_max
    for step in range(max_steps):
        if x >= x_stop or (report.gradient_x is not None and report.crossing_x is not None):
            break
        theta_half = 0.5 * (zp + zm)
        th_val = 0.5 * (zp - zm)
        q = inverter.q_of_theta(th_val)
        uu = q * np.cos(theta_half)
        vv = q * np.sin(theta_half)
        c = _c_of_q(q, profile.qhat, g)
        if np.any(uu <= c):
            raise BlowupError("degenerate: u dropped below c during the march")
        den = uu * uu - c * c
        disc = np.sqrt(np.maximum(q * q - c * c, 0.0))
        lam_m = (uu * vv - c * disc) / den
        lam_p = (uu * vv + c * disc) / den

        max_lam = max(float(np.max(np.abs(lam_m))), float(np.max(np.abs(lam_p))))
        max_grad = max(gzp[-1], gzm[-1])
        dx = min(dx_max, 0.5 * dy / max_lam)
        if max_grad > 0.0:
            dx = min(dx, 0.1 / max_grad)
        dx = min(dx, x_max - x)
        if dx <= 1e-12:
            break

        zp = _periodic_interp(y, zp, y - dx * lam_m)
        zm = _periodic_interp(y, zm, y - dx * lam_p)

        # Characteristic fans advance with the pre-step slopes (unwrapped).
        fan_m += dx * np.interp(fan_m, y, lam_m, period=2.0)
        fan_p += dx * np.interp(fan_p, y, lam_p, period=2.0)

        x += dx
        xs.append(x)
        if record_slabs:
            report.slabs.append((x, zp.copy(), zm.copy()))
        gp = float(np.max(np.abs(_cyclic_gradient(zp, dy))))
        gm = float(np.max(np.abs(_cyclic_gradient(zm, dy))))
        gzp.append(gp)
        gzm.append(gm)

        if report.blowup_x is not None:
            # Give the second detector a bounded window past the first one.
            x_stop = min(x_max, 1.25 * report.blowup_x + 10.0 * dy)
        if report.gradient_x is None and max(gp, gm) > threshold:
            report.gradient_x = x
            fam = "+" if gm >= gp else "-"  # family transporting the steeper invariant
            arr = zm if gm >= gp else zp
            j = int(np.argmax(np.abs(_cyclic_gradient(arr, dy))))
            if report.blowup_x is None:
                report.blowup_x = x
                report.trigger = "gradient"
                report.trigger_family = fam
                report.trigger_y = float(y[j])
        if report.crossing_x is None:
            gap_limit = crossing_gap_frac * dy
            gap_m = float(np.min(np.diff(fan_m)))
            gap_p = float(np.min(np.diff(fan_p)))
            if gap_m <= gap_limit or gap_p <= gap_limit:
                report.crossing_x = x
                fam = "-" if gap_m <= gap_p else "+"
                fan = fan_m if gap_m <= gap_p else fan_p
                j = int(np.argmin(np.diff(fan)))
                if report.blowup_x is None:
                    report.blowup_x = x
                    report.trigger = "crossing"
                    report.trigger_family = fam
                    report.trigger_y = float(np.mod(fan[j] + 1.0, 2.0) - 1.0)

    report.x_history = np.asarray(xs)
    report.grad_zp_history = np.asarray(gzp)
    report.grad_zm_history = np.asarray(gzm)
    report.x_end = x
    report.steps = len(xs) - 1
    return report


def write_gradient_csv(report: BlowupReport, path):
    write_csv(path, ("x", "max_grad_Zp", "max_grad_Zm"),
              (report.x_history, report.grad_zp_history, report.grad_zm_history))
