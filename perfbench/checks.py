"""Correctness checks computed apart from contactmoc.

Nothing here imports the package.  Every reference value comes from
closed-form gas dynamics (the Prandtl-Meyer function, Lax's small-data
blow-up estimate) or from the fixture's own parameters as written in its
config file.  Each ``check_*`` function returns ``(failures, figures)``: a
list of human-readable failure strings (empty when the output is correct)
and a dict of the measured figures, which the run record keeps.

The tolerances sit well above today's figures and well below what a
corrupted output produces; ``reference.py`` recomputes the figures.
"""

from __future__ import annotations

import math
import re

import numpy as np

# Worst |Theta - (nu(M_ref) - nu(M))| today is 6.1e-13: the pressure
# inversion stops at a Theta residual of 1e-12.  A pressure scaled by
# 1 + 1e-6 moves the identity by about 1e-7.
PM_TOL = 1e-10
# Wall slip and flow-angle continuity hold to rounding (8.5e-22 today);
# contact pressure continuity to 1.8e-12.
WALL_TOL = 1e-12
CONTACT_TOL = 1e-10
# The upwind oracle is first order, so its distance from the fixed point
# shrinks like the eta spacing: sup|oracle - fixed point| <= ORACLE_K / (neta - 1)
# on the oracle lattice.  Today 4.4e-7 at neta = 201 (K = 8.8e-5); the
# constant carries a 1.5x margin.
ORACLE_K = 1.3e-4
ORACLE_WALL_TOL = 1e-12
# blowup_x against Lax's estimate (57.43 against 59.68 today), and the two
# detectors against each other (acceptance criterion 9).
LAX_TOL = 0.10
DETECTOR_TOL = 0.10


# ---------------------------------------------------------------------------
# Reading outputs and configs


def read_csv(path):
    """Columns of a CSV file with a header row, float where they parse."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    cols = {}
    for name, col in zip(header, zip(*rows) if rows else [()] * len(header)):
        try:
            cols[name] = np.array(col, dtype=float)
        except ValueError:
            cols[name] = np.array(col)
    return cols


def read_config_scalars(path):
    """``{section: {key: text}}`` for the one-line entries of a config file."""
    out = {}
    section = None
    in_block = False
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if in_block:
                in_block = line != ">>>"
                continue
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = out.setdefault(line[1:-1].strip(), {})
            elif "=" in line and section is not None:
                key, value = (s.strip() for s in line.split("=", 1))
                if value == "<<<":
                    in_block = True
                else:
                    section[key] = value
    return out


def parse_summary(line):
    """``key=value`` pairs of a contactmoc summary line."""
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


_NUM = r"[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?"
_WALL = re.compile(
    rf"^\s*({_NUM})\s*([-+])\s*({_NUM})\s*\*\s*sin\(\s*(?:({_NUM})\s*\*\s*)?pi\s*\*\s*x\s*/\s*({_NUM})\s*\)\s*\*\*\s*4\s*$"
)


def wall_slope(expr, x):
    """d/dx of the fixture wall ``c +- A sin(k pi x / L)**4`` (or a constant)."""
    try:
        float(expr)
        return np.zeros_like(np.asarray(x, dtype=float))
    except ValueError:
        pass
    m = _WALL.match(expr)
    if m is None:
        raise ValueError(f"unrecognized fixture wall expression {expr!r}")
    sign = 1.0 if m.group(2) == "+" else -1.0
    amp = sign * float(m.group(3))
    k = (float(m.group(4)) if m.group(4) else 1.0) * math.pi / float(m.group(5))
    s = np.sin(k * np.asarray(x, dtype=float))
    return 4.0 * amp * k * s**3 * np.cos(k * np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# Closed-form gas dynamics


def prandtl_meyer(mach, gamma):
    """nu(M) = sqrt((g+1)/(g-1)) atan(sqrt((g-1)/(g+1) (M^2-1))) - atan(sqrt(M^2-1))."""
    r = math.sqrt((gamma + 1.0) / (gamma - 1.0))
    s = np.sqrt(mach * mach - 1.0)
    return r * np.arctan(s / r) - np.arctan(s)


def theta_closed_form(u, v, p, rho, gamma, p_ref):
    """Theta(p) = nu(M(p_ref)) - nu(M(p)) along the node's own streamline.

    The streamline is fixed by the node's entropy function A = p/rho^gamma
    and Bernoulli constant B; M(p_ref) follows algebraically from (A, B).
    """
    c2 = gamma * p / rho
    mach = np.sqrt((u * u + v * v) / c2)
    a0 = p / rho**gamma
    b0 = 0.5 * (u * u + v * v) + c2 / (gamma - 1.0)
    rho_ref = (p_ref / a0) ** (1.0 / gamma)
    c2_ref = gamma * p_ref / rho_ref
    mach_ref = np.sqrt(2.0 * (b0 - c2_ref / (gamma - 1.0)) / c2_ref)
    return prandtl_meyer(mach_ref, gamma) - prandtl_meyer(mach, gamma)


# ---------------------------------------------------------------------------
# solve


def _layer_block(cols, mask, nxi, names):
    return {n: cols[n][mask].reshape(nxi, -1) for n in names}


def check_solve(fields, grid, summary, cfg):
    """Check ``contactmoc solve`` outputs node by node.

    fields, grid: columns of fields.csv and grid.csv; summary: parsed
    summary line; cfg: ``read_config_scalars`` of the solved config.
    """
    failures = []
    gamma = float(cfg["gas"]["gamma"])
    p_ref = float(cfg["background"]["p"])
    if summary.get("status") != "ok":
        return [f"solve status {summary.get('status')!r}"], {}
    if fields["layer"].size != grid["layer"].size or np.any(fields["layer"] != grid["layer"]):
        return ["fields.csv and grid.csv do not list the same nodes"], {}

    u, v, p, rho = fields["u"], fields["v"], fields["p"], fields["rho"]
    zm, zp = grid["z_minus"], grid["z_plus"]
    pm_err = float(np.max(np.abs(0.5 * (zm - zp) - theta_closed_form(u, v, p, rho, gamma, p_ref))))
    angle_err = float(np.max(np.abs(0.5 * (zm + zp) - np.arctan(v / u))))
    if not pm_err <= PM_TOL:
        failures.append(f"Prandtl-Meyer identity off by {pm_err:.3e} (tol {PM_TOL:.0e})")
    if not angle_err <= PM_TOL:
        failures.append(f"flow-angle identity off by {angle_err:.3e} (tol {PM_TOL:.0e})")

    is_a = grid["layer"] == "a"
    nxi = np.unique(grid["xi"][is_a]).size
    names = ("x", "u", "v", "p")
    la = _layer_block(fields, is_a, nxi, names)
    lb = _layer_block(fields, ~is_a, nxi, names)
    x = la["x"][:, 0]
    top = float(np.max(np.abs(la["v"][:, -1] / la["u"][:, -1] - wall_slope(cfg["geometry"]["g_plus"], x))))
    bottom = float(np.max(np.abs(lb["v"][:, 0] / lb["u"][:, 0] - wall_slope(cfg["geometry"]["g_minus"], x))))
    wall_err = max(top, bottom)
    if not wall_err <= WALL_TOL:
        failures.append(f"wall slip misses the wall slope by {wall_err:.3e} (tol {WALL_TOL:.0e})")
    p_jump = float(np.max(np.abs(la["p"][:, 0] - lb["p"][:, -1])))
    w_jump = float(np.max(np.abs(la["v"][:, 0] / la["u"][:, 0] - lb["v"][:, -1] / lb["u"][:, -1])))
    if not p_jump <= CONTACT_TOL:
        failures.append(f"pressure jumps by {p_jump:.3e} across the contact (tol {CONTACT_TOL:.0e})")
    if not w_jump <= CONTACT_TOL:
        failures.append(f"v/u jumps by {w_jump:.3e} across the contact (tol {CONTACT_TOL:.0e})")
    figures = {"pm_err": pm_err, "angle_err": angle_err, "wall_err": wall_err,
               "contact_p_jump": p_jump, "contact_w_jump": w_jump}
    return failures, figures


# ---------------------------------------------------------------------------
# oracle

_FAMILIES = ("zm_a", "zp_a", "zm_b", "zp_b")


def check_oracle(coarse, fine, xi_fine, cfg):
    """Compare an oracle grid with a fixed-point grid of half its resolution.

    coarse, fine: dicts of the four invariant arrays (zm_a, zp_a, zm_b,
    zp_b) on lattices (n, m) and (2n-1, 2m-1); they share every other node.
    The oracle must also close the wall reflection exactly.
    """
    failures = []
    for name in _FAMILIES:
        (n, m), (nf, mf) = coarse[name].shape, fine[name].shape
        if (nf, mf) != (2 * n - 1, 2 * m - 1):
            return [f"{name}: lattice {nf}x{mf} does not refine {n}x{m} by two"], {}
    sup = max(float(np.max(np.abs(fine[n][::2, ::2] - coarse[n]))) for n in _FAMILIES)
    bound = ORACLE_K / (fine["zm_a"].shape[1] - 1)
    if not sup <= bound:
        failures.append(f"oracle differs from the fixed point by {sup:.3e} on shared nodes "
                        f"(first-order bound {bound:.3e})")
    ang_p = np.arctan(wall_slope(cfg["geometry"]["g_plus"], xi_fine))
    ang_m = np.arctan(wall_slope(cfg["geometry"]["g_minus"], xi_fine))
    wall = max(
        float(np.max(np.abs(fine["zp_a"][1:, -1] + fine["zm_a"][1:, -1] - 2.0 * ang_p[1:]))),
        float(np.max(np.abs(fine["zm_b"][1:, 0] + fine["zp_b"][1:, 0] - 2.0 * ang_m[1:]))),
    )
    if not wall <= ORACLE_WALL_TOL:
        failures.append(f"oracle wall closure off by {wall:.3e} (tol {ORACLE_WALL_TOL:.0e})")
    return failures, {"oracle_sup": sup, "oracle_bound": bound, "oracle_wall_err": wall}


# ---------------------------------------------------------------------------
# blowup


def _blowup_state(theta, q, qhat, gamma):
    c = np.sqrt(0.5 * (gamma - 1.0) * (qhat * qhat - q * q))
    u, v = q * np.cos(theta), q * np.sin(theta)
    disc = c * np.sqrt(q * q - c * c)
    den = u * u - c * c
    return c, (u * v - disc) / den, (u * v + disc) / den


def lax_blowup_x(u0, delta, rho_wall, gamma, n=40001, h=1e-6):
    """Lax's small-data estimate x* = 1 / max_y(-dlambda/dZ * dZ0/dy).

    Inlet data u0 (constant), v0 = delta sin(pi y), density from the
    Bernoulli law anchored at rho(0) = rho_wall, so c = rho^((gamma-1)/2)
    and qhat^2 = q^2 + 2 c^2 / (gamma-1).  Z_plus = theta + Theta(q) rides
    lambda_minus and Z_minus = theta - Theta(q) rides lambda_plus;
    dTheta/dq = sqrt(q^2 - c^2) / (q c).  The derivatives of lambda in
    (theta, q) are central differences of the closed form.
    """
    c_wall = rho_wall ** (0.5 * (gamma - 1.0))
    qhat = math.sqrt(u0 * u0 + 2.0 * c_wall * c_wall / (gamma - 1.0))
    y = np.linspace(-1.0, 1.0, n)
    v0 = delta * np.sin(np.pi * y)
    dv0 = delta * np.pi * np.cos(np.pi * y)
    q = np.hypot(u0, v0)
    theta = np.arctan2(v0, u0)
    c, _, _ = _blowup_state(theta, q, qhat, gamma)
    dtheta_dq = np.sqrt(q * q - c * c) / (q * c)
    dtheta_dy = u0 * dv0 / (q * q)
    dq_dy = v0 * dv0 / q

    def partial(var):
        lo = _blowup_state(theta - h, q, qhat, gamma) if var == "t" else _blowup_state(theta, q - h, qhat, gamma)
        hi = _blowup_state(theta + h, q, qhat, gamma) if var == "t" else _blowup_state(theta, q + h, qhat, gamma)
        return (hi[1] - lo[1]) / (2 * h), (hi[2] - lo[2]) / (2 * h)

    (lm_t, lp_t), (lm_q, lp_q) = partial("t"), partial("q")
    rate_plus = -(0.5 * lm_t + 0.5 * lm_q / dtheta_dq) * (dtheta_dy + dtheta_dq * dq_dy)
    rate_minus = -(0.5 * lp_t - 0.5 * lp_q / dtheta_dq) * (dtheta_dy - dtheta_dq * dq_dy)
    return 1.0 / float(max(rate_plus.max(), rate_minus.max()))


def lax_blowup_x_from_config(cfg):
    """Lax's estimate for a ``[blowup]`` config with v0 = delta * sin(pi * y)."""
    sec = cfg["blowup"]
    m = re.match(rf"^\s*({_NUM})\s*\*\s*sin\(\s*pi\s*\*\s*y\s*\)\s*$", sec["v0"])
    if m is None:
        raise ValueError(f"unrecognized blow-up v0 expression {sec['v0']!r}")
    return lax_blowup_x(float(sec["u0"]), float(m.group(1)),
                        float(sec.get("rho_wall", "1.0")), float(cfg["gas"]["gamma"]))


def check_blowup(summary, gradients, lax_x):
    """Check ``contactmoc blowup``: Lax estimate, detector agreement, history."""
    failures = []
    if summary.get("status") != "ok":
        return [f"blowup status {summary.get('status')!r}"], {}
    try:
        bx, gx, cx = (float(summary[k]) for k in ("blowup_x", "gradient_x", "crossing_x"))
        steps, x_end = int(summary["steps"]), float(summary["x_end"])
    except (KeyError, ValueError) as exc:
        return [f"summary lacks a detector abscissa or step count: {exc}"], {}
    lax_gap = abs(bx - lax_x) / lax_x
    if not lax_gap <= LAX_TOL:
        failures.append(f"blowup_x = {bx:.4g} is {100 * lax_gap:.1f}% from Lax's estimate "
                        f"{lax_x:.4g} (tol {100 * LAX_TOL:.0f}%)")
    agree = abs(gx - cx) / bx
    if not agree <= DETECTOR_TOL:
        failures.append(f"detectors disagree by {100 * agree:.1f}% (tol {100 * DETECTOR_TOL:.0f}%)")
    x = gradients["x"]
    if x.size != steps + 1:
        failures.append(f"gradients.csv has {x.size} rows for {steps} steps")
    elif not (x[0] == 0.0 and np.all(np.diff(x) > 0.0) and x[-1] == x_end):
        failures.append("gradients.csv x does not increase from 0 to x_end")
    return failures, {"blowup_x": bx, "lax_x": lax_x, "lax_gap": lax_gap, "detector_gap": agree}
