"""Test helper: the blow-up march step as plainly written numpy.

``blowup.cauchy_march`` is written for a low per-step call count.  This
reference keeps the plain form of the same arithmetic: its own copies of the
Fritsch-Carlson slopes and the Hermite evaluation, the Mach-angle lookup
through ``PiecewisePoly.__call__``, the slopes as tan(theta -+ mu) in one
broadcast, fancy-index gathers, ``% 2.0`` for the fans and the gradients
divided before their maximum.  The two must agree bit for bit.
"""

import numpy as np

from contactmoc import blowup
from contactmoc.blowup import BlowupError, BlowupReport


def plain_monotone_slopes(v, h):
    s = (v[..., 1:] - v[..., :-1]) / h
    d = np.zeros_like(v)
    prod = s[..., :-1] * s[..., 1:]
    denom = s[..., :-1] + s[..., 1:]
    np.divide(2.0 * prod, denom, out=d[..., 1:-1], where=(prod > 0.0) & (denom != 0.0))
    return d


def plain_hermite_rows(y0, h, v, d, yq):
    n = v.shape[-1]
    t = (yq - y0) / h
    idx = np.floor(t).astype(np.intp)
    s = t - idx
    idx += n * np.arange(v.shape[0]).reshape(-1, 1)
    v, d = v.reshape(-1), d.reshape(-1)
    v0 = v[idx]
    v1 = v[idx + 1]
    d0 = d[idx] * h
    d1 = d[idx + 1] * h
    s2 = s * s
    s3 = s2 * s
    return (
        (2.0 * s3 - 3.0 * s2 + 1.0) * v0
        + (s3 - 2.0 * s2 + s) * d0
        + (-2.0 * s3 + 3.0 * s2) * v1
        + (s3 - s2) * d1
    )


def reference_march(profile, x_max=200.0, ny=800, dx_max=0.05, grad_factor=1e3, grad_floor=1e-6):
    """``blowup.cauchy_march`` with the step written out plainly; returns a
    ``BlowupReport``."""
    y = -1.0 + 2.0 * np.arange(ny) / ny
    dy = 2.0 / ny
    z = profile.invariants(y)
    mach_angle = blowup._MachAngleTable(profile.qhat, profile.gamma, profile.q_ref)

    pad = blowup._PAD
    ext = np.arange(-pad, ny + pad) % ny
    h = y[1] - y[0]
    y0 = y[0] - pad * h

    def abs_gradient(zx):
        return np.abs((zx[:, pad + 1:pad + ny + 1] - zx[:, pad - 1:pad + ny - 1]) / (2.0 * dy))

    wrapped = y % 2.0
    order = np.argsort(wrapped)
    fan_order = np.concatenate((order[-1:], order, order[:1]))
    fan_y = wrapped[fan_order]
    fan_y[0] -= 2.0
    fan_y[-1] += 2.0
    fans = np.array([y, y])

    zx = z[:, ext]
    g0p, g0m = np.max(abs_gradient(zx), axis=1).tolist()
    xs, gzp, gzm = [0.0], [g0p], [g0m]
    threshold = max(grad_factor * max(g0p, g0m), grad_floor)

    report = BlowupReport()
    x = 0.0
    x_stop = x_max
    for _ in range(blowup._MAX_STEPS):
        if x >= x_stop or (report.gradient_x is not None and report.crossing_x is not None):
            break
        theta = 0.5 * (z[0] + z[1])
        th = 0.5 * (z[0] - z[1])
        if np.any(th < mach_angle.th_lo) or np.any(th > mach_angle.th_hi):
            raise BlowupError("sonic-limit: Theta target outside the admissible speed range")
        mu = mach_angle.table(th)
        if np.any(np.abs(theta) + mu >= np.pi / 2):
            raise BlowupError("degenerate: u dropped below c during the march")
        lam = np.tan(theta + np.array([[-1.0], [1.0]]) * mu)

        max_lam = float(np.max(np.abs(lam)))
        max_grad = max(gzp[-1], gzm[-1])
        dx = min(dx_max, blowup._STEP_CAP * dy / max_lam)
        if max_grad > 0.0:
            dx = min(dx, 0.1 / max_grad)
        dx = min(dx, x_max - x)
        if dx <= 1e-12:
            break

        z = plain_hermite_rows(y0, h, zx, plain_monotone_slopes(zx, h), y - dx * lam)

        lam_fan = lam[:, fan_order]
        fan_x = fans % 2.0
        fans[0] += dx * np.interp(fan_x[0], fan_y, lam_fan[0])
        fans[1] += dx * np.interp(fan_x[1], fan_y, lam_fan[1])

        x += dx
        xs.append(x)
        zx = z[:, ext]
        gp, gm = np.max(abs_gradient(zx), axis=1).tolist()
        gzp.append(gp)
        gzm.append(gm)

        if report.blowup_x is not None:
            x_stop = min(x_max, 1.25 * report.blowup_x + 10.0 * dy)
        if report.gradient_x is None and max(gp, gm) > threshold:
            report.gradient_x = x
            if report.blowup_x is None:
                report.blowup_x = x
                report.trigger = "gradient"
        if report.crossing_x is None:
            gap_m, gap_p = np.min(fans[:, 1:] - fans[:, :-1], axis=1).tolist()
            gap_limit = blowup._CROSSING_GAP_FRAC * dy
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
