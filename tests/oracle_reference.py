"""Test helper: the upwind oracle's march, one layer at a time.

``oracle.upwind_march`` works on both layers' stacked row per sub-step.
This reference keeps the per-layer form: it splits the problem's row into
its two layers by their node counts, updates each layer with the
sign-generic ``_upwind``, and each sub-step inverts and evaluates the
speeds of layer a and layer b in separate calls and takes each contact
weight from its own one-node Gauss path.  Like the oracle, it works on the
Mach variable s: each layer's Newton starts from that layer's s of the
previous sub-step (the first from the streamlines' own start), the speeds
take the Mach form, and only the contact node's pressure is read.  It
writes the wall and contact closures out itself rather than calling
``moc.close_row`` and ``moc.contact_weights``, with the wall slopes of every
sub-step evaluated on the one-element array [xi_next] rather than read from
a table.  Every inversion, speed, pressure and dTheta/dp comes from the
per-call functions of ``tests/gas_reference.py``, not from the problem's
prepared ``gas.Streamline``; each layer's ``gas.Streamline`` here only
carries its constants to them.  The two must agree bit for bit.
"""

import math

import numpy as np

from contactmoc import gas
from contactmoc.moc import _GL_W, _GL_X, InvariantGrid, SolverError
from contactmoc.oracle import _MAX_SUBSTEPS
from tests import gas_reference


def _upwind(z, lam, nu_base):
    """First-order upwind update of one slab; boundary rows keep stale values
    (they are overwritten by closures)."""
    out = z.copy()
    nu = nu_base * lam
    back = z[1:-1] - z[:-2]
    fwd = z[2:] - z[1:-1]
    out[1:-1] = z[1:-1] - np.where(nu[1:-1] >= 0.0, nu[1:-1] * back, nu[1:-1] * fwd)
    # one-sided updates at the two boundary rows where the stencil exists
    out[0] = z[0] - min(nu[0], 0.0) * (z[1] - z[0])
    out[-1] = z[-1] - max(nu[-1], 0.0) * (z[-1] - z[-2])
    return out


def _slab_speeds(zm, zp, stream, prob, s_start):
    """(s, lambda_minus, lambda_plus) of one layer's slab, Newton started
    from ``s_start`` (None: from the streamlines' own start)."""
    if not np.all(np.abs(zm + zp) < np.pi):
        raise gas.GasError("flow-angle: |z_minus + z_plus| must stay below pi")
    s = gas_reference.mach_from_invariants(zm, zp, stream, newton_tol=prob.line.newton_tol,
                                           max_newton_iters=prob.line.max_newton_iters,
                                           s_start=s_start)
    lam_m, lam_p = gas_reference.mach_lambdas(s, np.tan(0.5 * (zm + zp)), stream)
    return s, lam_m, lam_p


def _contact_dtheta(p, stream, node):
    """Gauss average of dTheta/dp from p_ref to the one pressure ``p[0]``."""
    path = stream.p_ref + _GL_X[:, None] * (p[None, :] - stream.p_ref)
    line = gas.Streamline(stream.a0[node], stream.b0[node], stream.p_ref, stream.gamma)
    return (_GL_W @ gas_reference.dtheta_dp(path, line))[0]


def per_layer_march(prob):
    """The oracle march with per-layer calls; returns (grid, sub-step count)."""
    dom = prob.domain
    nxi = dom.xi.size
    na = dom.eta_a.size
    a, b = slice(0, na), slice(na, None)
    deta_a, deta_b = dom.eta_a[1] - dom.eta_a[0], dom.eta_b[1] - dom.eta_b[0]
    row, (zm0, zp0) = prob.line, prob.inlet_z
    stream_a = gas.Streamline(row.a0[a], row.b0[a], row.p_ref, row.gamma)
    stream_b = gas.Streamline(row.a0[b], row.b0[b], row.p_ref, row.gamma)
    zm_a = np.empty((nxi, na))
    zp_a = np.empty_like(zm_a)
    zm_b = np.empty((nxi, dom.eta_b.size))
    zp_b = np.empty_like(zm_b)
    zm_a[0] = zm0[a]
    zp_a[0] = zp0[a]
    zm_b[0] = zm0[b]
    zp_b[0] = zp0[b]
    substeps = 0
    s_a = s_b = None

    for k in range(nxi - 1):
        cur_m_a, cur_p_a = zm_a[k].copy(), zp_a[k].copy()
        cur_m_b, cur_p_b = zm_b[k].copy(), zp_b[k].copy()
        xi_left = dom.xi[k]
        remaining = dom.dxi
        while remaining > 1e-14 * dom.dxi:
            substeps += 1
            s_a, lam_m_a, lam_p_a = _slab_speeds(cur_m_a, cur_p_a, stream_a, prob, s_a)
            s_b, lam_m_b, lam_p_b = _slab_speeds(cur_m_b, cur_p_b, stream_b, prob, s_b)
            max_lam = max(float(np.max(np.abs(lam_m_a))), float(np.max(np.abs(lam_p_a))),
                          float(np.max(np.abs(lam_m_b))), float(np.max(np.abs(lam_p_b))))
            cfl_dx = 0.9 * min(deta_a, deta_b) / max_lam
            n_sub = max(1, math.ceil(remaining / cfl_dx))
            if n_sub > _MAX_SUBSTEPS:
                raise SolverError(f"degenerate: would need {n_sub} sub-steps")
            dx = remaining / n_sub

            new_m_a = _upwind(cur_m_a, lam_p_a, dx / deta_a)
            new_p_a = _upwind(cur_p_a, lam_m_a, dx / deta_a)
            new_m_b = _upwind(cur_m_b, lam_p_b, dx / deta_b)
            new_p_b = _upwind(cur_p_b, lam_m_b, dx / deta_b)

            xi_next = xi_left + dx
            # numpy's scalar power rounds differently from its array power,
            # so the slopes are taken on a one-element array.
            x_next = np.array([xi_next])
            ang_p = np.arctan(prob.geom.g_plus(x_next, 1))[0]
            ang_m = np.arctan(prob.geom.g_minus(x_next, 1))[0]
            new_p_a[-1] = 2.0 * ang_p - new_m_a[-1]
            new_m_b[0] = 2.0 * ang_m - new_p_b[0]

            p_a = gas_reference.pressure_from_mach(s_a, stream_a)
            p_b = gas_reference.pressure_from_mach(s_b, stream_b)
            bar_a = _contact_dtheta(p_a[:1], stream_a, 0)
            bar_b = _contact_dtheta(p_b[-1:], stream_b, -1)
            alpha = 1.0 / (2.0 * bar_a)
            beta = 1.0 / (2.0 * bar_b)
            s = alpha + beta
            g1 = (alpha - beta) / s
            g2 = 2.0 * alpha / s
            g3 = 2.0 * beta / s
            # The background invariants are zero: the closure acts on z itself.
            z_in_a, z_in_b = new_p_a[0], new_m_b[-1]
            new_m_a[0] = g1 * z_in_a + g3 * z_in_b
            new_p_b[-1] = g2 * z_in_a - g1 * z_in_b

            cur_m_a, cur_p_a = new_m_a, new_p_a
            cur_m_b, cur_p_b = new_m_b, new_p_b
            xi_left = xi_next
            remaining -= dx
        zm_a[k + 1], zp_a[k + 1] = cur_m_a, cur_p_a
        zm_b[k + 1], zp_b[k + 1] = cur_m_b, cur_p_b

    return InvariantGrid(dom, np.hstack([zm_a, zm_b]), np.hstack([zp_a, zp_b])), substeps
