"""Independent cross-check: nonlinear first-order upwind march.

Solves the same diagonal two-layer problem as the fixed-point solver but
with a completely different truncation structure: explicit first-order
upwind differencing, speeds evaluated from the current slab's own state (no
freezing, no outer iteration), CFL sub-stepping in xi.  Boundary closures
have the same form (wall reflection, two-sided contact coupling with the
averaged-derivative weights) but every coefficient is recomputed from this
marcher's own slabs; nothing computed by the fixed-point solver is read.
Agreement between the two is therefore evidence, not shared bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gas
from .moc import MocProblem, SolverError, _averaged_dtheta

_MAX_SUBSTEPS = 1000


@dataclass
class OracleGrid:
    """z arrays on the same lattice as the fixed-point solver's grid."""

    domain: object
    zm_a: np.ndarray
    zp_a: np.ndarray
    zm_b: np.ndarray
    zp_b: np.ndarray


def _slab_state(zm, zp, a0, b0, prob, hint=None):
    w = np.tan(0.5 * (zm + zp))
    sd = gas.StreamData(a0, b0, prob.sd_a.p_ref)
    p = gas.pressure_from_invariants(gas.InvariantPair(zm, zp), sd, prob.g,
                                     newton_tol=prob.newton_tol,
                                     max_newton_iters=prob.max_newton_iters, p_init=hint)
    u, v = gas.velocity_from_bernoulli(w, p, sd, prob.g)
    rho = gas.density_from_pressure(p, sd, prob.g)
    lam_m, lam_p = gas.lambda_pm(gas.PrimitiveState(u=u, v=v, p=p, rho=rho), prob.g)
    return p, lam_m, lam_p


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


def upwind_march(prob: MocProblem) -> OracleGrid:
    """March the nonlinear diagonal system with first-order upwinding.

    The CFL condition max|lambda| dxi <= deta is enforced by sub-stepping;
    closures are applied after every sub-step with the wall slope evaluated
    at the sub-step's target abscissa.
    """
    dom = prob.domain
    nxi = dom.xi.size
    a0_a, b0_a = prob.a0_a, prob.b0_a
    a0_b, b0_b = prob.a0_b, prob.b0_b

    zm_a = np.empty((nxi, dom.eta_a.size))
    zp_a = np.empty_like(zm_a)
    zm_b = np.empty((nxi, dom.eta_b.size))
    zp_b = np.empty_like(zm_b)
    zm_a[0] = np.asarray(prob.inlet_z_a.z_minus)
    zp_a[0] = np.asarray(prob.inlet_z_a.z_plus)
    zm_b[0] = np.asarray(prob.inlet_z_b.z_minus)
    zp_b[0] = np.asarray(prob.inlet_z_b.z_plus)

    sd_a0 = prob.sd_a.at(0.0)
    sd_b0 = prob.sd_b.at(0.0)
    p_bg = prob.sd_a.p_ref
    hint_a = hint_b = None

    for k in range(nxi - 1):
        cur_m_a, cur_p_a = zm_a[k].copy(), zp_a[k].copy()
        cur_m_b, cur_p_b = zm_b[k].copy(), zp_b[k].copy()
        xi_left = dom.xi[k]
        remaining = dom.dxi
        while remaining > 1e-14 * dom.dxi:
            p_a, lam_m_a, lam_p_a = _slab_state(cur_m_a, cur_p_a, a0_a, b0_a, prob, hint_a)
            p_b, lam_m_b, lam_p_b = _slab_state(cur_m_b, cur_p_b, a0_b, b0_b, prob, hint_b)
            hint_a, hint_b = p_a, p_b
            max_lam = max(float(np.max(np.abs(lam_m_a))), float(np.max(np.abs(lam_p_a))),
                          float(np.max(np.abs(lam_m_b))), float(np.max(np.abs(lam_p_b))))
            cfl_dx = 0.9 * min(dom.deta_a, dom.deta_b) / max_lam
            n_sub = max(1, math.ceil(remaining / cfl_dx))
            if n_sub > _MAX_SUBSTEPS:
                raise SolverError(
                    f"degenerate: CFL sub-stepping exploded near xi = {xi_left:.6g} "
                    f"(would need {n_sub} sub-steps)"
                )
            dx = remaining / n_sub

            new_m_a = _upwind(cur_m_a, lam_p_a, dx / dom.deta_a)
            new_p_a = _upwind(cur_p_a, lam_m_a, dx / dom.deta_a)
            new_m_b = _upwind(cur_m_b, lam_p_b, dx / dom.deta_b)
            new_p_b = _upwind(cur_p_b, lam_m_b, dx / dom.deta_b)

            xi_next = xi_left + dx
            ang_p = math.atan(float(prob.geom.g_plus(xi_next, 1)))
            ang_m = math.atan(float(prob.geom.g_minus(xi_next, 1)))
            new_p_a[-1] = 2.0 * ang_p - new_m_a[-1]
            new_m_b[0] = 2.0 * ang_m - new_p_b[0]

            # Contact coupling from this marcher's own slab pressures.
            bar_a = _averaged_dtheta(p_a[:1], p_bg, sd_a0.a0, sd_a0.b0, prob)[0]
            bar_b = _averaged_dtheta(p_b[-1:], p_bg, sd_b0.a0, sd_b0.b0, prob)[0]
            alpha = 1.0 / (2.0 * bar_a)
            beta = 1.0 / (2.0 * bar_b)
            s = alpha + beta
            g1 = (alpha - beta) / s
            g2 = 2.0 * alpha / s
            g3 = 2.0 * beta / s
            d_in_a = new_p_a[0] - prob.zbar_a[1]
            d_in_b = new_m_b[-1] - prob.zbar_b[0]
            new_m_a[0] = prob.zbar_a[0] + g1 * d_in_a + g3 * d_in_b
            new_p_b[-1] = prob.zbar_b[1] + g2 * d_in_a - g1 * d_in_b

            cur_m_a, cur_p_a = new_m_a, new_p_a
            cur_m_b, cur_p_b = new_m_b, new_p_b
            xi_left = xi_next
            remaining -= dx
        zm_a[k + 1], zp_a[k + 1] = cur_m_a, cur_p_a
        zm_b[k + 1], zp_b[k + 1] = cur_m_b, cur_p_b

    return OracleGrid(domain=dom, zm_a=zm_a, zp_a=zp_a, zm_b=zm_b, zp_b=zp_b)


@dataclass(frozen=True)
class FieldDifference:
    sup: dict  # per (layer, family)
    mean: dict
    overall_sup: float


def compare_fields(a, b) -> FieldDifference:
    """Sup and mean lattice differences per family per layer.

    ``a`` and ``b`` may be any grid-like objects carrying zm_a/zp_a/zm_b/zp_b
    on identical lattices.
    """
    sup = {}
    mean = {}
    for name in ("zm_a", "zp_a", "zm_b", "zp_b"):
        x = getattr(a, name)
        y = getattr(b, name)
        if x.shape != y.shape:
            raise ValueError(f"lattice mismatch for {name}: {x.shape} vs {y.shape}")
        d = np.abs(x - y)
        sup[name] = float(d.max())
        mean[name] = float(d.mean())
    return FieldDifference(sup=sup, mean=mean, overall_sup=max(sup.values()))
