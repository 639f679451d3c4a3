"""Independent cross-check: nonlinear first-order upwind march.

Solves the same diagonal two-layer problem as the fixed-point solver but
with a completely different truncation structure: explicit first-order
upwind differencing, speeds evaluated from the current slab's own state (no
freezing, no outer iteration), CFL sub-stepping in xi.  Boundary closures
have the same form (wall reflection, two-sided contact coupling with the
averaged-derivative weights) but every coefficient is recomputed from this
marcher's own slabs; nothing computed by the fixed-point solver is read.
Agreement between the two is therefore evidence, not shared bias.

Each sub-step works on both layers at once on the problem's stacked node
row ``a | b`` (``LagrangianDomain.layers``: the contact is the first and
the last entry, the walls meet at na-1 | na), so one pressure inversion
and one evaluation of the speeds serve both layers, and one Gauss path
gives both contact weights.  Newton runs independently per node, so the
stacked calls return the bits of per-layer calls.  The streamlines are the
problem's own, prepared once when the problem is built: the row's
(``MocProblem.line``, the one the fixed point inverts with) and the two
contact streamlines (``MocProblem.contact``, the one the fixed point's
contact weights read).  These hold constants of the inlet data alone, so a
sub-step recomputes no streamline constant and reads nothing the fixed point
computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moc import InvariantGrid, MocProblem, SolverError, _averaged_dtheta

_MAX_SUBSTEPS = 1000


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


def upwind_march(prob: MocProblem) -> InvariantGrid:
    """March the nonlinear diagonal system with first-order upwinding.

    The CFL condition max|lambda| dxi <= deta is enforced by sub-stepping;
    closures are applied after every sub-step with the wall slope evaluated
    at the sub-step's target abscissa.
    """
    dom = prob.domain
    nxi = dom.xi.size
    na = dom.eta_a.size
    deta_min = min(eta[1] - eta[0] for _, eta, _ in dom.layers)

    rows = prob.line
    zm, zp = np.empty((2, nxi, prob.stream.a0.size))
    zm[0], zp[0] = prob.inlet_z
    cur_m, cur_p = zm[0], zp[0]

    for k in range(nxi - 1):
        xi_left = dom.xi[k]
        remaining = dom.dxi
        while remaining > 1e-14 * dom.dxi:
            u, v, p, rho = rows.state(cur_m, cur_p)
            lam_m, lam_p = rows.lambdas(u, v, p, rho)
            max_lam = max(np.abs(lam_m).max(), np.abs(lam_p).max())
            cfl_dx = 0.9 * deta_min / max_lam
            n_sub = max(1, math.ceil(remaining / cfl_dx))
            if n_sub > _MAX_SUBSTEPS:
                raise SolverError(
                    f"degenerate: CFL sub-stepping exploded near xi = {xi_left:.6g} "
                    f"(would need {n_sub} sub-steps)"
                )
            dx = remaining / n_sub

            new_m, new_p = np.empty_like(cur_m), np.empty_like(cur_p)
            for _, eta, cols in dom.layers:
                nu_base = dx / (eta[1] - eta[0])
                new_m[cols] = _upwind(cur_m[cols], lam_p[cols], nu_base)
                new_p[cols] = _upwind(cur_p[cols], lam_m[cols], nu_base)

            # Walls: the last node of layer a and the first of layer b.
            xi_next = xi_left + dx
            ang_p = math.atan(float(prob.geom.g_plus(xi_next, 1)))
            ang_m = math.atan(float(prob.geom.g_minus(xi_next, 1)))
            new_p[na - 1] = 2.0 * ang_p - new_m[na - 1]
            new_m[na] = 2.0 * ang_m - new_p[na]

            # Contact coupling from this marcher's own slab pressures.
            bar_a, bar_b = _averaged_dtheta(p[[0, -1], None], prob.contact).ravel()
            alpha = 1.0 / (2.0 * bar_a)
            beta = 1.0 / (2.0 * bar_b)
            s = alpha + beta
            g1 = (alpha - beta) / s
            g2 = 2.0 * alpha / s
            g3 = 2.0 * beta / s
            z_in_a, z_in_b = new_p[0], new_m[-1]
            new_m[0] = g1 * z_in_a + g3 * z_in_b
            new_p[-1] = g2 * z_in_a - g1 * z_in_b

            cur_m, cur_p = new_m, new_p
            xi_left = xi_next
            remaining -= dx
        zm[k + 1], zp[k + 1] = cur_m, cur_p

    return InvariantGrid(dom, zm, zp)


@dataclass(frozen=True)
class FieldDifference:
    sup: dict  # per (layer, family)
    overall_sup: float


def compare_fields(a, b) -> FieldDifference:
    """Sup lattice differences per family per layer.

    ``a`` and ``b`` may be any grid-like objects carrying zm_a/zp_a/zm_b/zp_b
    on identical lattices.
    """
    sup = {}
    for name in ("zm_a", "zp_a", "zm_b", "zp_b"):
        x, y = getattr(a, name), getattr(b, name)
        if x.shape != y.shape:
            raise ValueError(f"lattice mismatch for {name}: {x.shape} vs {y.shape}")
        sup[name] = float(np.abs(x - y).max())
    return FieldDifference(sup=sup, overall_sup=max(sup.values()))
