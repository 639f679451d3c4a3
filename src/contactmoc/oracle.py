"""Independent cross-check: nonlinear first-order upwind march.

Solves the same diagonal two-layer problem as the fixed-point solver but
with a completely different truncation structure: explicit first-order
upwind differencing, speeds evaluated from the current slab's own state (no
freezing, no outer iteration), CFL sub-stepping in xi.  The boundary
conditions are the problem's, not the discretization's: the fixed point's
``moc.close_row`` and ``moc.contact_reflection`` apply them, but from this
marcher's own slabs and sub-step abscissae; nothing computed by the
fixed-point solver is read.  Agreement between the two is therefore
evidence, not shared bias.

Each sub-step updates the problem's whole stacked node row ``a | b``
(``LagrangianDomain.layers``: the contact is the first and the last entry,
the walls meet at na-1 | na): z_minus by backward and z_plus by forward
differences, each column with its Courant number dx / deta.  A sub-step
works on the Mach variable s = sqrt(M^2-1) = cot(mu) and never forms the
primitive state: one flow-angle guard and one Newton inversion for s
(``gas.Streamline.mach``), started from the previous sub-step's s (the
first from each streamline's own start), give both layers' speeds in closed
form (``gas.Streamline.lambdas``), and the two contact entries' s give the
contact's reflection coefficient in closed form (``moc.contact_reflection``).
Newton runs independently per node and freezes converged nodes by mask, so
the stacked calls return the bits of per-layer calls.  The wall angles
arctan g'(x) (``moc.wall_angles``, not the fixed point's table) are
tabulated once per march on the step ends xi_k + dxi, where a step with a
single sub-step lands exactly; any other sub-step evaluates the same helper
on its one abscissa, which gives the bits a table entry would.  The streamlines are the problem's own, prepared once when the
problem is built: the row's (``MocProblem.line``) and the two contact
streamlines (``MocProblem.contact``).  These hold constants of the inlet
data alone, so a sub-step recomputes no streamline constant and reads
nothing the fixed point computes.
"""

from __future__ import annotations

import math

import numpy as np

from .moc import InvariantGrid, MocProblem, SolverError, close_row, contact_reflection, wall_angles

_MAX_SUBSTEPS = 1000


def upwind_march(prob: MocProblem) -> InvariantGrid:
    """March the nonlinear diagonal system with first-order upwinding.

    The CFL condition max|lambda| dxi <= deta is enforced by sub-stepping;
    closures are applied after every sub-step with the wall angles at the
    sub-step's target abscissa: read from the march's table of step ends
    when the sub-step spans the whole step (dx == dxi), else evaluated on
    the one-element array [xi_next].
    """
    dom = prob.domain
    xi, dxi = dom.xi, dom.dxi
    nxi = xi.size
    na = dom.eta_a.size
    deta = np.concatenate([np.full(eta.size, eta[1] - eta[0]) for _, eta, _ in dom.layers])
    deta_min = deta.min()

    rows, contact = prob.line, prob.contact
    # A step's first sub-step with dx == dxi lands on xi_k + dxi exactly.
    step_angles = wall_angles(prob.geom, xi[:-1] + dxi).T.tolist()
    zm, zp = np.empty((2, nxi, deta.size))
    zm[0], zp[0] = prob.inlet_z
    cur_m, cur_p = zm[0], zp[0]
    s = None

    for k in range(nxi - 1):
        xi_left = xi[k]
        remaining = dxi
        while remaining > 1e-14 * dxi:
            s, w = rows.mach(cur_m, cur_p, s)
            # ``lambdas`` needs u > c, so lambda_- < 0 < lambda_+.
            lam_m, lam_p = rows.lambdas(s, w)
            max_lam = max(-lam_m.min(), lam_p.max())
            cfl_dx = 0.9 * deta_min / max_lam
            n_sub = max(1, math.ceil(remaining / cfl_dx))
            if n_sub > _MAX_SUBSTEPS:
                raise SolverError(
                    f"degenerate: CFL sub-stepping exploded near xi = {xi_left:.6g} "
                    f"(would need {n_sub} sub-steps)"
                )
            dx = remaining / n_sub

            # close_row assigns the four entries whose stencil crosses
            # na-1 | na or the ends.
            nu = dx / deta
            new_m, new_p = np.empty((2, deta.size))
            new_m[1:] = cur_m[1:] - (nu[1:] * lam_p[1:]) * (cur_m[1:] - cur_m[:-1])
            new_p[:-1] = cur_p[:-1] - (nu[:-1] * lam_m[:-1]) * (cur_p[1:] - cur_p[:-1])

            xi_next = xi_left + dx
            if dx == dxi:
                angles = step_angles[k]
            else:
                angles = wall_angles(prob.geom, np.array([xi_next]))[:, 0]
            r = float(contact_reflection(s[[0, -1], None], contact)[0])
            close_row(new_m, new_p, na, *angles, r)

            cur_m, cur_p = new_m, new_p
            xi_left = xi_next
            remaining -= dx
        zm[k + 1], zp[k + 1] = cur_m, cur_p

    return InvariantGrid(dom, zm, zp)


def compare_fields(a, b) -> float:
    """The sup lattice difference of two grids over both families and both
    layers: of ``zm`` and ``zp``, each on the stacked row ``a | b``.

    ``a`` and ``b`` may be any grid-like objects carrying zm and zp on
    identical lattices.
    """
    sup = 0.0
    for name in ("zm", "zp"):
        x, y = getattr(a, name), getattr(b, name)
        if x.shape != y.shape:
            raise ValueError(f"lattice mismatch for {name}: {x.shape} vs {y.shape}")
        sup = max(sup, float(np.abs(x - y).max()))
    return sup
