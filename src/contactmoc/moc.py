"""Fixed-point solver for the diagonalized two-layer boundary value problem.

The nonlinear system transports z_minus along the fast family
(d eta / d xi = lambda_plus) and z_plus along the slow family, with three
closures: inlet data at xi = 0, wall reflection z_minus + z_plus =
2 arctan g' at the nozzle walls, and a two-sided coupling at the contact row
eta = 0 that enforces continuity of flow angle and pressure.

Every grid, state and speed array holds both layers on one node row
``a | b`` (``LagrangianDomain.layers``).  Each outer iteration inverts the
previous iterate to primitive states once (``grid_states``), freezes the
characteristic speeds on the Mach variable of that inversion and solves the
resulting linear transport problem exactly in the semi-Lagrangian sense:
every invariant is constant along its own frozen characteristic, so one
backward trace plus four-point cubic interpolation per node advances a
xi-slab.  The speeds are frozen, so
the feet do not depend on z: the march first plans every step
(``plan_march``: midpoint foot, clipped foot and cubic stencil of every node
of every step on the row ``zm | zp``, each frozen row interpolated once per
family and layer), then sweeps in xi (``step_linearized``: one gather of
the four stencil values and one stacked Lagrange sum, then the wall and
contact closures of ``close_row`` on the four boundary entries).
The problem is well posed because each layer has one incoming and one
outgoing family at every wall and at the contact (lambda_- < 0 < lambda_+,
required by ``FrozenField``), and the march stays inside its domain of
dependence because ``check_cfl`` enforces max|lambda| dxi <= deta on every
frozen field before it is marched (Courant, Friedrichs & Lewy, Math. Ann.
100, 1928).  The contact closure matches flow angle and pressure to first
order with each side's averaged derivative k = int_0^1 dTheta/dp(p_bg +
tau (p_prev - p_bg)) dtau = Theta(p_prev) / (p_prev - p_bg), closed form
because Theta(p_bg) = 0 (``gas.Streamline.theta_secant``).  This is the
linear wave theory's reflection law (Courant & Friedrichs, Supersonic Flow
and Shock Waves, ch. IV): each side sends out what the other brings in,
plus R = (k_b - k_a) / (k_a + k_b) times the jump between them, so T = 1 + R
by construction and the a <-> b mirror takes R to -R.  R = -1 is a solid
wall for layer a (k_b -> 0) and R = +1 a constant-pressure boundary
(k_b -> inf).  The background's invariants are exactly (0, 0) in both
layers: Theta has one global reference pressure p_ref, and
``gas.Streamline`` gives Theta(p_ref) = 0.0 exactly, so the closure acts on
the invariants themselves and is homogeneous by construction.  At the fixed
point the averaged form makes the pressure match exact, not merely
first-order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gas, interp
from .config import NozzleGeometry, RunConfig
from .csvout import write_csv
from .lagrangian import LagrangianDomain

class SolverError(RuntimeError):
    """Solver failure; message starts with a machine-readable code."""


@dataclass
class MocProblem:
    """Per-run data shared by every iteration.

    ``line`` is the stacked row ``a | b`` prepared once (``gas.Streamline``
    of the A0 and B0 at every node, ``lagrangian.stream_data_from_inlet``,
    with the global Theta reference pressure, gamma and the run's Newton
    settings): every inversion and every evaluation of the speeds on the
    row goes through it.  ``contact`` is the contact
    streamline eta = 0 on either side, the row's first and last entry,
    prepared once as one (2, 1) ``gas.Streamline``: the reflection
    coefficient of the fixed point and of the oracle reads its secants from it.
    ``inlet_z`` holds the inlet invariants on the row, as one (2, n) array
    [z_minus, z_plus]; the background's are zero.  ``wall_angle`` holds
    ``wall_angles`` on the lattice xi, the upper wall in row 0 and the lower
    wall in row 1.
    """

    domain: LagrangianDomain
    geom: NozzleGeometry
    line: gas.Streamline
    contact: gas.Streamline
    inlet_z: np.ndarray
    wall_angle: np.ndarray
    min_supersonic_margin: float


def build_problem(cfg: RunConfig, geom: NozzleGeometry, domain: LagrangianDomain,
                  inlet: gas.PrimitiveState, a0, b0) -> MocProblem:
    """Assemble the per-run problem data from the inlet state and its
    streamline constants A0 and B0, all on the stacked node row ``a | b`` of
    ``domain``; the Theta reference pressure is the background's."""
    p_ref = cfg.background.p
    line = gas.Streamline(a0, b0, p_ref, cfg.gamma, cfg.newton_tol, cfg.max_newton_iters)
    ends = [0, -1]
    prob = MocProblem(
        domain=domain,
        geom=geom,
        line=line,
        contact=gas.Streamline(line.a0[ends, None], line.b0[ends, None], p_ref, cfg.gamma),
        inlet_z=line.invariants(inlet.u, inlet.v, inlet.p, inlet.rho),
        wall_angle=wall_angles(geom, domain.xi),
        min_supersonic_margin=cfg.min_supersonic_margin,
    )
    check_cfl(frozen_lambdas(InvariantGrid.background(prob, nxi=1), prob), domain)
    return prob


def wall_angles(geom: NozzleGeometry, x):
    """(2, x.size): the angles arctan g'(x) of the upper wall, then of the
    lower wall, at the abscissae ``x``.  Every call passes an array, so a
    one-element call gives the bits of the same entry of a longer one."""
    return np.arctan([geom.g_plus(x, 1), geom.g_minus(x, 1)])


def check_cfl(frozen: FrozenField, domain: LagrangianDomain):
    """Reject a frozen field whose speeds break max|lambda| dxi <= deta.

    Runs on the background row when the problem is built, so a bad lattice
    is rejected before any march, and on every iteration's frozen field
    before it is marched.  Raises a ``cfl`` SolverError naming the smallest
    valid nxi.
    """
    violated = []
    nxi_min = 0
    for tag, eta, cols in domain.layers:
        lam = max(float(np.max(np.abs(x[:, cols]))) for x in (frozen.lam_m, frozen.lam_p))
        deta = eta[1] - eta[0]
        bound = deta + 1e-9 * (eta[-1] - eta[0])  # round-off must not reject a lattice at the bound
        if lam * domain.dxi > bound:
            ratio = lam * domain.dxi / deta
            violated.append(f"max|lambda| dxi / deta = {ratio:.4g} > 1 in layer {tag}")
        nxi_min = max(nxi_min, 1 + math.ceil(domain.L * lam / bound))
    if violated:
        raise SolverError(f"cfl: {'; '.join(violated)} at nxi = {domain.xi.size}; "
                          f"the smallest valid nxi is {nxi_min}")


# ---------------------------------------------------------------------------
# Grid container


def _layer_view(family, tag):
    """Read-only attribute: a view of one layer's columns of ``family``."""
    def view(grid):
        cols = next(cols for t, _, cols in grid.domain.layers if t == tag)
        return getattr(grid, family)[:, cols]
    return property(view)


class InvariantGrid:
    """z_minus / z_plus on the Lagrangian lattice, both layers on the stacked
    node row: ``zm`` and ``zp`` are (nxi, neta_a + neta_b) arrays, and
    ``zm_a`` ... ``zp_b`` are read-only attributes viewing one layer's columns.

    Caches the implied primitive state and the ``(s, w)`` of
    ``gas.Streamline.mach`` the first time either is needed, so each iterate
    pays for the pressure inversion exactly once.
    """

    zm_a, zp_a = _layer_view("zm", "a"), _layer_view("zp", "a")
    zm_b, zp_b = _layer_view("zm", "b"), _layer_view("zp", "b")

    def __init__(self, domain, zm, zp):
        self.domain = domain
        self.zm = zm
        self.zp = zp
        self._state = self._mach = None

    @classmethod
    def background(cls, prob: MocProblem, nxi=None):
        """The background invariants, zero, on ``nxi`` xi rows (default: all)."""
        nxi = prob.domain.xi.size if nxi is None else nxi
        zm, zp = np.zeros((2, nxi, prob.line.a0.size))
        return cls(prob.domain, zm, zp)


def grid_states(grid: InvariantGrid, prob: MocProblem) -> gas.PrimitiveState:
    """Primitive state of both layers implied by the grid, one inversion on
    the stacked row (cached on the grid, with the Mach variable s and the
    flow-angle tangent w that ``frozen_lambdas`` and ``residual_check``
    read)."""
    if grid._state is None:
        if not np.all(np.abs(grid.zm + grid.zp) < np.pi):
            raise SolverError("left-supersonic-regime: |z_minus + z_plus| reached pi")
        mach = prob.line.mach(grid.zm, grid.zp)
        grid._state = gas.PrimitiveState(*prob.line.primitives(*mach))
        grid._mach = mach
    return grid._state


def check_supersonic_margin(grid: InvariantGrid, prob: MocProblem):
    """Enforce u - c >= min_supersonic_margin at every node."""
    s = grid_states(grid, prob)
    margin = s.u - gas.sound_speed(s, prob.line.gamma)
    for tag, _, cols in prob.domain.layers:
        worst = float(np.min(margin[:, cols]))
        if worst < prob.min_supersonic_margin:
            raise SolverError(
                f"left-supersonic-regime: min(u - c) = {worst:.3e} fell below "
                f"margin {prob.min_supersonic_margin:.3e} in layer {tag}"
            )


# ---------------------------------------------------------------------------
# Frozen coefficients


@dataclass(frozen=True)
class FrozenField:
    """Characteristic speeds evaluated on a previous iterate.

    Every node must have lambda_- < 0 < lambda_+: one family enters and one
    leaves each layer at the walls and at the contact.  Together with the
    ``check_cfl`` bound max|lambda| dxi <= deta (plus a 1e-9 span fuzz) this
    puts the foot of every traced node inside its slab: a midpoint speed
    averages node values of one sign and modulus at most max|lambda|, so
    each foot lies within one deta of its node, on the upstream side.  The
    only exceptions are the boundary rows whose upstream side is outside
    the layer, and those rows are overwritten by the wall and contact
    closures.
    """

    lam_m: np.ndarray
    lam_p: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.lam_m)) or not np.all(np.isfinite(self.lam_p)):
            raise SolverError("degenerate: frozen characteristic speed not finite")
        if not (np.all(self.lam_m < 0.0) and np.all(self.lam_p > 0.0)):
            raise SolverError("degenerate: frozen speeds must satisfy lambda_- < 0 < lambda_+")


def frozen_lambdas(grid: InvariantGrid, prob: MocProblem) -> FrozenField:
    """Both characteristic speeds at every node of the grid, from the Mach
    variable s and the flow-angle tangent w = tan((z_minus + z_plus)/2) of
    its one inversion (``grid_states``)."""
    try:
        grid_states(grid, prob)
        lam_m, lam_p = prob.line.lambdas(*grid._mach)
    except gas.GasError as exc:
        raise SolverError(f"left-supersonic-regime: {exc}") from None
    return FrozenField(lam_m=lam_m, lam_p=lam_p)


def contact_reflection(s, contact):
    """The contact's reflection coefficient R = (k_b - k_a) / (k_a + k_b),
    (m,), at the contact entries' Mach variables ``s``, (2, m): row 0 those
    of layer a, row 1 those of layer b.  Each side's k is the secant
    Theta(p) / (p - p_bg) of the contact streamlines ``contact``
    (``MocProblem.contact``, ``gas.Streamline.theta_secant``).  Raises a
    ``degenerate`` SolverError unless both secants lie in (0, inf).
    """
    ka, kb = k = contact.theta_secant(s)
    if not ((k > 0) & (k < np.inf)).all():
        raise SolverError("degenerate: coupling coefficients must be positive")
    return (kb - ka) / (ka + kb)


def coupling_coefficients(prev: InvariantGrid, prob: MocProblem):
    """The contact's reflection coefficient R, (nxi,), from the Mach
    variable of the previous iterate's contact row (``grid_states``): the
    first and the last entry of the row a | b, one (2, nxi)
    ``contact_reflection`` call."""
    grid_states(prev, prob)
    return contact_reflection(prev._mach[0][:, [0, -1]].T, prob.contact)


def close_row(zm, zp, na, angle_plus, angle_minus, r):
    """Assign in place the outgoing entries of the node row a | b of each
    family: wall reflection at na-1 | na, then the contact, where each side
    sends out what the other brings in plus ``r`` (z_in_a - z_in_b)."""
    zp[na - 1] = 2.0 * angle_plus - zm[na - 1]
    zm[na] = 2.0 * angle_minus - zp[na]
    z_in_a, z_in_b = zp[0], zm[-1]
    jump = r * (z_in_a - z_in_b)
    zm[0] = z_in_b + jump
    zp[-1] = z_in_a + jump


# ---------------------------------------------------------------------------
# Linearized march


def plan_march(frozen: FrozenField, domain: LagrangianDomain):
    """Trace every node of every step back along its frozen characteristic.

    Returns ``(index, s)`` on the march row ``zm | zp``, each on the stacked
    row a | b.  Row k of each serves the step xi_k -> xi_{k+1}: a (4, 2n)
    gather index into the march row (each node's four stencil nodes) and
    the local coordinate of the foot (``interp.cubic_stencil``).  The index
    is held as int32, so the plan takes 24 bytes a node-step.

    The speeds are frozen, so the feet do not depend on z: each foot comes
    from the midpoint speed, the mean of the rows xi_k and xi_{k+1} at the
    clipped half-step point.  Row k is interpolated once, at the midpoints
    of the step it ends and of the step it starts (``np.interp`` treats
    every query on its own, so the values are those of two calls).  Feet
    are clipped to their layer; ``check_cfl`` keeps every foot a closure
    does not overwrite inside it.  Each foot's four-point stencil comes
    from ``interp.cubic_stencil``, offset into the march row.
    """
    dxi = domain.dxi
    nxi, n = frozen.lam_p.shape
    index = np.empty((nxi - 1, 4, 2 * n), np.int32)
    s = np.empty((nxi - 1, 2 * n))
    # z_minus rides lambda_+ and z_plus rides lambda_-.
    for offset, lam_row in ((0, frozen.lam_p), (n, frozen.lam_m)):
        for _, eta, cols in domain.layers:
            lam = lam_row[:, cols]
            m = eta.size
            # Row k + 1 of ``mid`` holds the midpoints of step k; the padding
            # rows serve no step, so any query does there.
            mid = np.empty((nxi + 1, m))
            mid[0] = mid[-1] = eta
            feet = mid[1:-1]
            np.multiply(lam[1:], 0.5 * dxi, out=feet)
            np.subtract(eta, feet, out=feet)
            np.clip(feet, eta[0], eta[-1], out=feet)
            # Row k of lam at the midpoints of steps k - 1 and k, adjacent in
            # ``mid``: one call per row.
            queries = mid.reshape(-1)
            at = np.empty((nxi, 2 * m))
            for k, row in enumerate(lam):
                at[k] = np.interp(queries[k * m:(k + 2) * m], eta, row)
            # Rows k and k + 1 at the midpoints of step k, summed in their place.
            np.add(at[:-1, m:], at[1:, :m], out=feet)
            feet *= 0.5
            feet *= dxi
            np.subtract(eta, feet, out=feet)
            np.clip(feet, eta[0], eta[-1], out=feet)
            sl = slice(offset + cols.start, offset + cols.stop)
            stencil, s[:, sl] = interp.cubic_stencil(eta[0], eta[1] - eta[0], m, feet)
            np.add(stencil.transpose(1, 0, 2), sl.start, out=index[:, :, sl], casting="unsafe")
    return index, s


def step_linearized(prob: MocProblem, plan, r, k, z):
    """Advance the march row ``z = zm | zp`` from xi_k to xi_{k+1}.

    Every node takes the four-point cubic at its foot in ``plan``, the
    ``(index, s)`` of ``plan_march``: one gather of its stencil
    (``interp.cubic_eval``).  ``close_row`` then assigns the outgoing
    boundary entries with the reflection coefficients ``r`` of
    ``coupling_coefficients``: wall reflection at eta = +-m, the two-sided
    coupling at the contact.
    """
    index, s = plan
    new = interp.cubic_eval(z, index[k], s[k])
    n = new.size // 2
    close_row(new[:n], new[n:], prob.domain.eta_a.size, prob.wall_angle[0, k + 1],
              prob.wall_angle[1, k + 1], r[k + 1])
    return new


def solve_linearized(prev: InvariantGrid, prob: MocProblem):
    """One application of the iteration map: freeze speeds on ``prev`` and
    march the linear transport problem from the inlet to xi = L, planning
    every step once and then advancing the march row one step at a time.

    Returns the new iterate; the contact's reflection coefficient is that of
    ``coupling_coefficients`` frozen on ``prev``.
    """
    frozen = frozen_lambdas(prev, prob)
    check_cfl(frozen, prob.domain)
    r = coupling_coefficients(prev, prob)
    plan = plan_march(frozen, prob.domain)
    z = np.empty((prob.domain.xi.size, prob.inlet_z.size))
    z[0] = prob.inlet_z.ravel()
    for k in range(z.shape[0] - 1):
        z[k + 1] = step_linearized(prob, plan, r, k, z[k])
    n = z.shape[1] // 2
    return InvariantGrid(prob.domain, z[:, :n], z[:, n:])


# ---------------------------------------------------------------------------
# Fixed point


def _gaps(new: InvariantGrid, old: InvariantGrid, dom: LagrangianDomain):
    c0 = 0.0
    grad = 0.0
    for d in (new.zm - old.zm, new.zp - old.zp):
        c0 = max(c0, float(np.max(np.abs(d))))
        if d.shape[0] > 1:
            grad = max(grad, float(np.max(np.abs(np.diff(d, axis=0)))) / dom.dxi)
        for _, eta, cols in dom.layers:
            grad = max(grad, float(np.max(np.abs(np.diff(d[:, cols], axis=1)))) / (eta[1] - eta[0]))
    return c0, c0 + grad


def fixed_point(prob: MocProblem, fp_tol, max_fp_iters):
    """Iterate the linearized solve from the background until the discrete-C1
    gap between successive iterates drops below fp_tol.

    Returns ``(grid, history)``: the converged InvariantGrid, and the
    columns of ``iterations.csv`` as lists with one entry per iteration,
    ``{"c0_gap", "c1_gap", "ratio"}``; a ratio is the C1 gap over the one
    before it, nan for the first.  Raises SolverError ("no-convergence")
    after max_fp_iters, and whatever SolverError an iteration raises
    ("left-supersonic-regime", "cfl", "sonic-limit", "degenerate").
    """
    history = {"c0_gap": [], "c1_gap": [], "ratio": []}
    gaps = history["c1_gap"]
    grid = InvariantGrid.background(prob)
    check_supersonic_margin(grid, prob)
    for _ in range(max_fp_iters):
        new = solve_linearized(grid, prob)
        check_supersonic_margin(new, prob)
        c0, c1 = _gaps(new, grid, prob.domain)
        # A zero gap ends the loop (fp_tol > 0), so every earlier gap is positive.
        history["ratio"].append(c1 / gaps[-1] if gaps else math.nan)
        history["c0_gap"].append(c0)
        gaps.append(c1)
        grid = new
        if c1 <= fp_tol:
            return grid, history
    raise SolverError(
        f"no-convergence: fixed point did not reach fp_tol={fp_tol:.1e} "
        f"within {max_fp_iters} iterations (last C1 gap {gaps[-1]:.3e})")


# ---------------------------------------------------------------------------
# Nonlinear residual


def interior_residuals(grid: InvariantGrid, prob: MocProblem):
    """Upwind finite-difference residual |d_xi z + lambda d_eta z| of the
    nonlinear transport operators at every interior node, evaluated with the
    grid's own (self-consistent) speeds: one array per layer and family,
    keyed "a-", "a+", "b-", "b+" (rows from xi_1, columns from the second
    node of the layer)."""
    dom = prob.domain
    dxi = dom.dxi
    frozen = frozen_lambdas(grid, prob)
    interior = {}
    for tag, eta, cols in dom.layers:
        deta = eta[1] - eta[0]
        # FrozenField holds lambda_- < 0 < lambda_+: z_minus is upwind behind, z_plus ahead.
        for z, lam, fam, hi, lo in ((grid.zm, frozen.lam_p, "-", slice(1, -1), slice(None, -2)),
                                    (grid.zp, frozen.lam_m, "+", slice(2, None), slice(1, -1))):
            z, lam = z[:, cols], lam[:, cols]
            dz_xi = (z[1:, 1:-1] - z[:-1, 1:-1]) / dxi
            lam_in = lam[1:, 1:-1]
            dz_eta = (z[1:, hi] - z[1:, lo]) / deta
            interior[f"{tag}{fam}"] = np.abs(dz_xi + lam_in * dz_eta)
    return interior


def residual_check(grid: InvariantGrid, prob: MocProblem):
    """Pointwise wall and contact condition checks of the grid, and the sup
    of its ``interior_residuals``, keyed as the ``solve`` summary prints
    them: ``wall_slip``, ``contact_w_jump``, ``contact_p_jump`` and
    ``residual_sup``."""
    p = grid_states(grid, prob).p
    sup = max(float(res.max()) for res in interior_residuals(grid, prob).values())
    _, w = grid._mach
    na = prob.domain.eta_a.size
    return {
        "wall_slip": float(np.max(np.abs(w[:, na - 1:na + 1].T - np.tan(prob.wall_angle)))),
        "contact_w_jump": float(np.max(np.abs(w[:, 0] - w[:, -1]))),
        "contact_p_jump": float(np.max(np.abs(p[:, 0] - p[:, -1]))),
        "residual_sup": sup,
    }


# ---------------------------------------------------------------------------
# CSV output


def write_iteration_csv(history, path):
    """``fixed_point``'s history as it stands: iter,c0_gap,c1_gap,ratio."""
    iters = range(1, len(history["c1_gap"]) + 1)
    write_csv(path, ("iter", *history), (iters, *history.values()))


def write_grid_csv(grid: InvariantGrid, path):
    dom = grid.domain
    xi = dom.xi[:, None]
    parts = []
    for tag, eta, cols in dom.layers:
        shape = (dom.xi.size, eta.size)
        parts.append((np.broadcast_to(xi, shape), np.broadcast_to(eta, shape),
                      np.full(shape, tag), grid.zm[:, cols], grid.zp[:, cols]))
    write_csv(path, ("xi", "eta", "layer", "z_minus", "z_plus"),
              [np.concatenate(pair, axis=None) for pair in zip(*parts)])
