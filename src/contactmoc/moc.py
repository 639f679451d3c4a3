"""Fixed-point solver for the diagonalized two-layer boundary value problem.

The nonlinear system transports z_minus along the fast family
(d eta / d xi = lambda_plus) and z_plus along the slow family, with three
closures: inlet data at xi = 0, wall reflection z_minus + z_plus =
2 arctan g' at the nozzle walls, and a two-sided coupling at the contact row
eta = 0 that enforces continuity of flow angle and pressure.

Each outer iteration inverts the previous iterate to primitive states once
(``grid_states``), freezes the characteristic speeds on them and solves the
resulting linear transport problem exactly in the semi-Lagrangian sense:
every invariant is constant along its own frozen characteristic, so one
backward trace plus clipped cubic interpolation per node advances a
xi-slab.  The speeds are frozen, so the feet do not depend on z: the march
first plans every step (``plan_march``: midpoint foot, clipped foot and
cubic stencil of every node of every step, the four slabs stacked into one
row ``zm_a | zp_a | zm_b | zp_b``), then sweeps in xi (``step_linearized``:
one gather of the stencil values, one of the bracketing pairs, the Lagrange
sum and its clip, then the wall and contact closures on the four boundary
entries).  The problem is well posed because each layer has one incoming and
one outgoing family at every wall and at the contact (lambda_- < 0 <
lambda_+, required by ``FrozenField``), and the march stays inside its
domain of dependence because ``check_cfl`` enforces max|lambda| dxi <= deta
on every frozen field before it is marched (Courant, Friedrichs & Lewy,
Math. Ann. 100, 1928).  The contact closure linearizes the pressure match
with averaged-derivative coefficients

    alpha = 1 / (2 int_0^1 dTheta/dp(p_bg + tau (p_prev - p_bg)) dtau)

(and beta likewise below the contact); the mixing weights
gamma_1 = (alpha-beta)/(alpha+beta), gamma_2 = 2 alpha/(alpha+beta),
gamma_3 = 2 beta/(alpha+beta) assign the two outgoing invariants from the
two incoming ones.  The closure is homogeneous in the deviations from the
background: Theta has one global reference pressure, so the background
invariants invert to p_ref on both sides of the contact.  At the fixed point
the averaged form makes the pressure match exact, not merely first-order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gas, interp
from .config import NozzleGeometry, RunConfig
from .csvout import write_csv
from .lagrangian import InletTrace, LagrangianDomain

# 16-point Gauss-Legendre rule on [0, 1] for the averaged-derivative
# coefficients (fixed order; the integrand is smooth).
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W


class SolverError(RuntimeError):
    """Solver failure; message starts with a machine-readable code.

    Carries the partial IterationReport in ``report`` when available.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass
class MocProblem:
    """Per-run data shared by every iteration.

    ``stream_a`` / ``stream_b`` hold A0 and B0 at every node of each layer's
    eta lattice (``lagrangian.stream_data_from_inlet``) with the global
    Theta reference pressure.
    """

    g: gas.GasConstants
    domain: LagrangianDomain
    geom: NozzleGeometry
    stream_a: gas.StreamData
    stream_b: gas.StreamData
    inlet_z_a: gas.InvariantPair
    inlet_z_b: gas.InvariantPair
    zbar_a: tuple
    zbar_b: tuple
    wall_angle_plus: np.ndarray
    wall_angle_minus: np.ndarray
    newton_tol: float
    max_newton_iters: int
    min_supersonic_margin: float


def build_problem(cfg: RunConfig, geom: NozzleGeometry, trace_a: InletTrace,
                  trace_b: InletTrace, stream_a: gas.StreamData, stream_b: gas.StreamData,
                  domain: LagrangianDomain) -> MocProblem:
    """Assemble the per-run problem data from the Lagrangian inlet traces and
    their stream data, both on the eta lattice."""
    g = cfg.gas_constants
    bg_a, bg_b = cfg.background.states()

    def inlet_invariants(trace, stream):
        state = gas.PrimitiveState(u=trace.u, v=trace.v, p=trace.p, rho=trace.rho)
        return gas.invariants_from_state(state, stream, g)

    z0_a = inlet_invariants(trace_a, stream_a)
    z0_b = inlet_invariants(trace_b, stream_b)

    def background_invariants(st):
        sd = gas.StreamData(gas.entropy_function(st, g), gas.bernoulli(st, g), stream_a.p_ref)
        z = gas.invariants_from_state(st, sd, g)
        return (float(z.z_minus), float(z.z_plus))

    zbar_a = background_invariants(bg_a)
    zbar_b = background_invariants(bg_b)

    xi = domain.xi
    prob = MocProblem(
        g=g,
        domain=domain,
        geom=geom,
        stream_a=stream_a,
        stream_b=stream_b,
        inlet_z_a=z0_a,
        inlet_z_b=z0_b,
        zbar_a=zbar_a,
        zbar_b=zbar_b,
        wall_angle_plus=np.arctan(geom.g_plus(xi, 1)),
        wall_angle_minus=np.arctan(geom.g_minus(xi, 1)),
        newton_tol=cfg.newton_tol,
        max_newton_iters=cfg.max_newton_iters,
        min_supersonic_margin=cfg.min_supersonic_margin,
    )
    check_cfl(frozen_lambdas(InvariantGrid.background(prob, nxi=1), prob), domain)
    return prob


def check_cfl(frozen: FrozenField, domain: LagrangianDomain):
    """Reject a frozen field whose speeds break max|lambda| dxi <= deta.

    Runs on the background row when the problem is built, so a bad lattice
    is rejected before any march, and on every iteration's frozen field
    before it is marched.  Raises a ``cfl`` SolverError naming the smallest
    valid nxi.
    """
    violated = []
    nxi_min = 0
    for tag, eta, lams in (("a", domain.eta_a, (frozen.lam_m_a, frozen.lam_p_a)),
                           ("b", domain.eta_b, (frozen.lam_m_b, frozen.lam_p_b))):
        lam = max(float(np.max(np.abs(x))) for x in lams)
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


class InvariantGrid:
    """z_minus / z_plus per layer on the Lagrangian lattice.

    Caches the implied primitive state the first time it is needed so each
    iterate pays for the pressure inversion exactly once.
    """

    def __init__(self, domain, zm_a, zp_a, zm_b, zp_b):
        self.domain = domain
        self.zm_a = zm_a
        self.zp_a = zp_a
        self.zm_b = zm_b
        self.zp_b = zp_b
        self._states = None

    @classmethod
    def background(cls, prob: MocProblem, nxi=None):
        """The background invariants on ``nxi`` xi rows (default: all)."""
        nxi = prob.domain.xi.size if nxi is None else nxi
        za = np.full((nxi, prob.domain.eta_a.size), 0.0)
        zb = np.full((nxi, prob.domain.eta_b.size), 0.0)
        return cls(
            prob.domain,
            za + prob.zbar_a[0],
            za + prob.zbar_a[1],
            zb + prob.zbar_b[0],
            zb + prob.zbar_b[1],
        )


def grid_states(grid: InvariantGrid, prob: MocProblem):
    """Primitive state per layer implied by the grid, as a dict of
    gas.PrimitiveState keyed by layer tag (cached on the grid)."""
    if grid._states is None:
        states = {}
        for tag, zm, zp, stream in (("a", grid.zm_a, grid.zp_a, prob.stream_a),
                                    ("b", grid.zm_b, grid.zp_b, prob.stream_b)):
            if not np.all(np.abs(zm + zp) < np.pi):
                raise SolverError("left-supersonic-regime: |z_minus + z_plus| reached pi")
            states[tag] = gas.state_from_invariants(
                gas.InvariantPair(zm, zp), stream, prob.g,
                newton_tol=prob.newton_tol, max_newton_iters=prob.max_newton_iters)
        grid._states = states
    return grid._states


def check_supersonic_margin(grid: InvariantGrid, prob: MocProblem):
    """Enforce u - c >= min_supersonic_margin at every node."""
    for tag, s in grid_states(grid, prob).items():
        worst = float(np.min(s.u - gas.sound_speed(s, prob.g)))
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

    lam_m_a: np.ndarray
    lam_p_a: np.ndarray
    lam_m_b: np.ndarray
    lam_p_b: np.ndarray

    def __post_init__(self):
        for lam_m, lam_p in ((self.lam_m_a, self.lam_p_a), (self.lam_m_b, self.lam_p_b)):
            if not np.all(np.isfinite(lam_m)) or not np.all(np.isfinite(lam_p)):
                raise SolverError("degenerate: frozen characteristic speed not finite")
            if not (np.all(lam_m < 0.0) and np.all(lam_p > 0.0)):
                raise SolverError("degenerate: frozen speeds must satisfy lambda_- < 0 < lambda_+")


def frozen_lambdas(grid: InvariantGrid, prob: MocProblem) -> FrozenField:
    """Both characteristic speeds at every node of the grid's states."""
    lams = {}
    for tag, state in grid_states(grid, prob).items():
        try:
            lams[tag] = gas.lambda_pm(state, prob.g)
        except gas.GasError as exc:
            raise SolverError(f"left-supersonic-regime: {exc} (layer {tag})") from None
    return FrozenField(lam_m_a=lams["a"][0], lam_p_a=lams["a"][1],
                       lam_m_b=lams["b"][0], lam_p_b=lams["b"][1])


@dataclass(frozen=True)
class CouplingCoefficients:
    """Per-xi contact closure data: averaged-derivative alpha/beta and the
    gamma mixing weights."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    gamma3: np.ndarray

    def __post_init__(self):
        if not (np.all(self.alpha > 0) and np.all(self.beta > 0)):
            raise SolverError("coupling coefficients must be positive")


def _averaged_dtheta(p_prev, sd, g):
    """int_0^1 dTheta/dp(p_bg + tau (p_prev - p_bg)) dtau by 16-point Gauss
    on the streamline data ``sd``; the background pressure p_bg is the Theta
    reference pressure.

    The Gauss nodes run along the second-to-last axis of the path, so p_prev
    of shape (..., m) is summed as one (16, m) product per leading index.  A
    (k, 1) p_prev with a0/b0 of shape (k, 1, 1) gives each of its k
    streamlines the bits of a one-node call.
    """
    tau = _GL_X[:, None]
    p_bg = sd.p_ref
    path = p_bg + tau * (p_prev[..., None, :] - p_bg)
    return _GL_W @ gas.dtheta_dp(path, sd, g)


def coupling_coefficients(prev: InvariantGrid, prob: MocProblem) -> CouplingCoefficients:
    """Contact-closure coefficients from the previous iterate's contact row."""
    st = grid_states(prev, prob)
    # The contact eta = 0 is the first node of layer a and the last of b.
    sa, sb = prob.stream_a, prob.stream_b
    try:
        contact_a = gas.StreamData(sa.a0[0], sa.b0[0], sa.p_ref)
        contact_b = gas.StreamData(sb.a0[-1], sb.b0[-1], sb.p_ref)
        bar_a = _averaged_dtheta(st["a"].p[:, 0], contact_a, prob.g)
        bar_b = _averaged_dtheta(st["b"].p[:, -1], contact_b, prob.g)
    except gas.GasError as exc:
        raise SolverError(f"sonic-limit on the contact coupling path: {exc}") from None
    alpha = 1.0 / (2.0 * bar_a)
    beta = 1.0 / (2.0 * bar_b)
    s = alpha + beta
    return CouplingCoefficients(
        alpha=alpha,
        beta=beta,
        gamma1=(alpha - beta) / s,
        gamma2=2.0 * alpha / s,
        gamma3=2.0 * beta / s,
    )


# ---------------------------------------------------------------------------
# Linearized march


@dataclass(frozen=True)
class MarchPlan:
    """Backward-trace data of every step of one frozen field.

    The four slabs are stacked into one row, ``zm_a | zp_a | zm_b | zp_b``,
    with ``slices`` marking each slab.  Row k of ``base``, ``cell`` and ``s``
    serves the step xi_k -> xi_{k+1}: the stacked-row index of each node's
    first stencil node and of the left node of its bracketing cell, and the
    local coordinate of its foot (``interp.cubic_stencil``).
    """

    slices: tuple
    base: np.ndarray
    cell: np.ndarray
    s: np.ndarray


def plan_march(frozen: FrozenField, domain: LagrangianDomain) -> MarchPlan:
    """Trace every node of every step back along its frozen characteristic.

    The speeds are frozen, so the feet do not depend on z: each foot comes
    from the midpoint speed, the mean of the rows xi_k and xi_{k+1} at the
    clipped half-step point.  Feet are clipped to their slab; ``check_cfl``
    keeps every foot a closure does not overwrite inside it.
    """
    dxi = domain.dxi
    etas = (domain.eta_a, domain.eta_a, domain.eta_b, domain.eta_b)
    ends = np.cumsum([0] + [eta.size for eta in etas]).tolist()
    slices = tuple(slice(start, stop) for start, stop in zip(ends[:-1], ends[1:]))
    shape = (domain.xi.size - 1, ends[-1])
    base, cell, s = np.empty(shape, np.intp), np.empty(shape, np.intp), np.empty(shape)
    for eta, lam, sl in zip(etas, (frozen.lam_p_a, frozen.lam_m_a, frozen.lam_p_b, frozen.lam_m_b),
                            slices):
        mid = np.clip(eta - 0.5 * dxi * lam[1:], eta[0], eta[-1])
        at_mid = np.empty((2,) + mid.shape)  # rows k and k + 1 at the midpoints
        for k, m in enumerate(mid):
            at_mid[0, k] = np.interp(m, eta, lam[k])
            at_mid[1, k] = np.interp(m, eta, lam[k + 1])
        feet = np.clip(eta - dxi * (0.5 * (at_mid[0] + at_mid[1])), eta[0], eta[-1])
        base[:, sl], cell[:, sl], s[:, sl] = interp.cubic_stencil(eta[0], eta[1] - eta[0],
                                                                   eta.size, feet)
        base[:, sl] += sl.start
        cell[:, sl] += sl.start
    return MarchPlan(slices, base, cell, s)


def step_linearized(prob: MocProblem, plan: MarchPlan, cc: CouplingCoefficients, k, z):
    """Advance the stacked invariant row ``z`` from xi_k to xi_{k+1}.

    Every node takes the clipped cubic at its planned foot; the outgoing
    boundary entries are then assigned: wall reflection at eta = +-m, the
    two-sided coupling at the contact.
    """
    new = interp.cubic_eval(z, plan.base[k], plan.cell[k], plan.s[k])
    # The contact eta = 0 is the first node of layer a and the last of b.
    zm_a, zp_a, zm_b, zp_b = plan.slices

    # Wall reflections: the outgoing family balances the traced incoming one.
    new[zp_a.stop - 1] = 2.0 * prob.wall_angle_plus[k + 1] - new[zm_a.stop - 1]
    new[zm_b.start] = 2.0 * prob.wall_angle_minus[k + 1] - new[zp_b.start]

    # Contact coupling: incoming are z+ from above and z- from below.
    d_in_a = new[zp_a.start] - prob.zbar_a[1]
    d_in_b = new[zm_b.stop - 1] - prob.zbar_b[0]
    g1, g2, g3 = cc.gamma1[k + 1], cc.gamma2[k + 1], cc.gamma3[k + 1]
    new[zm_a.start] = prob.zbar_a[0] + g1 * d_in_a + g3 * d_in_b
    new[zp_b.stop - 1] = prob.zbar_b[1] + g2 * d_in_a - g1 * d_in_b
    return new


def march_linearized(prob: MocProblem, frozen: FrozenField, cc: CouplingCoefficients):
    """March the linear transport problem from the inlet to xi = L: plan
    every step once, then advance the stacked row one step at a time.

    Returns the four invariant arrays (zm_a, zp_a, zm_b, zp_b).
    """
    plan = plan_march(frozen, prob.domain)
    z = np.empty((prob.domain.xi.size, plan.s.shape[1]))
    z[0] = np.concatenate([prob.inlet_z_a.z_minus, prob.inlet_z_a.z_plus,
                           prob.inlet_z_b.z_minus, prob.inlet_z_b.z_plus])
    for k in range(z.shape[0] - 1):
        z[k + 1] = step_linearized(prob, plan, cc, k, z[k])
    return tuple(z[:, sl].copy() for sl in plan.slices)


def solve_linearized(prev: InvariantGrid, prob: MocProblem):
    """One application of the iteration map: freeze speeds on ``prev`` and
    march the linear transport problem from the inlet to xi = L.

    Returns (InvariantGrid, FrozenField, CouplingCoefficients): the new
    iterate and the coefficients frozen on ``prev`` that produced it.
    """
    frozen = frozen_lambdas(prev, prob)
    check_cfl(frozen, prob.domain)
    cc = coupling_coefficients(prev, prob)
    return InvariantGrid(prob.domain, *march_linearized(prob, frozen, cc)), frozen, cc


# ---------------------------------------------------------------------------
# Fixed point


@dataclass
class IterationReport:
    """Per-iteration convergence diagnostics of the outer fixed point."""

    c0_gaps: list = field(default_factory=list)
    c1_gaps: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    last_coupling: CouplingCoefficients = None
    residuals: object = None


def _gaps(new: InvariantGrid, old: InvariantGrid, dom: LagrangianDomain):
    c0 = 0.0
    grad = 0.0
    for z_new, z_old, deta in (
        (new.zm_a, old.zm_a, dom.deta_a),
        (new.zp_a, old.zp_a, dom.deta_a),
        (new.zm_b, old.zm_b, dom.deta_b),
        (new.zp_b, old.zp_b, dom.deta_b),
    ):
        d = z_new - z_old
        c0 = max(c0, float(np.max(np.abs(d))))
        if d.shape[0] > 1:
            grad = max(grad, float(np.max(np.abs(np.diff(d, axis=0)))) / dom.dxi)
        if d.shape[1] > 1:
            grad = max(grad, float(np.max(np.abs(np.diff(d, axis=1)))) / deta)
    return c0, c0 + grad


def fixed_point(prob: MocProblem, fp_tol, max_fp_iters):
    """Iterate the linearized solve from the background until the discrete-C1
    gap between successive iterates drops below fp_tol.

    Returns (InvariantGrid, IterationReport).  Raises SolverError
    ("no-convergence") after max_fp_iters, and whatever SolverError an
    iteration raises ("left-supersonic-regime", "cfl", "sonic-limit",
    "degenerate"); each failure inside the loop carries the report of the
    iterations completed before it.
    """
    report = IterationReport()
    grid = InvariantGrid.background(prob)
    check_supersonic_margin(grid, prob)
    for n in range(1, max_fp_iters + 1):
        try:
            new, _, cc = solve_linearized(grid, prob)
            check_supersonic_margin(new, prob)
        except SolverError as exc:
            raise SolverError(str(exc), report=report) from None
        c0, c1 = _gaps(new, grid, prob.domain)
        report.c0_gaps.append(c0)
        report.c1_gaps.append(c1)
        if len(report.c1_gaps) > 1 and report.c1_gaps[-2] > 0:
            report.ratios.append(report.c1_gaps[-1] / report.c1_gaps[-2])
        report.iterations = n
        report.last_coupling = cc
        grid = new
        if c1 <= fp_tol:
            report.converged = True
            break
    else:
        raise SolverError(
            f"no-convergence: fixed point did not reach fp_tol={fp_tol:.1e} "
            f"within {max_fp_iters} iterations (last C1 gap {report.c1_gaps[-1]:.3e})",
            report=report,
        )
    report.residuals = residual_check(grid, prob)
    return grid, report


# ---------------------------------------------------------------------------
# Nonlinear residual


@dataclass(frozen=True)
class ResidualReport:
    sup_interior: float
    interior_abs: dict
    wall_slip_max: float
    contact_w_jump: float
    contact_p_jump: float


def residual_check(grid: InvariantGrid, prob: MocProblem) -> ResidualReport:
    """Upwind finite-difference residual of the nonlinear transport operators
    evaluated with the grid's own (self-consistent) speeds, plus pointwise
    wall and contact condition checks."""
    st = grid_states(grid, prob)
    dom = prob.domain
    frozen = frozen_lambdas(grid, prob)
    sup = 0.0
    interior = {}
    for tag, zm, zp, lam_p, lam_m, deta in (
        ("a", grid.zm_a, grid.zp_a, frozen.lam_p_a, frozen.lam_m_a, dom.deta_a),
        ("b", grid.zm_b, grid.zp_b, frozen.lam_p_b, frozen.lam_m_b, dom.deta_b),
    ):
        dxi = dom.dxi
        for z, lam, fam in ((zm, lam_p, "-"), (zp, lam_m, "+")):
            dz_xi = (z[1:, 1:-1] - z[:-1, 1:-1]) / dxi
            lam_in = lam[1:, 1:-1]
            back = (z[1:, 1:-1] - z[1:, :-2]) / deta
            fwd = (z[1:, 2:] - z[1:, 1:-1]) / deta
            dz_eta = np.where(lam_in >= 0.0, back, fwd)
            res = np.abs(dz_xi + lam_in * dz_eta)
            interior[f"{tag}{fam}"] = res
            sup = max(sup, float(res.max()))
    w_a = gas.flow_angle(gas.InvariantPair(grid.zm_a, grid.zp_a))
    w_b = gas.flow_angle(gas.InvariantPair(grid.zm_b, grid.zp_b))
    wall_slip = max(
        float(np.max(np.abs(w_a[:, -1] - np.tan(prob.wall_angle_plus)))),
        float(np.max(np.abs(w_b[:, 0] - np.tan(prob.wall_angle_minus)))),
    )
    return ResidualReport(
        sup_interior=sup,
        interior_abs=interior,
        wall_slip_max=wall_slip,
        contact_w_jump=float(np.max(np.abs(w_a[:, 0] - w_b[:, -1]))),
        contact_p_jump=float(np.max(np.abs(st["a"].p[:, 0] - st["b"].p[:, -1]))),
    )


# ---------------------------------------------------------------------------
# CSV output


def write_iteration_csv(report: IterationReport, path):
    iters = range(1, report.iterations + 1)
    write_csv(path, ("iter", "c0_gap", "c1_gap", "ratio"),
              (iters, report.c0_gaps, report.c1_gaps, [float("nan")] + report.ratios))


def write_grid_csv(grid: InvariantGrid, path):
    dom = grid.domain
    parts = []
    for tag, zm, zp, eta in (("a", grid.zm_a, grid.zp_a, dom.eta_a),
                             ("b", grid.zm_b, grid.zp_b, dom.eta_b)):
        shape = zm.shape
        parts.append((np.broadcast_to(dom.xi[:, None], shape), np.broadcast_to(eta, shape),
                      np.full(shape, tag), zm, zp))
    write_csv(path, ("xi", "eta", "layer", "z_minus", "z_plus"),
              [np.concatenate(pair, axis=None) for pair in zip(*parts)])
