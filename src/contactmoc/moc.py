"""Fixed-point solver for the diagonalized two-layer boundary value problem.

The nonlinear system transports z_minus along the fast family
(d eta / d xi = lambda_plus) and z_plus along the slow family, with three
closures: inlet data at xi = 0, wall reflection z_minus + z_plus =
2 arctan g' at the nozzle walls, and a two-sided coupling at the contact row
eta = 0 that enforces continuity of flow angle and pressure.

Each outer iteration freezes the characteristic speeds on the previous
iterate and solves the resulting linear transport problem exactly in the
semi-Lagrangian sense: every invariant is constant along its own frozen
characteristic, so one backward trace plus clipped cubic interpolation per
node advances a xi-slab.  The contact closure linearizes the pressure match
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
import warnings
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

    ``a0_*`` / ``b0_*`` are the stream tables evaluated once on each layer's
    eta lattice.
    """

    g: gas.GasConstants
    domain: LagrangianDomain
    geom: NozzleGeometry
    sd_a: gas.StreamTable
    sd_b: gas.StreamTable
    inlet_z_a: gas.InvariantPair
    inlet_z_b: gas.InvariantPair
    zbar_a: tuple
    zbar_b: tuple
    wall_angle_plus: np.ndarray
    wall_angle_minus: np.ndarray
    a0_a: np.ndarray
    b0_a: np.ndarray
    a0_b: np.ndarray
    b0_b: np.ndarray
    newton_tol: float = 1e-12
    max_newton_iters: int = 50
    min_supersonic_margin: float = 1e-3


def build_problem(cfg: RunConfig, geom: NozzleGeometry, trace_a: InletTrace,
                  trace_b: InletTrace, sd_a: gas.StreamTable, sd_b: gas.StreamTable,
                  domain: LagrangianDomain) -> MocProblem:
    """Assemble the per-run problem data from the Lagrangian inlet traces."""
    g = cfg.gas_constants
    bg_a, bg_b = cfg.background.states()

    def inlet_invariants(trace, table):
        state = gas.PrimitiveState(u=trace.u, v=trace.v, p=trace.p, rho=trace.rho)
        return gas.invariants_from_state(state, table.at(trace.eta), g)

    z0_a = inlet_invariants(trace_a, sd_a)
    z0_b = inlet_invariants(trace_b, sd_b)

    def background_invariants(st):
        sd = gas.StreamData(gas.entropy_function(st, g), gas.bernoulli(st, g), sd_a.p_ref)
        z = gas.invariants_from_state(st, sd, g)
        return (float(z.z_minus), float(z.z_plus))

    zbar_a = background_invariants(bg_a)
    zbar_b = background_invariants(bg_b)

    xi = domain.xi
    nodes_a = sd_a.at(domain.eta_a)
    nodes_b = sd_b.at(domain.eta_b)
    prob = MocProblem(
        g=g,
        domain=domain,
        geom=geom,
        sd_a=sd_a,
        sd_b=sd_b,
        inlet_z_a=z0_a,
        inlet_z_b=z0_b,
        zbar_a=zbar_a,
        zbar_b=zbar_b,
        wall_angle_plus=np.arctan(geom.g_plus(xi, 1)),
        wall_angle_minus=np.arctan(geom.g_minus(xi, 1)),
        a0_a=nodes_a.a0,
        b0_a=nodes_a.b0,
        a0_b=nodes_b.a0,
        b0_b=nodes_b.b0,
        newton_tol=cfg.newton_tol,
        max_newton_iters=cfg.max_newton_iters,
        min_supersonic_margin=cfg.min_supersonic_margin,
    )
    check_cfl(prob)
    return prob


def check_cfl(prob: MocProblem):
    """Reject a lattice whose xi step breaks max|lambda| dxi <= deta.

    The first outer iteration freezes the speeds on the background
    invariants, so this is the bound ``_check_feet`` enforces when that
    iteration marches; checking it here rejects the lattice before any march
    starts.  Raises a ``cfl`` SolverError naming the smallest valid nxi.
    """
    dom = prob.domain
    frozen = frozen_lambdas(InvariantGrid.background(prob, nxi=1), prob)
    violated = []
    nxi_min = 0
    for tag, eta, lams in (("a", dom.eta_a, (frozen.lam_m_a, frozen.lam_p_a)),
                           ("b", dom.eta_b, (frozen.lam_m_b, frozen.lam_p_b))):
        lam = max(float(np.max(np.abs(x))) for x in lams)
        deta = eta[1] - eta[0]
        bound = deta + 1e-9 * (eta[-1] - eta[0])  # the fuzz of _check_feet
        if lam * dom.dxi > bound:
            ratio = lam * dom.dxi / deta
            violated.append(f"max|lambda| dxi / deta = {ratio:.4g} > 1 in layer {tag}")
        nxi_min = max(nxi_min, 1 + math.ceil(dom.L * lam / bound))
    if violated:
        raise SolverError(f"cfl: {'; '.join(violated)} at nxi = {dom.xi.size}; "
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


def _layer_states(zm, zp, a0, b0, prob, hint=None):
    if not np.all(np.abs(zm + zp) < np.pi):
        raise SolverError("left-supersonic-regime: |z_minus + z_plus| reached pi")
    w = np.tan(0.5 * (zm + zp))
    z = gas.InvariantPair(zm, zp)
    sd = gas.StreamData(np.broadcast_to(a0, zm.shape), np.broadcast_to(b0, zm.shape), prob.sd_a.p_ref)
    p = gas.pressure_from_invariants(z, sd, prob.g, newton_tol=prob.newton_tol,
                                     max_newton_iters=prob.max_newton_iters, p_init=hint)
    u, v = gas.velocity_from_bernoulli(w, p, sd, prob.g)
    rho = gas.density_from_pressure(p, sd, prob.g)
    return {"w": w, "p": p, "u": u, "v": v, "rho": rho}


def grid_states(grid: InvariantGrid, prob: MocProblem, hint=None):
    """Primitive fields implied by the grid (cached on the grid)."""
    if grid._states is None:
        ha = hint["a"] if hint else None
        hb = hint["b"] if hint else None
        sa = _layer_states(grid.zm_a, grid.zp_a, prob.a0_a[None, :], prob.b0_a[None, :], prob, ha)
        sb = _layer_states(grid.zm_b, grid.zp_b, prob.a0_b[None, :], prob.b0_b[None, :], prob, hb)
        grid._states = {"a": sa, "b": sb}
    return grid._states


def check_supersonic_margin(grid: InvariantGrid, prob: MocProblem):
    """Enforce u - c >= min_supersonic_margin at every node."""
    st = grid_states(grid, prob)
    for tag in ("a", "b"):
        s = st[tag]
        c = np.sqrt(prob.g.gamma * s["p"] / s["rho"])
        worst = float(np.min(s["u"] - c))
        if worst < prob.min_supersonic_margin:
            raise SolverError(
                f"left-supersonic-regime: min(u - c) = {worst:.3e} fell below "
                f"margin {prob.min_supersonic_margin:.3e} in layer {tag}"
            )


def primitive_fields(grid: InvariantGrid, prob: MocProblem):
    """Fields dict consumed by lagrangian.reconstruct."""
    st = grid_states(grid, prob)
    return {
        tag: {"u": s["u"], "v": s["v"], "p": s["p"], "rho": s["rho"]}
        for tag, s in st.items()
    }


# ---------------------------------------------------------------------------
# Frozen coefficients


@dataclass(frozen=True)
class FrozenField:
    """Characteristic speeds evaluated on a previous iterate."""

    lam_m_a: np.ndarray
    lam_p_a: np.ndarray
    lam_m_b: np.ndarray
    lam_p_b: np.ndarray

    def __post_init__(self):
        for lam_m, lam_p in ((self.lam_m_a, self.lam_p_a), (self.lam_m_b, self.lam_p_b)):
            if not np.all(np.isfinite(lam_m)) or not np.all(np.isfinite(lam_p)):
                raise SolverError("degenerate: frozen characteristic speed not finite")
            if not np.all(lam_m < lam_p):
                raise SolverError("degenerate: frozen speeds must satisfy lambda_- < lambda_+")


def frozen_lambdas(grid: InvariantGrid, prob: MocProblem, hint=None) -> FrozenField:
    """Invert each node to primitives and evaluate both characteristic speeds."""
    st = grid_states(grid, prob, hint)
    lams = {}
    for tag in ("a", "b"):
        s = st[tag]
        try:
            state = gas.PrimitiveState(u=s["u"], v=s["v"], p=s["p"], rho=s["rho"])
            lam_m, lam_p = gas.lambda_pm(state, prob.g)
        except gas.GasError as exc:
            raise SolverError(f"left-supersonic-regime: {exc} (layer {tag})") from None
        lams[tag] = (lam_m, lam_p)
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


def _averaged_dtheta(p_prev, p_bg, a0, b0, prob):
    """int_0^1 dTheta/dp(p_bg + tau (p_prev - p_bg)) dtau by 16-point Gauss."""
    tau = _GL_X[:, None]
    path = p_bg + tau * (p_prev[None, :] - p_bg)
    sd = gas.StreamData(a0, b0, prob.sd_a.p_ref)
    vals = gas.dtheta_dp(path, sd, prob.g)
    return _GL_W @ vals


def coupling_coefficients(prev: InvariantGrid, prob: MocProblem) -> CouplingCoefficients:
    """Contact-closure coefficients from the previous iterate's contact row."""
    st = grid_states(prev, prob)
    p_a = st["a"]["p"][:, 0]
    p_b = st["b"]["p"][:, -1]
    sd_a0 = prob.sd_a.at(0.0)
    sd_b0 = prob.sd_b.at(0.0)
    p_bg = prob.sd_a.p_ref
    try:
        bar_a = _averaged_dtheta(p_a, p_bg, sd_a0.a0, sd_a0.b0, prob)
        bar_b = _averaged_dtheta(p_b, p_bg, sd_b0.a0, sd_b0.b0, prob)
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
# Characteristic tracing


@dataclass
class CharacteristicPath:
    """Polyline of one traced frozen characteristic."""

    xi: np.ndarray
    eta: np.ndarray
    layer: str
    family: str
    foot: float
    event: str  # "end", "wall" or "contact"


def _lam_field(frozen: FrozenField, layer, family):
    return getattr(frozen, f"lam_{'p' if family == '+' else 'm'}_{layer}")


def trace_characteristic(frozen: FrozenField, domain: LagrangianDomain, layer, family,
                         start, direction=1, max_steps=None) -> CharacteristicPath:
    """Integrate d eta / d xi = frozen lambda from a lattice abscissa.

    Midpoint rule with linear interpolation of the frozen field; stops at the
    requested number of xi-steps, the domain end, or the first wall/contact
    crossing (the crossing abscissa is located by linear interpolation inside
    the step and recorded as the final point).
    """
    lam = _lam_field(frozen, layer, family)
    eta_nodes = domain.eta_a if layer == "a" else domain.eta_b
    lo, hi = eta_nodes[0], eta_nodes[-1]
    xi = domain.xi
    dxi = domain.dxi * direction

    k = int(round((start[0] - xi[0]) / domain.dxi))
    if abs(xi[k] - start[0]) > 1e-9 * domain.dxi + 1e-300:
        raise SolverError("internal error: characteristic start must sit on the xi lattice")
    eta = float(start[1])
    path_xi = [xi[k]]
    path_eta = [eta]
    event = "end"
    n = 0
    while 0 <= k + direction < xi.size:
        if max_steps is not None and n >= max_steps:
            break
        lam_here = np.interp(eta, eta_nodes, lam[k])
        eta_mid = np.clip(eta + 0.5 * dxi * lam_here, lo, hi)
        lam_mid = 0.5 * (
            np.interp(eta_mid, eta_nodes, lam[k])
            + np.interp(eta_mid, eta_nodes, lam[k + direction])
        )
        eta_new = eta + dxi * lam_mid
        if eta_new > hi or eta_new < lo:
            bound = hi if eta_new > hi else lo
            frac = (bound - eta) / (eta_new - eta)
            path_xi.append(path_xi[-1] + frac * dxi)
            path_eta.append(bound)
            if layer == "a":
                event = "wall" if bound == hi else "contact"
            else:
                event = "wall" if bound == lo else "contact"
            break
        k += direction
        n += 1
        eta = float(eta_new)
        path_xi.append(xi[k])
        path_eta.append(eta)
    xi_arr = np.asarray(path_xi)
    eta_arr = np.asarray(path_eta)
    if direction < 0:
        xi_arr = xi_arr[::-1]
        eta_arr = eta_arr[::-1]
    return CharacteristicPath(xi=xi_arr, eta=eta_arr, layer=layer, family=family,
                              foot=float(start[1]), event=event)


# ---------------------------------------------------------------------------
# Linearized march


def _advect_slab(eta, z_old, lam_old, lam_new, dxi):
    """Backward-trace one step and interpolate z from the old slab.

    Returns the traced values and the foot points; callers overwrite the one
    boundary row whose foot leaves the layer with the closure value.
    """
    mid = np.clip(eta - 0.5 * dxi * lam_new, eta[0], eta[-1])
    lam_mid = 0.5 * (np.interp(mid, eta, lam_old) + np.interp(mid, eta, lam_new))
    feet = eta - dxi * lam_mid
    h = eta[1] - eta[0]
    vals = interp.cubic_clipped(eta[0], h, z_old, np.clip(feet, eta[0], eta[-1]))
    return vals, feet


def _check_feet(feet, eta, skip_first, skip_last, where):
    fuzz = 1e-9 * (eta[-1] - eta[0])
    sl = slice(1 if skip_first else 0, -1 if skip_last else None)
    inside = (feet[sl] >= eta[0] - fuzz) & (feet[sl] <= eta[-1] + fuzz)
    if not np.all(inside):
        raise SolverError(f"internal error: characteristic foot outside slab ({where}); "
                          "xi step violates the CFL-like bound")


def step_linearized(prob: MocProblem, frozen: FrozenField, cc: CouplingCoefficients,
                    k, zm_a, zp_a, zm_b, zp_b):
    """Advance all four invariant slabs from xi_k to xi_{k+1}.

    Interior and incoming-boundary nodes are traced; the outgoing rows are
    assigned afterwards: wall reflection at eta = +-m, the two-sided coupling
    at the contact.
    """
    dom = prob.domain
    dxi = dom.dxi
    ea, eb = dom.eta_a, dom.eta_b

    zm_a_new, feet = _advect_slab(ea, zm_a, frozen.lam_p_a[k], frozen.lam_p_a[k + 1], dxi)
    _check_feet(feet, ea, skip_first=True, skip_last=False, where=f"layer a, z-, k={k}")
    zp_a_new, feet = _advect_slab(ea, zp_a, frozen.lam_m_a[k], frozen.lam_m_a[k + 1], dxi)
    _check_feet(feet, ea, skip_first=False, skip_last=True, where=f"layer a, z+, k={k}")
    zm_b_new, feet = _advect_slab(eb, zm_b, frozen.lam_p_b[k], frozen.lam_p_b[k + 1], dxi)
    _check_feet(feet, eb, skip_first=True, skip_last=False, where=f"layer b, z-, k={k}")
    zp_b_new, feet = _advect_slab(eb, zp_b, frozen.lam_m_b[k], frozen.lam_m_b[k + 1], dxi)
    _check_feet(feet, eb, skip_first=False, skip_last=True, where=f"layer b, z+, k={k}")

    # Wall reflections: the outgoing family balances the traced incoming one.
    zp_a_new[-1] = 2.0 * prob.wall_angle_plus[k + 1] - zm_a_new[-1]
    zm_b_new[0] = 2.0 * prob.wall_angle_minus[k + 1] - zp_b_new[0]

    # Contact coupling: incoming are z+ from above and z- from below.
    d_in_a = zp_a_new[0] - prob.zbar_a[1]
    d_in_b = zm_b_new[-1] - prob.zbar_b[0]
    g1, g2, g3 = cc.gamma1[k + 1], cc.gamma2[k + 1], cc.gamma3[k + 1]
    zm_a_new[0] = prob.zbar_a[0] + g1 * d_in_a + g3 * d_in_b
    zp_b_new[-1] = prob.zbar_b[1] + g2 * d_in_a - g1 * d_in_b

    return zm_a_new, zp_a_new, zm_b_new, zp_b_new


def solve_linearized(prev: InvariantGrid, prob: MocProblem):
    """One application of the iteration map: freeze speeds on ``prev`` and
    march the linear transport problem from the inlet to xi = L.

    Returns (InvariantGrid, FrozenField, CouplingCoefficients): the new
    iterate and the coefficients frozen on ``prev`` that produced it.
    """
    frozen = frozen_lambdas(prev, prob)
    cc = coupling_coefficients(prev, prob)

    dom = prob.domain
    max_lam = max(float(np.max(np.abs(f))) for f in
                  (frozen.lam_m_a, frozen.lam_p_a, frozen.lam_m_b, frozen.lam_p_b))
    span = min(dom.m_a, dom.m_b)
    if max_lam * dom.dxi > span:
        warnings.warn("xi step exceeds the layer mass width at the frozen speeds; "
                      "feet may leave the slab", RuntimeWarning, stacklevel=2)

    nxi = dom.xi.size
    zm_a = np.empty((nxi, dom.eta_a.size))
    zp_a = np.empty_like(zm_a)
    zm_b = np.empty((nxi, dom.eta_b.size))
    zp_b = np.empty_like(zm_b)
    zm_a[0] = np.asarray(prob.inlet_z_a.z_minus)
    zp_a[0] = np.asarray(prob.inlet_z_a.z_plus)
    zm_b[0] = np.asarray(prob.inlet_z_b.z_minus)
    zp_b[0] = np.asarray(prob.inlet_z_b.z_plus)
    for k in range(nxi - 1):
        zm_a[k + 1], zp_a[k + 1], zm_b[k + 1], zp_b[k + 1] = step_linearized(
            prob, frozen, cc, k, zm_a[k], zp_a[k], zm_b[k], zp_b[k]
        )
    return InvariantGrid(dom, zm_a, zp_a, zm_b, zp_b), frozen, cc


# ---------------------------------------------------------------------------
# Fixed point


@dataclass
class IterationReport:
    """Per-iteration convergence diagnostics of the outer fixed point."""

    c0_gaps: list = field(default_factory=list)
    c1_gaps: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    xi1_a_plus: list = field(default_factory=list)
    xi1_b_minus: list = field(default_factory=list)
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


def _wall_hits(frozen: FrozenField, dom: LagrangianDomain):
    hit_a = trace_characteristic(frozen, dom, "a", "+", (0.0, 0.0))
    hit_b = trace_characteristic(frozen, dom, "b", "-", (0.0, 0.0))
    xa = float(hit_a.xi[-1]) if hit_a.event == "wall" else float("nan")
    xb = float(hit_b.xi[-1]) if hit_b.event == "wall" else float("nan")
    return xa, xb


def fixed_point(prob: MocProblem, fp_tol=1e-10, max_fp_iters=60):
    """Iterate the linearized solve from the background until the discrete-C1
    gap between successive iterates drops below fp_tol.

    Returns (InvariantGrid, IterationReport).  Raises SolverError
    ("no-convergence", report attached) after max_fp_iters, and
    ("left-supersonic-regime") if an iterate violates the margin.
    """
    report = IterationReport()
    grid = InvariantGrid.background(prob)
    check_supersonic_margin(grid, prob)
    for n in range(1, max_fp_iters + 1):
        new, frozen, cc = solve_linearized(grid, prob)
        st_prev = grid_states(grid, prob)
        try:
            # Warm-start the new iterate's pressure inversion from the
            # previous iterate before the margin check touches it.
            grid_states(new, prob, hint={"a": st_prev["a"]["p"], "b": st_prev["b"]["p"]})
            check_supersonic_margin(new, prob)
        except SolverError as exc:
            raise SolverError(str(exc), report=report) from None
        c0, c1 = _gaps(new, grid, prob.domain)
        report.c0_gaps.append(c0)
        report.c1_gaps.append(c1)
        if len(report.c1_gaps) > 1 and report.c1_gaps[-2] > 0:
            report.ratios.append(report.c1_gaps[-1] / report.c1_gaps[-2])
        xa, xb = _wall_hits(frozen, prob.domain)
        report.xi1_a_plus.append(xa)
        report.xi1_b_minus.append(xb)
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
    mean_interior: float
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
    total = 0.0
    count = 0
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
            total += float(res.sum())
            count += res.size
    w_a = st["a"]["w"]
    w_b = st["b"]["w"]
    wall_slip = max(
        float(np.max(np.abs(w_a[:, -1] - np.tan(prob.wall_angle_plus)))),
        float(np.max(np.abs(w_b[:, 0] - np.tan(prob.wall_angle_minus)))),
    )
    return ResidualReport(
        sup_interior=sup,
        mean_interior=total / max(count, 1),
        interior_abs=interior,
        wall_slip_max=wall_slip,
        contact_w_jump=float(np.max(np.abs(w_a[:, 0] - w_b[:, -1]))),
        contact_p_jump=float(np.max(np.abs(st["a"]["p"][:, 0] - st["b"]["p"][:, -1]))),
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
