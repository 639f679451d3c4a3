"""Stream-function (Lagrangian) transform, its inverse, and field output.

The map (x, y) -> (xi, eta) uses xi = x and eta = cumulative mass flux
measured from the contact streamline, so the two layers occupy the fixed
strips eta in [0, m_a] and [-m_b, 0] and the contact is the lattice line
eta = 0.  The inverse map integrates 1/(rho u) back up each xi-column and
recovers the contact position as the image of eta = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from . import gas
from .config import InletProfile, NozzleGeometry
from .csvout import write_csv


class TransformError(RuntimeError):
    """Lagrangian transform or reconstruction left its admissible domain."""


@dataclass(frozen=True)
class MassFluxes:
    """Inlet mass fluxes above (m_a) and below (m_b) the contact."""

    m_a: float
    m_b: float

    def __post_init__(self):
        if not (self.m_a > 0 and self.m_b > 0):
            raise TransformError("mass fluxes must be positive")


def mass_fluxes(profile: InletProfile) -> MassFluxes:
    """Integrate rho0*u0 across each inlet layer.

    The integral is taken of the layer's monotone-cubic interpolant itself
    (exact antiderivative), matching the interpolation order used everywhere
    else.
    """
    la, lb = profile.layer_a, profile.layer_b
    anti_a = PchipInterpolator(la.y, la.rho * la.u).antiderivative()
    anti_b = PchipInterpolator(lb.y, lb.rho * lb.u).antiderivative()
    m_a = float(anti_a(la.y[-1]) - anti_a(la.y[0]))
    m_b = float(anti_b(lb.y[-1]) - anti_b(lb.y[0]))
    return MassFluxes(m_a=m_a, m_b=m_b)


@dataclass(frozen=True)
class LagrangianDomain:
    """Fixed rectangular lattice: xi on [0, L], eta per layer, contact at eta = 0."""

    L: float
    m_a: float
    m_b: float
    xi: np.ndarray
    eta_a: np.ndarray
    eta_b: np.ndarray

    @classmethod
    def build(cls, L, flux: MassFluxes, nxi, neta_a, neta_b):
        xi = np.linspace(0.0, L, nxi)
        eta_a = np.linspace(0.0, flux.m_a, neta_a)
        eta_b = np.linspace(-flux.m_b, 0.0, neta_b)
        assert eta_a[0] == 0.0 and eta_b[-1] == 0.0
        return cls(L=L, m_a=flux.m_a, m_b=flux.m_b, xi=xi, eta_a=eta_a, eta_b=eta_b)

    @property
    def dxi(self):
        return self.xi[1] - self.xi[0]

    @property
    def deta_a(self):
        return self.eta_a[1] - self.eta_a[0]

    @property
    def deta_b(self):
        return self.eta_b[1] - self.eta_b[0]


@dataclass(frozen=True)
class InletTrace:
    """Inlet data resampled onto one layer's eta lattice."""

    eta: np.ndarray
    y: np.ndarray
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    rho: np.ndarray


def _invert_mass_coordinate(layer, base_y, targets):
    """Solve F(y) = target for each target, F the cumulative mass flux from base_y."""
    flux = PchipInterpolator(layer.y, layer.rho * layer.u)
    anti = flux.antiderivative()
    base = anti(base_y)

    lo = np.full_like(targets, layer.y[0])
    hi = np.full_like(targets, layer.y[-1])
    y = np.clip(base_y + targets / float(flux(base_y)), lo, hi)
    for _ in range(100):
        resid = (anti(y) - base) - targets
        if np.all(np.abs(resid) <= 1e-14 * max(abs(targets[0]), abs(targets[-1]), 1.0)):
            break
        above = resid > 0
        hi = np.where(above & (y < hi), y, hi)
        lo = np.where(~above & (y > lo), y, lo)
        step = -resid / flux(y)
        y_new = y + step
        bad = (y_new < lo) | (y_new > hi) | ~np.isfinite(y_new)
        y_new = np.where(bad, 0.5 * (lo + hi), y_new)
        y = y_new
    else:
        raise TransformError("internal error: mass-coordinate inversion did not converge")
    return y


def inlet_to_lagrangian(profile: InletProfile, flux: MassFluxes, domain: LagrangianDomain):
    """Resample the inlet onto the eta lattices; endpoints map exactly.

    Layer a solves int_0^y rho0 u0 = eta, layer b solves
    int_{g_-(0)}^y rho0 u0 - m_b = eta.
    """
    la, lb = profile.layer_a, profile.layer_b

    y_a = _invert_mass_coordinate(la, 0.0, domain.eta_a.copy())
    y_a[0] = 0.0
    y_a[-1] = la.y[-1]
    u, v, p, rho = la.eval(y_a)
    trace_a = InletTrace(eta=domain.eta_a, y=y_a, u=u, v=v, p=p, rho=rho)

    y_b = _invert_mass_coordinate(lb, lb.y[0], domain.eta_b + flux.m_b)
    y_b[0] = lb.y[0]
    y_b[-1] = 0.0
    u, v, p, rho = lb.eval(y_b)
    trace_b = InletTrace(eta=domain.eta_b, y=y_b, u=u, v=v, p=p, rho=rho)
    return trace_a, trace_b


def stream_data_from_inlet(trace: InletTrace, g: gas.GasConstants, p_ref) -> gas.StreamTable:
    """Entropy function and Bernoulli constant per streamline of one layer."""
    state = gas.PrimitiveState(u=trace.u, v=trace.v, p=trace.p, rho=trace.rho)
    a0 = gas.entropy_function(state, g)
    b0 = gas.bernoulli(state, g)
    try:
        return gas.StreamTable(trace.eta, a0, b0, p_ref, g)
    except gas.GasError as exc:
        worst = int(np.argmin(b0))
        raise gas.GasError(f"{exc} (first offending eta ~ {trace.eta[worst]:.6g})") from None


# ---------------------------------------------------------------------------
# Inverse transform


def cumulative_simpson(f, h, axis=-1):
    """Cumulative integral along ``axis`` with local-parabola (Simpson) weights.

    Exact for quadratics; the j=0 panel uses the forward three-point rule.
    """
    f = np.moveaxis(np.asarray(f, dtype=float), axis, -1)
    n = f.shape[-1]
    if n < 3:
        raise TransformError("cumulative Simpson needs at least 3 nodes")
    inc = np.empty(f.shape[:-1] + (n - 1,))
    inc[..., 0] = h / 12.0 * (5.0 * f[..., 0] + 8.0 * f[..., 1] - f[..., 2])
    inc[..., 1:] = h / 12.0 * (-f[..., :-2] + 8.0 * f[..., 1:-1] + 5.0 * f[..., 2:])
    out = np.zeros_like(f)
    np.cumsum(inc, axis=-1, out=out[..., 1:])
    return np.moveaxis(out, -1, axis)


@dataclass(frozen=True)
class ContactCurve:
    """Reconstructed contact position g_cd(x) and slope samples."""

    x: np.ndarray
    g_cd: np.ndarray
    d_g_cd: np.ndarray


@dataclass(frozen=True)
class LayerField:
    """One layer of the mapped solution in physical coordinates."""

    y: np.ndarray  # (nxi, neta)
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    rho: np.ndarray


@dataclass(frozen=True)
class EulerianField:
    x: np.ndarray
    layer_a: LayerField
    layer_b: LayerField
    contact: ContactCurve
    top_gap: float  # sup |y(xi, m_a) - g_plus(xi)|, a conservation diagnostic


def reconstruct(fields, geom: NozzleGeometry, domain: LagrangianDomain) -> EulerianField:
    """Invert the stream-function map column by column.

    ``fields`` maps layer tag -> dict(u=..., v=..., p=..., rho=...) with
    arrays shaped (nxi, neta).  y(xi, eta) integrates 1/(rho u) from the
    lower wall with composite Simpson; the contact curve is the image of
    eta = 0 and the upper-wall mismatch is reported, not enforced.
    """
    xi = domain.xi
    fa, fb = fields["a"], fields["b"]
    for tag, f in (("a", fa), ("b", fb)):
        if not np.all(f["rho"] * f["u"] > 0.0):
            raise TransformError(f"jacobian-degenerate: rho*u <= 0 in layer {tag}")

    inv_b = 1.0 / (fb["rho"] * fb["u"])
    y_b = geom.g_minus(xi)[:, None] + cumulative_simpson(inv_b, domain.deta_b, axis=1)
    g_cd = y_b[:, -1].copy()

    inv_a = 1.0 / (fa["rho"] * fa["u"])
    y_a = g_cd[:, None] + cumulative_simpson(inv_a, domain.deta_a, axis=1)
    top_gap = float(np.max(np.abs(y_a[:, -1] - geom.g_plus(xi))))

    if not (np.all(np.diff(y_b, axis=1) > 0) and np.all(np.diff(y_a, axis=1) > 0)):
        raise TransformError("layer ordering violated: reconstructed y is not increasing in eta")

    w_cd = 0.5 * (fa["v"][:, 0] / fa["u"][:, 0] + fb["v"][:, -1] / fb["u"][:, -1])
    contact = ContactCurve(x=xi.copy(), g_cd=g_cd, d_g_cd=w_cd)
    return EulerianField(
        x=xi.copy(),
        layer_a=LayerField(y=y_a, u=fa["u"], v=fa["v"], p=fa["p"], rho=fa["rho"]),
        layer_b=LayerField(y=y_b, u=fb["u"], v=fb["v"], p=fb["p"], rho=fb["rho"]),
        contact=contact,
        top_gap=top_gap,
    )


# ---------------------------------------------------------------------------
# Conservation diagnostics


def _flux_vectors(layer: LayerField, gamma):
    u, v, p, rho = layer.u, layer.v, layer.p, layer.rho
    E = 0.5 * (u * u + v * v) + p / ((gamma - 1.0) * rho)
    total = rho * E + p
    W = np.stack([rho * u, rho * u * u + p, rho * u * v, total * u])
    H = np.stack([rho * v, rho * u * v, rho * v * v + p, total * v])
    return W, H


@dataclass(frozen=True)
class WeakResidualReport:
    max_residual: float
    mean_residual: float
    component_max: np.ndarray  # per conserved component
    contact_pressure_jump: float
    contact_mass_flux: float  # sup |rho u (g'_cd - w)| over both sides
    contact_mass_flux_jump: float


def weak_residual(field: EulerianField, g: gas.GasConstants) -> WeakResidualReport:
    """Discrete control-volume flux divergence of the mapped mesh.

    Every quadrilateral cell lies inside one layer (no cell straddles the
    contact); edge fluxes use the trapezoid rule, and the residual is the
    closed contour integral of (W dy - H dx) normalized by cell area.
    Across the contact only the jump conditions are checked: pressure
    continuity and the normal mass flux.
    """
    per_comp = []
    all_res = []
    for layer in (field.layer_a, field.layer_b):
        W, H = _flux_vectors(layer, g.gamma)
        x = np.broadcast_to(field.x[:, None], layer.y.shape)
        y = layer.y

        def edge(px, py, qx, qy, Wp, Wq, Hp, Hq):
            return 0.5 * (Wp + Wq) * (qy - py) - 0.5 * (Hp + Hq) * (qx - px)

        # corners: 1=(k,j) 2=(k+1,j) 3=(k+1,j+1) 4=(k,j+1), counterclockwise
        x1, y1 = x[:-1, :-1], y[:-1, :-1]
        x2, y2 = x[1:, :-1], y[1:, :-1]
        x3, y3 = x[1:, 1:], y[1:, 1:]
        x4, y4 = x[:-1, 1:], y[:-1, 1:]
        W1, H1 = W[:, :-1, :-1], H[:, :-1, :-1]
        W2, H2 = W[:, 1:, :-1], H[:, 1:, :-1]
        W3, H3 = W[:, 1:, 1:], H[:, 1:, 1:]
        W4, H4 = W[:, :-1, 1:], H[:, :-1, 1:]
        resid = (
            edge(x1, y1, x2, y2, W1, W2, H1, H2)
            + edge(x2, y2, x3, y3, W2, W3, H2, H3)
            + edge(x3, y3, x4, y4, W3, W4, H3, H4)
            + edge(x4, y4, x1, y1, W4, W1, H4, H1)
        )
        area = 0.5 * np.abs(
            (x1 - x3) * (y2 - y4) - (x2 - x4) * (y1 - y3)
        )
        rel = np.abs(resid) / area
        per_comp.append(rel.reshape(4, -1).max(axis=1))
        all_res.append(rel.ravel())

    comp_max = np.maximum(per_comp[0], per_comp[1])
    flat = np.concatenate(all_res)

    la, lb = field.layer_a, field.layer_b
    slope = field.contact.d_g_cd
    p_jump = float(np.max(np.abs(la.p[:, 0] - lb.p[:, -1])))
    mdot_a = la.rho[:, 0] * la.u[:, 0] * (slope - la.v[:, 0] / la.u[:, 0])
    mdot_b = lb.rho[:, -1] * lb.u[:, -1] * (slope - lb.v[:, -1] / lb.u[:, -1])
    return WeakResidualReport(
        max_residual=float(flat.max()),
        mean_residual=float(flat.mean()),
        component_max=comp_max,
        contact_pressure_jump=p_jump,
        contact_mass_flux=float(max(np.max(np.abs(mdot_a)), np.max(np.abs(mdot_b)))),
        contact_mass_flux_jump=float(np.max(np.abs(mdot_a - mdot_b))),
    )


def cross_section_mass_flux(field: EulerianField, domain: LagrangianDomain):
    """Integral of rho u dy over each reconstructed column (should be m_a + m_b)."""
    out = np.zeros(field.x.size)
    for layer, h in ((field.layer_b, domain.deta_b), (field.layer_a, domain.deta_a)):
        f = layer.rho * layer.u
        dy = np.diff(layer.y, axis=1)
        out += np.sum(0.5 * (f[:, 1:] + f[:, :-1]) * dy, axis=1)
    return out


def streamline_conservation(field: EulerianField, g: gas.GasConstants, lines_per_layer=7):
    """Trace streamlines through the reconstructed field and measure how well
    the entropy function and Bernoulli constant hold along them.

    Independent of the solver path: a midpoint integrator follows
    dy/dx = (v/u)(x, y) with per-column linear interpolation in y, and the
    A, B node fields are sampled the same way along the traced curve.
    Returns the sup deviation over all traced lines.
    """
    x = field.x
    dev = 0.0
    for layer in (field.layer_a, field.layer_b):
        neta = layer.y.shape[1]
        idx = np.linspace(1, neta - 2, lines_per_layer).round().astype(int)
        w = layer.v / layer.u
        A = layer.p / layer.rho**g.gamma
        B = 0.5 * (layer.u**2 + layer.v**2) + g.gamma * layer.p / ((g.gamma - 1.0) * layer.rho)

        def col_interp(fcol, k, yq):
            return np.interp(yq, layer.y[k], fcol[k])

        ys = layer.y[0, idx].copy()
        a_ref = A[0, idx].copy()
        b_ref = B[0, idx].copy()
        for k in range(x.size - 1):
            dx = x[k + 1] - x[k]
            w_here = col_interp(w, k, ys)
            y_half = ys + 0.5 * dx * w_here
            w_half = 0.5 * (col_interp(w, k, y_half) + col_interp(w, k + 1, y_half))
            ys = ys + dx * w_half
            ys = np.clip(ys, layer.y[k + 1, 0], layer.y[k + 1, -1])
            a_here = col_interp(A, k + 1, ys)
            b_here = col_interp(B, k + 1, ys)
            dev = max(dev, float(np.max(np.abs(a_here - a_ref))), float(np.max(np.abs(b_here - b_ref))))
    return dev


# ---------------------------------------------------------------------------
# CSV output


def write_field_csv(field: EulerianField, path):
    names = ("y", "u", "v", "p", "rho")
    parts = []
    for tag, layer in (("a", field.layer_a), ("b", field.layer_b)):
        x = np.broadcast_to(field.x[:, None], layer.y.shape)
        parts.append([x] + [getattr(layer, n) for n in names] + [np.full(layer.y.shape, tag)])
    write_csv(path, ("x",) + names + ("layer",),
              [np.concatenate(pair, axis=None) for pair in zip(*parts)])


def write_contact_csv(contact: ContactCurve, path):
    write_csv(path, ("x", "g_cd"), (contact.x, contact.g_cd))
