"""Stream-function (Lagrangian) transform, its inverse, and field output.

The map (x, y) -> (xi, eta) uses xi = x and eta = cumulative mass flux
measured from the contact streamline, so the two layers occupy the fixed
strips eta in [0, m_a] and [-m_b, 0] and the contact is the lattice line
eta = 0.  The inverse map integrates 1/(rho u) back up each xi-column and
recovers the contact position as the image of eta = 0.

Both layers live on one node row ``a | b`` (``LagrangianDomain.layers``)
from the inlet on: ``inlet_to_lagrangian`` returns the inlet state on it,
``stream_data_from_inlet`` the streamline constants A0 and B0 of its nodes,
and ``reconstruct`` the mapped solution, which the diagnostics and the
writer read per layer through ``layers``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gas
from .config import InletProfile, NozzleGeometry
from .csvout import write_csv


class TransformError(RuntimeError):
    """Lagrangian transform or reconstruction left its admissible domain."""


def mass_fluxes(profile: InletProfile):
    """The inlet mass fluxes (m_a, m_b) above and below the contact: rho0*u0
    integrated across each inlet layer.

    The integral is taken of the layer's monotone-cubic interpolant itself
    (exact antiderivative), matching the interpolation order used everywhere
    else.
    """
    la, lb = profile.layer_a, profile.layer_b
    _, anti_a = la.mass_flux()
    _, anti_b = lb.mass_flux()
    m_a = float(anti_a(la.y[-1]) - anti_a(la.y[0]))
    m_b = float(anti_b(lb.y[-1]) - anti_b(lb.y[0]))
    return m_a, m_b


@dataclass(frozen=True)
class LagrangianDomain:
    """Fixed rectangular lattice: xi on [0, L], eta per layer, contact at eta = 0.

    The layers' mass fluxes are the lattice ends, exact from ``np.linspace``:
    m_a = eta_a[-1] and m_b = -eta_b[0].
    """

    L: float
    xi: np.ndarray
    eta_a: np.ndarray
    eta_b: np.ndarray

    @classmethod
    def build(cls, L, m_a, m_b, nxi, neta_a, neta_b):
        """The lattice of the layers with mass fluxes m_a above and m_b below
        the contact, which must be positive."""
        if not (m_a > 0 and m_b > 0):
            raise TransformError("out-of-range: mass fluxes must be positive")
        xi = np.linspace(0.0, L, nxi)
        eta_a = np.linspace(0.0, m_a, neta_a)
        eta_b = np.linspace(-m_b, 0.0, neta_b)
        assert eta_a[0] == 0.0 and eta_b[-1] == 0.0
        return cls(L=L, xi=xi, eta_a=eta_a, eta_b=eta_b)

    @property
    def dxi(self):
        return self.xi[1] - self.xi[0]

    @property
    def layers(self):
        """``(tag, eta, columns)`` of each layer on the stacked node row.

        Every solver array keeps both layers on one row ``a | b``: layer a
        from the contact up, then layer b from the lower wall.  The contact
        eta = 0 is entry 0 and entry -1; the walls meet at na-1 | na.
        """
        na = self.eta_a.size
        return (("a", self.eta_a, slice(0, na)), ("b", self.eta_b, slice(na, na + self.eta_b.size)))


def _invert_mass_coordinate(layer, base_y, targets):
    """Solve F(y) = target for each target, F the cumulative mass flux from base_y."""
    flux, anti = layer.mass_flux()
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


def inlet_to_lagrangian(profile: InletProfile, domain: LagrangianDomain):
    """Resample the inlet onto the stacked node row ``a | b``; endpoints map
    exactly.

    Layer a solves int_0^y rho0 u0 = eta, layer b solves
    int_{g_-(0)}^y rho0 u0 - m_b = eta.  Returns the inlet ordinates y and
    the gas.PrimitiveState on the row, both of shape (neta_a + neta_b,).
    """
    la, lb = profile.layer_a, profile.layer_b

    y_a = _invert_mass_coordinate(la, 0.0, domain.eta_a.copy())
    y_a[0] = 0.0
    y_a[-1] = la.y[-1]
    # eta_b[0] is -m_b exactly: linspace starts at its start.
    y_b = _invert_mass_coordinate(lb, lb.y[0], domain.eta_b - domain.eta_b[0])
    y_b[0] = lb.y[0]
    y_b[-1] = 0.0
    state = gas.PrimitiveState(*np.concatenate([la.eval(y_a), lb.eval(y_b)], axis=1))
    return np.concatenate([y_a, y_b]), state


def stream_data_from_inlet(state: gas.PrimitiveState, domain: LagrangianDomain, gamma, p_ref):
    """Entropy function A0 and Bernoulli constant B0 at every node of the
    stacked row ``a | b`` of ``domain``, as the pair (a0, b0).

    Both are constant along each streamline, and every solver query falls
    on a lattice node, so the node values are all the solver reads.  The
    global Theta reference pressure p_ref must stay below the sonic pressure
    of every streamline, otherwise Theta's reference point is inadmissible
    (``sonic-limit``).
    """
    a0, b0 = gas.entropy_function(state, gamma), gas.bernoulli(state, gamma)
    bad = ~(p_ref < gas.sonic_pressure(a0, b0, gamma) * (1.0 - gas.SONIC_MARGIN))
    if np.any(bad):
        eta = np.concatenate([eta for _, eta, _ in domain.layers])
        raise gas.GasError("sonic-limit: reference pressure reaches the sonic pressure of a "
                           f"streamline (first offending eta ~ {eta[np.argmax(bad)]:.6g})")
    return a0, b0


# ---------------------------------------------------------------------------
# Inverse transform


def cumulative_simpson(f, h, axis=-1):
    """Cumulative integral along ``axis`` with local-parabola (Simpson) weights.

    Exact for quadratics; the j=0 panel uses the forward three-point rule.
    """
    f = np.moveaxis(np.asarray(f, dtype=float), axis, -1)
    n = f.shape[-1]
    if n < 3:
        raise TransformError("degenerate: cumulative Simpson needs at least 3 nodes")
    inc = np.empty(f.shape[:-1] + (n - 1,))
    inc[..., 0] = h / 12.0 * (5.0 * f[..., 0] + 8.0 * f[..., 1] - f[..., 2])
    inc[..., 1:] = h / 12.0 * (-f[..., :-2] + 8.0 * f[..., 1:-1] + 5.0 * f[..., 2:])
    out = np.zeros_like(f)
    np.cumsum(inc, axis=-1, out=out[..., 1:])
    return np.moveaxis(out, -1, axis)


@dataclass(frozen=True)
class EulerianField:
    """The mapped solution on the stacked node row ``a | b``: the ordinate
    ``y`` and the gas.PrimitiveState ``state`` that ``reconstruct`` received,
    both (nxi, neta_a + neta_b); ``domain.layers`` names each layer's columns
    and ``domain.xi`` is x.  The contact curve g_cd(x) is ``y[:, -1]``, the
    image of eta = 0."""

    y: np.ndarray
    state: gas.PrimitiveState
    domain: LagrangianDomain
    top_gap: float  # sup |y(xi, m_a) - g_plus(xi)|, a conservation diagnostic


def reconstruct(state, geom: NozzleGeometry, domain: LagrangianDomain) -> EulerianField:
    """Invert the stream-function map column by column.

    ``state`` is the gas.PrimitiveState of both layers on the stacked node
    row (``LagrangianDomain.layers``), arrays shaped (nxi, neta_a + neta_b),
    as ``moc.grid_states`` returns.  y(xi, eta) integrates 1/(rho u) with
    composite Simpson up layer b from the lower wall, then on up layer a;
    the contact curve is the image of eta = 0 and the upper-wall mismatch
    is reported, not enforced.
    """
    xi = domain.xi
    mass = state.rho * state.u
    for tag, _, cols in domain.layers:
        if not np.all(mass[:, cols] > 0.0):
            raise TransformError(f"jacobian-degenerate: rho*u <= 0 in layer {tag}")

    inv = 1.0 / mass
    y = np.empty_like(inv)
    base = geom.g_minus(xi)
    for _, eta, cols in reversed(domain.layers):
        y[:, cols] = base[:, None] + cumulative_simpson(inv[:, cols], eta[1] - eta[0], axis=1)
        base = y[:, cols.stop - 1]
    top_gap = float(np.max(np.abs(base - geom.g_plus(xi))))

    if not all(np.all(np.diff(y[:, cols], axis=1) > 0) for _, _, cols in domain.layers):
        raise TransformError("degenerate: layer ordering violated: y is not increasing in eta")

    return EulerianField(y=y, state=state, domain=domain, top_gap=top_gap)


# ---------------------------------------------------------------------------
# Conservation diagnostics


def _flux_vectors(state: gas.PrimitiveState, gamma):
    u, v, p, rho = state.u, state.v, state.p, state.rho
    E = 0.5 * (u * u + v * v) + p / ((gamma - 1.0) * rho)
    total = rho * E + p
    W = np.stack([rho * u, rho * u * u + p, rho * u * v, total * u])
    H = np.stack([rho * v, rho * u * v, rho * v * v + p, total * v])
    return W, H


def weak_residual(field: EulerianField, gamma):
    """Discrete control-volume flux divergence of the mapped mesh.

    The fluxes are evaluated on the node row, the cells per layer, so no
    cell straddles the contact; edge fluxes use the trapezoid rule, and the
    residual is the closed contour integral of (W dy - H dx) normalized by
    cell area.  Across the contact (row entries 0 and -1) only the jump
    conditions are checked: pressure continuity and the normal mass flux.

    Returns ``weak_max`` and ``weak_mean``, the largest and the mean cell
    residual, ``weak_contact_p``, the sup of the contact's pressure jump,
    and ``weak_contact_mdot``, the sup of |rho u (g'_cd - w)| over both
    sides of the contact.
    """
    W_row, H_row = _flux_vectors(field.state, gamma)

    def edge(px, py, qx, qy, Wp, Wq, Hp, Hq):
        return 0.5 * (Wp + Wq) * (qy - py) - 0.5 * (Hp + Hq) * (qx - px)

    all_res = []
    for _, _, cols in field.domain.layers:
        W, H, y = W_row[..., cols], H_row[..., cols], field.y[:, cols]
        x = np.broadcast_to(field.domain.xi[:, None], y.shape)
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
        all_res.append(rel.ravel())

    flat = np.concatenate(all_res)

    u, v, p, rho = field.state.u, field.state.v, field.state.p, field.state.rho
    w_a, w_b = v[:, 0] / u[:, 0], v[:, -1] / u[:, -1]
    slope = 0.5 * (w_a + w_b)  # g_cd', the mean streamline slope of the contact's two sides
    p_jump = float(np.max(np.abs(p[:, 0] - p[:, -1])))
    mdot_a = rho[:, 0] * u[:, 0] * (slope - w_a)
    mdot_b = rho[:, -1] * u[:, -1] * (slope - w_b)
    return {
        "weak_max": float(flat.max()),
        "weak_mean": float(flat.mean()),
        "weak_contact_p": p_jump,
        "weak_contact_mdot": float(max(np.max(np.abs(mdot_a)), np.max(np.abs(mdot_b)))),
    }


def streamline_conservation(field: EulerianField, gamma):
    """Trace streamlines through the reconstructed field and measure how well
    the entropy function and Bernoulli constant hold along them.

    Independent of the solver path: a midpoint integrator follows
    dy/dx = (v/u)(x, y) with per-column linear interpolation in y, and the
    A, B node fields are sampled the same way along the traced curve.
    Traces seven lines per layer and returns the sup deviation over them.
    """
    x, st = field.domain.xi, field.state
    w_row, A_row, B_row = st.v / st.u, gas.entropy_function(st, gamma), gas.bernoulli(st, gamma)
    dev = 0.0
    for _, eta, cols in field.domain.layers:
        y, w, A, B = field.y[:, cols], w_row[:, cols], A_row[:, cols], B_row[:, cols]
        idx = np.linspace(1, eta.size - 2, 7).round().astype(int)

        def col_interp(fcol, k, yq):
            return np.interp(yq, y[k], fcol[k])

        ys = y[0, idx].copy()
        a_ref = A[0, idx].copy()
        b_ref = B[0, idx].copy()
        for k in range(x.size - 1):
            dx = x[k + 1] - x[k]
            w_here = col_interp(w, k, ys)
            y_half = ys + 0.5 * dx * w_here
            w_half = 0.5 * (col_interp(w, k, y_half) + col_interp(w, k + 1, y_half))
            ys = ys + dx * w_half
            ys = np.clip(ys, y[k + 1, 0], y[k + 1, -1])
            a_here = col_interp(A, k + 1, ys)
            b_here = col_interp(B, k + 1, ys)
            dev = max(dev, float(np.max(np.abs(a_here - a_ref))), float(np.max(np.abs(b_here - b_ref))))
    return dev


# ---------------------------------------------------------------------------
# CSV output


def write_field_csv(field: EulerianField, path):
    names = ("u", "v", "p", "rho")
    x = field.domain.xi[:, None]
    parts = []
    for tag, _, cols in field.domain.layers:
        y = field.y[:, cols]
        parts.append([np.broadcast_to(x, y.shape), y]
                     + [getattr(field.state, n)[:, cols] for n in names]
                     + [np.full(y.shape, tag)])
    write_csv(path, ("x", "y") + names + ("layer",),
              [np.concatenate(pair, axis=None) for pair in zip(*parts)])


def write_contact_csv(field: EulerianField, path):
    """The contact curve: x and g_cd(x) = y(x, eta = 0)."""
    write_csv(path, ("x", "g_cd"), (field.domain.xi, field.y[:, -1]))
