import importlib.util
import inspect
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contactmoc import blowup, interp
from contactmoc.expressions import SmoothExpression
from tests.blowup_reference import reference_march

G = 1.4  # gamma


def dtheta_of_speed(q, qhat, g):
    """Closed-form dTheta/dq = sqrt(q^2 - c^2) / (q c); positive on the
    admissible range."""
    q = np.asarray(q, dtype=float)
    q2 = q * q
    c = blowup._c_of_q2(q2, qhat, g)
    if np.any(q2 <= c * c):
        raise blowup.BlowupError("sonic-limit: dTheta/dq needs q > c(q)")
    return np.sqrt(q2 - c * c) / (q * c)


def irrot_lambdas(u, v, rho, g):
    """Characteristic slopes (uv -+ c sqrt(q^2 - c^2)) / (u^2 - c^2) of the
    irrotational flow, from the velocity and the sound speed.  This equals
    the march's tan(theta -+ mu) within rounding, and is written apart from
    it.  Needs u > c, so the denominator is positive; then
    q^2 - c^2 >= u^2 - c^2 > 0 keeps the radicand positive without a clamp."""
    u, v, rho = (np.asarray(x, dtype=float) for x in (u, v, rho))
    c = blowup.sound_speed_of_density(rho, g)
    if np.any(u * u - c * c <= 0.0):
        raise blowup.BlowupError("degenerate: characteristic slopes need u > c")
    cd = c * np.sqrt((u * u + v * v) - c * c)
    den = u * u - c * c
    return (u * v - cd) / den, (u * v + cd) / den


def make_profile(v0_text, u0_text="2.0", rho_wall=1.0):
    return blowup.PeriodicProfile(u0_text, v0_text, G, rho_wall=rho_wall)


def march_rows(monkeypatch, *args, **kwargs):
    """``cauchy_march`` with its rows: (report, rows), rows[k] the (2, ny)
    array (Z_plus, Z_minus) at ``report.x_history[k]``.

    The rows are read through ``interp.monotone_interp``: the unpadded
    input of the first update is row 0 and each update returns the next
    row.  Every row is copied, so that no reuse of a buffer aliases them."""
    rows = []
    monotone_interp = interp.monotone_interp
    pad = blowup._periodic_pad()

    def recording(y0, h, v, yq):
        if not rows:
            rows.append(np.array(v[:, pad:v.shape[-1] - pad]))
        out = monotone_interp(y0, h, v, yq)
        rows.append(np.array(out))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(interp, "monotone_interp", recording)
        rep = blowup.cauchy_march(*args, **kwargs)
    assert len(rows) == rep.x_history.size
    return rep, rows


def _irrot(u, v, rho):
    """``irrot_invariants`` of one state, with its own limit speed qhat and
    q_ref = 2."""
    qhat = math.sqrt(u * u + v * v + 2.0 * rho ** (G - 1.0) / (G - 1.0))
    return blowup.irrot_invariants(*(np.array([x]) for x in (u, v, rho)), G, q_ref=2.0, qhat=qhat)


def _theta(q, qhat):
    """Theta(q) with q_ref = 2, for one speed."""
    return float(blowup.theta_of_speed(np.array([q]), qhat, G, 2.0)[0])


def test_invariants_vanish_at_reference():
    z_plus, z_minus = _irrot(2.0, 0.0, 1.0)
    assert z_minus.tolist() == [0.0] and z_plus.tolist() == [0.0]


def test_invariants_v_flip_swap_law():
    a_plus, a_minus = _irrot(2.0, 0.3, 0.93)
    b_plus, b_minus = _irrot(2.0, -0.3, 0.93)
    assert float(b_plus[0]) == pytest.approx(-float(a_minus[0]), rel=1e-13)
    assert float(b_minus[0]) == pytest.approx(-float(a_plus[0]), rel=1e-13)


def test_dtheta_of_speed_matches_fd():
    prof = make_profile("0.0")
    qhat = prof.qhat
    q0 = 2.1
    h = 1e-5
    fd = (_theta(q0 + h, qhat) - _theta(q0 - h, qhat)) / (2 * h)
    assert float(dtheta_of_speed(q0, qhat, G)) == pytest.approx(fd, abs=1e-10)

    from scipy.integrate import quad

    near_sonic = blowup.critical_speed(qhat, G) * (1 + 2e-6)
    for q1, q2 in ((2.0, 2.1), (near_sonic, 2.0), (near_sonic, qhat * 0.999)):
        whole = _theta(q2, qhat) - _theta(q1, qhat)
        seg, _ = quad(lambda q: dtheta_of_speed(q, qhat, G), q1, q2,
                      epsabs=1e-13, epsrel=1e-13)
        assert whole == pytest.approx(seg, abs=1e-12)


def test_sonic_limit_errors():
    with pytest.raises(blowup.BlowupError, match="sonic-limit"):
        _irrot(0.5, 0.0, 1.0)
    prof = make_profile("0.0")
    with pytest.raises(blowup.BlowupError, match="sonic-limit"):
        _theta(prof.qhat * 1.01, prof.qhat)


def test_lambda_antisymmetric_and_degenerate():
    lam_m, lam_p = irrot_lambdas(2.0, 0.0, 1.0, G)
    assert float(lam_m) == pytest.approx(-float(lam_p), rel=1e-14)
    with pytest.raises(blowup.BlowupError, match="degenerate"):
        irrot_lambdas(0.9, 0.0, 1.0, G)


def test_march_slopes_match_mach_angle_form():
    """The march's slopes tan(theta -+ mu) against the (u, v, c) form over
    supersonic states, from near-sonic to Mach 4 and flow angles up to 0.6 of
    the degenerate angle pi/2 - mu."""
    rng = np.random.default_rng(7)
    c = rng.uniform(0.5, 1.5, 2000)
    q = c * rng.uniform(1.001, 4.0, c.size)
    mu = np.arcsin(c / q)
    theta = rng.uniform(-0.6, 0.6, c.size) * (np.pi / 2 - mu)
    u, v = q * np.cos(theta), q * np.sin(theta)
    rho = c ** (2.0 / (G - 1.0))
    lam_m, lam_p = blowup._mach_slopes(theta, mu)
    want_m, want_p = irrot_lambdas(u, v, rho, G)
    scale = np.maximum(np.abs(want_m), np.abs(want_p))
    assert np.max(np.abs(lam_m - want_m) / scale) < 1e-12
    assert np.max(np.abs(lam_p - want_p) / scale) < 1e-12


def test_march_stops_where_u_drops_below_c(monkeypatch):
    """The march's own ``degenerate`` exit: a profile that passes every check
    up front (q > c everywhere, wall-compatible) but has u < c near y = 1/2
    stops before the first update."""
    prof = make_profile("0.8 * sin(pi * y) ** 3", "2.0 - 0.9 * sin(pi * y) ** 2")
    assert blowup.check_compatibility(prof) == []
    u, v, rho = prof.eval(np.linspace(-1.0, 1.0, 401))
    c = blowup.sound_speed_of_density(rho, G)
    assert np.all(np.hypot(u, v) > c) and np.any(u < c)
    updates = []
    monkeypatch.setattr(interp, "monotone_interp", lambda *args: updates.append(args))
    with pytest.raises(blowup.BlowupError, match="^degenerate: u dropped below c during the march$"):
        blowup.cauchy_march(prof, x_max=10.0, ny=200)
    assert updates == []


def test_genuine_nonlinearity_probe(rng):
    """Both cross-family slope derivatives are positive over a sampled
    neighborhood of the reference state (finite differences in Z)."""
    prof = make_profile("0.0")
    qhat = prof.qhat

    def lambdas_of_z(zp, zm):
        theta = 0.5 * (zp + zm)
        tv = 0.5 * (zp - zm)
        # invert Theta(q) = tv by bisection on the admissible interval
        lo = blowup.critical_speed(qhat, G) * 1.01
        hi = qhat * 0.995
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if _theta(mid, qhat) < tv:
                lo = mid
            else:
                hi = mid
        q = 0.5 * (lo + hi)
        u, v = q * np.cos(theta), q * np.sin(theta)
        c = np.sqrt(0.5 * (G - 1.0) * (qhat**2 - q**2))
        rho = c ** (2.0 / (G - 1.0))
        return irrot_lambdas(u, v, rho, G)

    h = 1e-5
    for _ in range(100):
        zp = 0.1 * rng.uniform(-1, 1)
        zm = 0.1 * rng.uniform(-1, 1)
        lam_m_hi, _ = lambdas_of_z(zp + h, zm)
        lam_m_lo, _ = lambdas_of_z(zp - h, zm)
        assert (lam_m_hi - lam_m_lo) / (2 * h) > 0.0  # d lambda_- / d Z_+
        _, lam_p_hi = lambdas_of_z(zp, zm + h)
        _, lam_p_lo = lambdas_of_z(zp, zm - h)
        assert (lam_p_hi - lam_p_lo) / (2 * h) > 0.0  # d lambda_+ / d Z_-


# ---------------------------------------------------------------------------
# compatibility and periodic extension


def test_compatibility_constant_profile_clean():
    assert blowup.check_compatibility(make_profile("0.0")) == []


def test_compatibility_sine_profile_clean():
    assert blowup.check_compatibility(make_profile("0.01 * sin(pi * y)")) == []


def test_compatibility_flags_half_sine():
    report = blowup.check_compatibility(make_profile("0.01 * sin(pi * y / 2)"))
    assert any("v at y=1" in item for item in report)


def test_march_starts_from_the_expressions(monkeypatch):
    """Row 0 of the march is ``irrot_invariants`` of the closed-form data at
    the nodes, bit for bit: u0 and v0 at the folded |t| with v odd, the
    density from the Bernoulli radicand anchored at rho_wall, and qhat and
    q_ref from the wall values."""
    u_text, v_text, rho_wall = "2.0 + 0.01 * cos(pi * y)", "0.03 * sin(pi * y)", 0.9
    rep, rows = march_rows(monkeypatch, make_profile(v_text, u_text, rho_wall), x_max=0.1,
                           ny=300)
    t = np.mod(rep.y_nodes + 1.0, 2.0) - 1.0
    u0, v0 = SmoothExpression(u_text, var="y"), SmoothExpression(v_text, var="y")
    u = u0(np.abs(t))
    v = np.where(t < 0.0, -1.0, 1.0) * v0(np.abs(t))
    gm1 = G - 1.0
    q_ref = math.hypot(float(u0(0.0)), float(v0(0.0)))
    c_wall = rho_wall ** (0.5 * gm1)
    qhat2 = q_ref * q_ref + 2.0 * c_wall * c_wall / gm1
    rho = (0.5 * gm1 * (qhat2 - (u * u + v * v))) ** (1.0 / gm1)
    z_plus, z_minus = blowup.irrot_invariants(u, v, rho, G, q_ref=q_ref, qhat=math.sqrt(qhat2))
    zp, zm = rows[0]
    assert rep.x_history[0] == 0.0
    assert np.array_equal(zp, z_plus) and np.array_equal(zm, z_minus)


def test_periodic_extension_exact():
    prof = make_profile("0.01 * sin(pi * y)")
    y = np.linspace(-1.0, 1.0, 57)
    u1, v1, r1 = prof.eval(y)
    u2, v2, r2 = prof.eval(y + 2.0)
    for a, b in ((u1, u2), (v1, v2), (r1, r2)):
        assert np.max(np.abs(a - b)) < 1e-13
    # odd reflection of v about y = 0
    um, vm, rm = prof.eval(-y)
    assert np.allclose(vm, -v1, atol=1e-15)
    assert np.allclose(um, u1, atol=1e-15)


# ---------------------------------------------------------------------------
# detection


def test_gradient_trigger_fires_at_first_history_crossing():
    """The march's gradient trigger fires at the first recorded step whose
    steeper invariant exceeds max(grad_factor x the initial gradient,
    grad_floor): the factor binds first, then a floor set above it."""
    prof = make_profile("0.06 * sin(pi * y)")
    rep = blowup.cauchy_march(prof, x_max=200.0, ny=400, grad_factor=15.0)
    steepest = np.maximum(rep.grad_zp_history, rep.grad_zm_history)
    floor = 30.0 * steepest[0]
    floored = blowup.cauchy_march(prof, x_max=200.0, ny=400, grad_factor=15.0, grad_floor=floor)
    for r, threshold in ((rep, 15.0 * steepest[0]), (floored, floor)):
        above = np.nonzero(np.maximum(r.grad_zp_history, r.grad_zm_history) > threshold)[0]
        assert above.size and r.gradient_x == r.x_history[above[0]]
    assert floored.gradient_x > rep.gradient_x
    assert inspect.signature(blowup.cauchy_march).parameters["grad_floor"].default == 1e-6


def test_constant_profile_never_detects():
    rep = blowup.cauchy_march(make_profile("0.0"), x_max=50.0, ny=100)
    assert rep.blowup_x is None
    assert rep.gradient_x is None and rep.crossing_x is None
    assert float(rep.grad_zp_history.max()) == 0.0


def test_sine_profile_blows_up_and_scales_with_delta():
    rep1 = blowup.cauchy_march(make_profile("0.1 * sin(pi * y)"), x_max=40.0, ny=200,
                               grad_factor=15.0)
    rep2 = blowup.cauchy_march(make_profile("0.05 * sin(pi * y)"), x_max=40.0, ny=200,
                               grad_factor=15.0)
    assert rep1.blowup_x is not None and rep2.blowup_x is not None
    assert rep2.blowup_x > rep1.blowup_x
    assert rep2.blowup_x / rep1.blowup_x == pytest.approx(2.0, rel=0.35)


def test_wall_condition_inherited_from_odd_extension(monkeypatch):
    prof = make_profile("0.05 * sin(pi * y)")
    rep, rows = march_rows(monkeypatch, prof, x_max=3.0, ny=200)
    y = rep.y_nodes
    j_wall = [int(np.argmin(np.abs(y - 0.0))), 0]  # y = 0 node and y = -1 node
    assert y[j_wall[0]] == 0.0 and y[j_wall[1]] == -1.0
    for zp, zm in rows[:: max(1, len(rows) // 10)]:
        theta = 0.5 * (zp + zm)
        for j in j_wall:
            assert abs(np.sin(theta[j])) < 5e-4  # v/q at the walls
    # the symmetry is exact at machine precision for the discrete march
    for zp, zm in rows[-3:]:
        assert abs(zp[j_wall[1]] + zm[j_wall[1]]) < 1e-12


def periodic_monotone(y, values, yq, pad=None):
    """Monotone cubic of the periodic samples ``values`` on the lattice ``y``
    at ``yq`` wrapped into [-1, 1), through a copy padded by ``pad`` nodes
    each side (by default the march's own pad): the march's update, for
    queries anywhere on the line."""
    if pad is None:
        pad = blowup._periodic_pad()
    ny = y.size
    h = y[1] - y[0]
    ext = np.arange(-pad, ny + pad) % ny
    return interp.monotone_interp(y[0] - pad * h, h, values[..., ext], np.mod(yq + 1.0, 2.0) - 1.0)


def test_stacked_periodic_update_is_bit_equal_to_row_by_row(rng):
    """One stacked update equals one 1-D interpolation per row, bit for bit:
    random, flat, sign-changing and smooth rows, feet anywhere within the
    march's step cap of their nodes, through the seam at both ends."""
    ny = 160
    y = -1.0 + 2.0 * np.arange(ny) / ny
    h = y[1] - y[0]
    rows = np.array([
        rng.normal(size=ny),
        np.full(ny, 0.3),
        np.where(np.arange(ny) % 2, 1.0, -1.0) * rng.uniform(0.5, 1.5, ny),
        np.where(np.arange(ny) % 7 < 3, 0.0, rng.normal(size=ny)),
        0.1 * np.sin(np.pi * y),
    ])
    cap = blowup._STEP_CAP
    feet = y + h * rng.uniform(-cap, cap, rows.shape)
    feet[:, :3] = y[:3] - cap * h  # through the periodic seam
    feet[:, -3:] = y[-3:] + cap * h
    stacked = periodic_monotone(y, rows, feet)
    for r in range(rows.shape[0]):
        assert np.array_equal(stacked[r], periodic_monotone(y, rows[r], feet[r]))


@pytest.mark.parametrize("v0_text, ny, x_max", [
    ("0.06 * sin(pi * y)", 400, 200.0),  # the step cap binds
    ("0.0", 100, 5.0),  # dx_max binds
], ids=["cap-binds", "dx_max-binds"])
def test_march_feet_stay_inside_the_pad(monkeypatch, v0_text, ny, x_max):
    """Every foot the march looks up, unwrapped, lies in a cell [1, n - 2)
    of the padded row: the precondition of ``interp.hermite_eval``, which
    neither clamps a foot nor sets the end slopes."""
    calls = []
    hermite_eval = interp.hermite_eval

    def recording(y0, h, v, d, yq):
        calls.append(((np.asarray(yq) - y0) / h, v.shape[-1]))
        return hermite_eval(y0, h, v, d, yq)

    monkeypatch.setattr(interp, "hermite_eval", recording)
    rep = blowup.cauchy_march(make_profile(v0_text), x_max=x_max, ny=ny, grad_factor=15.0)
    assert len(calls) == rep.steps > 0
    widest = 0.0
    for t, n in calls:
        pad = (n - ny) // 2
        assert t.min() >= 1.0 and t.max() < n - 2
        widest = max(widest, float(np.abs(t - (pad + np.arange(ny))).max()))
    assert 1.0 < widest <= blowup._STEP_CAP * (1 + 1e-12)


@pytest.mark.parametrize("v0_text, ny, x_max, factor", [
    ("0.06 * sin(pi * y)", 400, 200.0, 15.0),  # the step cap binds; both detectors fire
    ("0.0", 100, 50.0, 1e3),  # dx_max binds; neither fires
    ("0.2 * sin(pi * y)", 100, 200.0, 15.0),  # crossing first, gradient never
    ("0.1 * sin(pi * y)", 100, 200.0, 5.0),  # gradient first
], ids=["cap-binds", "dx_max-binds", "crossing-first", "gradient-first"])
def test_march_is_bit_equal_to_plain_reference(v0_text, ny, x_max, factor):
    """The march against ``tests/blowup_reference.py``, the same step in
    plainly written numpy: histories, abscissas and step count bit for bit."""
    prof = make_profile(v0_text)
    rep = blowup.cauchy_march(prof, x_max=x_max, ny=ny, grad_factor=factor)
    ref = reference_march(prof, x_max=x_max, ny=ny, grad_factor=factor)
    for name in ("x_history", "grad_zp_history", "grad_zm_history", "y_nodes"):
        assert np.array_equal(getattr(rep, name), getattr(ref, name)), name
    for name in ("blowup_x", "gradient_x", "crossing_x", "x_end", "steps", "trigger"):
        assert getattr(rep, name) == getattr(ref, name), name
    assert rep.steps > 0


# ---------------------------------------------------------------------------
# exactness of the step's rewritten expressions


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(_FINITE, min_size=2, max_size=40), st.floats(min_value=0.0, exclude_min=True,
                                                           allow_infinity=False))
def test_max_then_divide_is_divide_then_max(values, c):
    """Division by c > 0 is monotone, so the march takes max|dZ| of each row
    and then divides, on two numbers."""
    a = np.array(values[: len(values) // 2 * 2]).reshape(2, -1)
    with np.errstate(over="ignore", under="ignore"):
        assert np.array_equal(np.abs(a).max(axis=1) / c, np.abs(a / c).max(axis=1))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@settings(max_examples=500, deadline=None)
@given(_FINITE)
@example(-5e-324)  # halves to -0.0: the guarded case
@example(5e-324)
@example(-0.0)
@example(-2.0)
@example(-1e-20)  # the remainder rounds up to 2.0
@example(-2.0 ** 60 - 2048.0)
def test_mod2_is_np_remainder_bit_for_bit(x):
    xs = np.array([x, -x])
    assert np.array_equal(_bits(blowup._mod2(xs)), _bits(np.remainder(xs, 2.0)))


@settings(max_examples=500, deadline=None)
@given(q=st.floats(0.1, 10.0), c=st.floats(0.01, 10.0), theta=st.floats(-1.5, 1.5),
       u=st.floats(0.01, 10.0), v=st.floats(-5.0, 5.0))
def test_slopes_radicand_is_nonnegative_once_u_exceeds_c(q, c, theta, u, v):
    """``irrot_lambdas`` takes sqrt(u^2 + v^2 - c^2) without a clamp: u^2 > c^2
    keeps u^2 + v^2 - c^2 > 0 after rounding.  In polar form u = q cos(theta)
    rounds to at most q, so u > c keeps q^2 - c^2 >= 0."""
    if q * float(np.cos(theta)) > c:
        assert q * q - c * c >= 0.0
    if u * u - c * c > 0.0:
        assert (u * u + v * v) - c * c > 0.0


def test_step_cap_matches_half_cell_march(monkeypatch):
    """The shipped step cap against the same march held to half a cell per
    step: blowup_x agrees within 3 % and both detector pairs within 10 %."""
    prof = make_profile("0.06 * sin(pi * y)")
    rep = blowup.cauchy_march(prof, x_max=200.0, ny=400, grad_factor=15.0)
    monkeypatch.setattr(blowup, "_STEP_CAP", 0.5)
    rep_half = blowup.cauchy_march(prof, x_max=200.0, ny=400, grad_factor=15.0)
    assert rep.steps < 0.5 * rep_half.steps
    assert abs(rep.blowup_x - rep_half.blowup_x) / rep_half.blowup_x <= 0.03
    for r in (rep, rep_half):
        assert r.gradient_x is not None and r.crossing_x is not None
        assert abs(r.gradient_x - r.crossing_x) / r.blowup_x <= 0.10


def test_speed_lookup_is_bit_equal_to_pchip_call(rng):
    prof = make_profile("0.05 * sin(pi * y)")
    tab = blowup._MachAngleTable(prof.qhat, G, prof.q_ref)
    th = np.concatenate([rng.uniform(tab.th_lo, tab.th_hi, 5000),
                         rng.uniform(-0.05, 0.05, 5000),
                         tab.table.x, [tab.th_lo, tab.th_hi]])
    assert np.array_equal(tab.mu_of_theta(th), tab.table(th))
    assert np.array_equal(tab.mu_of_theta(th[:400].reshape(2, 200)), tab.table(th[:400]).reshape(2, 200))
    with pytest.raises(blowup.BlowupError, match="sonic-limit"):
        tab.mu_of_theta(np.array([0.0, tab.th_hi + 1e-9]))
    with pytest.raises(blowup.BlowupError, match="sonic-limit"):
        tab.mu_of_theta(np.array([0.0, np.nan]))


@pytest.mark.parametrize("inset, bound", [(0.3, 1.2e-11), (0.05, 2e-9), (0.002, 1.2e-5)])
def test_mach_angle_table_error_against_closed_form(inset, bound):
    """The march's mu(Theta) table against asin(c(q)/q) at Theta(q), both in
    closed form, at speeds ``inset`` of the way inside (c_hat, qhat) from
    each end.  The error grows toward the ends, where mu is steep in Theta;
    the bounds sit about 30 % above the measured 9.1e-12, 1.5e-9 and
    8.8e-6."""
    prof = make_profile("0.05 * sin(pi * y)")
    c_hat = blowup.critical_speed(prof.qhat, G)
    margin = inset * (prof.qhat - c_hat)
    q = np.linspace(c_hat + margin, prof.qhat - margin, 200001)
    want = np.arcsin(np.sqrt(0.5 * (G - 1.0) * (prof.qhat ** 2 - q * q)) / q)
    tab = blowup._MachAngleTable(prof.qhat, G, prof.q_ref)
    err = np.abs(tab.mu_of_theta(blowup.theta_of_speed(q, prof.qhat, G, prof.q_ref)) - want).max()
    assert err < bound


def lax_small_data_x(u0, delta, rho_wall=1.0, n=40001):
    """Lax's small-data blow-up abscissa x* = 1 / max_y(-dlambda/dZ dZ0/dy)
    for u0 constant and v0 = delta sin(pi y).

    Written from the Mach angle mu (sin mu = c / q), not from the march's
    formulas: lambda_-+ = tan(theta -+ mu), dTheta/dq = cot(mu) / q, and
    Z_plus = theta + Theta rides lambda_minus, Z_minus = theta - Theta rides
    lambda_plus, so d lambda/dZ = sec^2(theta -+ mu) (1 - mu'(q) / Theta'(q)) / 2
    for both families.
    """
    gm1 = G - 1.0
    qhat2 = u0 * u0 + 2.0 * rho_wall ** gm1 / gm1
    y = np.linspace(-1.0, 1.0, n)
    v0, dv0 = delta * np.sin(np.pi * y), delta * np.pi * np.cos(np.pi * y)
    q, theta = np.hypot(u0, v0), np.arctan2(v0, u0)
    c = np.sqrt(0.5 * gm1 * (qhat2 - q * q))
    mu = np.arcsin(c / q)
    dtheta_dq = 1.0 / (q * np.tan(mu))
    dmu_dq = (-0.5 * gm1 * q * q / c - c) / (q * q * np.cos(mu))
    dtheta0, dq0 = u0 * dv0 / (q * q), v0 * dv0 / q
    gnl = 0.5 * (1.0 - dmu_dq / dtheta_dq)
    rate_minus = -gnl / np.cos(theta - mu) ** 2 * (dtheta0 + dtheta_dq * dq0)
    rate_plus = -gnl / np.cos(theta + mu) ** 2 * (dtheta0 - dtheta_dq * dq0)
    return 1.0 / float(max(rate_minus.max(), rate_plus.max()))


def test_blowup_x_matches_lax_small_data_estimate():
    lax_x = lax_small_data_x(2.0, 0.06)
    assert 9.5 < lax_x < 10.5
    rep = blowup.cauchy_march(make_profile("0.06 * sin(pi * y)"), x_max=200.0, ny=400,
                              grad_factor=15.0)
    assert rep.blowup_x is not None
    assert abs(rep.blowup_x - lax_x) / lax_x <= 0.10


def test_gradient_detector_approaches_its_riccati_abscissa():
    """Near blow-up the gradient grows as w0 / (1 - x / x*) (the Riccati law),
    so a trigger at grad_factor times the initial gradient fires at
    x* (1 - 1 / grad_factor), 6.67 % before Lax's estimate at factor 15.  The
    detector's abscissa falls toward it as the grid refines (+9.95 %, -2.22 %
    and -5.32 % at ny = 200, 400 and 800 when measured)."""
    lax_x = lax_small_data_x(2.0, 0.06)
    rel = []
    for ny in (200, 400, 800):
        rep = blowup.cauchy_march(make_profile("0.06 * sin(pi * y)"), x_max=200.0, ny=ny,
                                  grad_factor=15.0)
        rel.append(rep.gradient_x / lax_x - 1.0)
    assert rel[0] > rel[1] > rel[2]
    assert abs(rel[2] + 1.0 / 15.0) <= 0.02


def _study_riccati_x():
    """``riccati_x`` of ``scripts/blowup_study.py``."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "scripts", "blowup_study.py")
    spec = importlib.util.spec_from_file_location("blowup_study", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.riccati_x


def test_riccati_fit_matches_lax_and_converges():
    """The study's Riccati abscissa lies within 1 % of Lax's small-data
    estimate at delta = 0.03, ny = 400, and its error falls from ny = 200."""
    riccati_x = _study_riccati_x()
    lax_x = lax_small_data_x(2.0, 0.03)
    err = {}
    for ny in (200, 400):
        rep = blowup.cauchy_march(make_profile("0.03 * sin(pi * y)"), x_max=200.0, ny=ny,
                                  grad_factor=15.0)
        err[ny] = abs(riccati_x(rep) - lax_x) / lax_x
    assert err[400] <= 0.01
    assert err[400] < err[200]


def test_invariant_constant_along_traced_characteristic(monkeypatch):
    prof = make_profile("0.05 * sin(pi * y)")
    c_hat = blowup.critical_speed(prof.qhat, G)
    margin = 1e-3 * (prof.qhat - c_hat)
    qs = np.linspace(c_hat + margin, prof.qhat - margin, 2001)
    speed = interp.pchip(blowup.theta_of_speed(qs, prof.qhat, G, prof.q_ref), qs)  # q(Theta)

    def lam_minus_field(zp, zm):
        th = 0.5 * (zp + zm)
        tv = 0.5 * (zp - zm)
        q = speed(tv)
        uu, vv = q * np.cos(th), q * np.sin(th)
        c = np.sqrt(0.5 * (G - 1.0) * (prof.qhat**2 - q * q))
        return (uu * vv - c * np.sqrt(np.maximum(q * q - c * c, 0.0))) / (uu * uu - c * c)

    def drift(ny):
        rep, rows = march_rows(monkeypatch, prof, x_max=2.0, ny=ny)
        y = rep.y_nodes
        pos = float(y[ny // 4])
        vals = []
        for i in range(len(rows) - 1):
            zp, zm = rows[i]
            lam0 = lam_minus_field(zp, zm)
            lam1 = lam_minus_field(*rows[i + 1])
            vals.append(float(periodic_monotone(y, zp, np.array([pos]))[0]))
            dx = rep.x_history[i + 1] - rep.x_history[i]
            # midpoint tracer so the measurement error is o(step)
            mid = pos + 0.5 * dx * np.interp(np.mod(pos + 1, 2) - 1, y, lam0)
            lam_mid = 0.5 * (np.interp(np.mod(mid + 1, 2) - 1, y, lam0)
                             + np.interp(np.mod(mid + 1, 2) - 1, y, lam1))
            pos += dx * float(lam_mid)
        vals = np.array(vals)
        return np.max(np.abs(vals - vals[0]))

    d200 = drift(200)
    d400 = drift(400)
    assert d200 < 1e-4
    assert d400 < 0.55 * d200  # super-linear decay under step halving
