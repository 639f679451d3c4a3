import dataclasses
import functools
import re

import numpy as np
import pytest

from contactmoc import cli, config, fixtures, gas, interp, moc, oracle
from contactmoc.config import BackgroundState
from tests import gas_reference, simple_wave
from tests.characteristics import trace_characteristic
from tests.conftest import assemble, solve_pipeline, solved
from tests.cubic_reference import plain_cubic

G = 1.4  # gamma


def contact_stream_data(prob):
    """The contact streamline eta = 0 on either side: the first and the last
    entry of the stacked row a | b, each as its own ``gas.Streamline``."""
    s = prob.line
    return tuple(gas.Streamline(s.a0[node], s.b0[node], s.p_ref, s.gamma) for node in (0, -1))


def test_frozen_lambdas_background_constant():
    cfg, geom, profile, prob = assemble(0.0, 60, 12)
    grid = moc.InvariantGrid.background(prob)
    frozen = moc.frozen_lambdas(grid, prob)
    (_, _, a), (_, _, b) = prob.domain.layers
    lam_a = 1.0 * 2.2 * np.sqrt(1.4) / np.sqrt(2.2**2 - 1.4)
    assert np.max(np.abs(frozen.lam_p[:, a] - lam_a)) < 1e-12
    assert np.max(np.abs(frozen.lam_m[:, a] + lam_a)) < 1e-12
    c_b = np.sqrt(1.4 / 1.2)
    lam_b = 1.2 * 1.9 * c_b / np.sqrt(1.9**2 - c_b**2)
    assert np.max(np.abs(frozen.lam_p[:, b] - lam_b)) < 1e-12


def test_frozen_lambdas_locality_of_perturbation():
    cfg, geom, profile, prob = assemble(0.0, 60, 12)
    base = moc.InvariantGrid.background(prob)
    bumped = moc.InvariantGrid(prob.domain, base.zm.copy(), base.zp.copy())
    bumped.zm[7, 5] += 1e-4
    f0 = moc.frozen_lambdas(base, prob)
    f1 = moc.frozen_lambdas(bumped, prob)
    diff = np.abs(f1.lam_p - f0.lam_p)
    assert diff[7, 5] > 0.0
    diff[7, 5] = 0.0
    assert np.max(diff) == 0.0


def test_frozen_lambdas_match_direct_recomputation(rng):
    cfg, geom, profile, prob = solved(1e-3, 101, 26)[3], None, None, None
    cfg, geom, profile, prob, grid, history = solved(1e-3, 101, 26)
    frozen = moc.frozen_lambdas(grid, prob)
    st = moc.grid_states(grid, prob)
    ks = rng.integers(0, grid.zm.shape[0], 100)
    js = rng.integers(0, grid.zm.shape[1], 100)
    for k, j in zip(ks, js):
        state = gas.PrimitiveState(u=st.u[k, j], v=st.v[k, j], p=st.p[k, j], rho=st.rho[k, j])
        lam_m, lam_p = gas_reference.lambda_pm(state, G)
        assert frozen.lam_p[k, j] == pytest.approx(lam_p, abs=1e-12)
        assert frozen.lam_m[k, j] == pytest.approx(lam_m, abs=1e-12)


# ---------------------------------------------------------------------------
# coupling coefficients


def test_coupling_background_values():
    cfg, geom, profile, prob = assemble(0.0, 60, 12)
    grid = moc.InvariantGrid.background(prob)
    alpha, beta, _, _, _ = moc.coupling_coefficients(grid, prob)
    sd_a, sd_b = contact_stream_data(prob)
    expect_a = 1.0 / (2.0 * gas_reference.dtheta_dp(1.0, sd_a))
    expect_b = 1.0 / (2.0 * gas_reference.dtheta_dp(1.0, sd_b))
    assert np.max(np.abs(alpha - expect_a)) < 1e-13
    assert np.max(np.abs(beta - expect_b)) < 1e-13


def test_gauss_table_is_leggauss_16_on_the_unit_interval():
    # The written-out rule carries the bits of numpy's, mapped to [0, 1].
    x, w = np.polynomial.legendre.leggauss(16)
    for got, expect in ((moc._GL_X, 0.5 * (x + 1.0)), (moc._GL_W, 0.5 * w)):
        assert got.dtype == expect.dtype and np.array_equal(got, expect)
        assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
def test_coupling_bits_of_one_gauss_sum_per_contact_side(eps):
    # alpha and beta of a solved grid carry the bits of one (16, nxi) Gauss
    # sum along each side's own path, against the reference dTheta/dp.
    cfg, geom, profile, prob, grid, history = solved(eps, 101, 26)
    alpha, beta, _, _, _ = moc.coupling_coefficients(grid, prob)
    p = moc.grid_states(grid, prob).p
    for got, node, sd in zip((alpha, beta), (0, -1), contact_stream_data(prob)):
        path = sd.p_ref + moc._GL_X[:, None] * (p[:, node] - sd.p_ref)
        expect = 1.0 / (2.0 * (moc._GL_W @ gas_reference.dtheta_dp(path, sd)))
        assert np.array_equal(got, expect)


def test_first_contraction_ratio_is_linear_in_eps():
    # The outer iteration contracts at a rate proportional to the data size:
    # the first gap ratio is about 0.143 eps on 201x51, with log-log slope 1.
    eps = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)
    first = np.array([solved(e, 201, 51)[5]["ratio"][1] for e in eps])
    eps = np.array(eps)
    slope = np.polyfit(np.log(eps), np.log(first), 1)[0]
    assert 0.95 <= slope <= 1.05
    assert np.all((first / eps >= 0.136) & (first / eps <= 0.150))


def test_first_iterate_misses_the_solution_by_eps_squared():
    # The first outer iterate is the linearised (Ackeret) solution; the
    # converged one differs from it by O(eps^2), so doubling eps quadruples
    # the gap (3.97-3.99 per doubling on 201x51).
    gaps = []
    for eps in (1e-3, 2e-3, 4e-3, 8e-3):
        cfg, geom, profile, prob, grid, history = solved(eps, 201, 51)
        first = moc.solve_linearized(moc.InvariantGrid.background(prob), prob)
        gaps.append(max(np.max(np.abs(grid.zm - first.zm)), np.max(np.abs(grid.zp - first.zp))))
    ratios = np.array(gaps[1:]) / np.array(gaps[:-1])
    assert np.all((ratios >= 3.5) & (ratios <= 4.5)), ratios


def test_coupling_gamma_algebra_exact():
    cfg, geom, profile, prob, grid, history = solved(1e-3, 101, 26)
    _, _, gamma1, gamma2, gamma3 = moc.coupling_coefficients(grid, prob)
    assert np.max(np.abs(gamma2 + gamma3 - 2.0)) < 1e-15
    assert np.max(np.abs(gamma2 - gamma3 - 2.0 * gamma1)) < 1e-15
    assert np.all((gamma2 > 0) & (gamma2 < 2))
    assert np.all(np.abs(gamma1) < 1.0)


def test_coupling_equal_layers_give_symmetric_weights():
    # identical layers force alpha = beta, hence gamma1 = 0, gamma2 = gamma3 = 1
    bg = BackgroundState(u_a=2.2, rho_a=1.0, u_b=2.2, rho_b=1.0, p=1.0)
    cfg, geom, profile = fixtures.perturbed_inputs(0.0, background=bg, nxi=40, neta=10)
    prob, _ = cli.build_pipeline(cfg, geom, profile)
    _, _, gamma1, gamma2, gamma3 = moc.coupling_coefficients(moc.InvariantGrid.background(prob),
                                                             prob)
    assert np.max(np.abs(gamma1)) < 1e-14
    assert np.max(np.abs(gamma2 - 1.0)) < 1e-14
    assert np.max(np.abs(gamma3 - 1.0)) < 1e-14


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
def test_background_invariants_invert_to_p_ref_on_the_contact(eps):
    # The contact closure is homogeneous in the invariants: the background's,
    # zero, invert to the reference pressure against the perturbed stream
    # data on either side of the contact.
    cfg, geom, profile, prob = assemble(eps, 60, 12)
    for sd in contact_stream_data(prob):
        p = sd.primitives(*sd.mach(*np.zeros(2)))[2]
        assert p == pytest.approx(cfg.background.p, abs=1e-12)


# ---------------------------------------------------------------------------
# characteristic tracing


def test_trace_straight_line_for_constant_field():
    cfg, geom, profile, prob = assemble(0.0, 60, 12)
    frozen = moc.frozen_lambdas(moc.InvariantGrid.background(prob), prob)
    path = trace_characteristic(frozen, prob.domain, "a", "+", (0.0, 0.0))
    lam = frozen.lam_p[0, 0]  # the contact node of layer a
    expect = np.minimum(lam * path.xi, prob.domain.eta_a[-1])
    assert np.max(np.abs(path.eta - expect)) < 1e-12
    assert path.event == "wall"
    assert path.xi[-1] == pytest.approx(prob.domain.eta_a[-1] / lam, abs=1e-10)


def test_trace_wall_hits_of_converged_field():
    # the corner characteristics of the converged frozen field reach the
    # walls close to where the background's straight rays do
    cfg, geom, profile, prob, grid, history = solved(1e-3, 101, 26)
    frozen = moc.frozen_lambdas(grid, prob)
    hit_a = trace_characteristic(frozen, prob.domain, "a", "+", (0.0, 0.0))
    hit_b = trace_characteristic(frozen, prob.domain, "b", "-", (0.0, 0.0))
    assert (hit_a.event, hit_b.event) == ("wall", "wall")
    lam_a = 1.0 * 2.2 * np.sqrt(1.4) / np.sqrt(2.2**2 - 1.4)
    assert hit_a.xi[-1] == pytest.approx(2.2 / lam_a, rel=5e-3)
    c_b = np.sqrt(1.4 / 1.2)
    lam_b = 1.2 * 1.9 * c_b / np.sqrt(1.9**2 - c_b**2)
    assert hit_b.xi[-1] == pytest.approx(2.28 / lam_b, rel=5e-3)


def test_trace_back_and_forth_second_order():
    cfg, geom, profile, prob, grid, history = solved(1e-3, 101, 26)
    frozen = moc.frozen_lambdas(grid, prob)

    def round_trip_error(steps):
        start = (0.0, 0.25 * prob.domain.eta_a[-1])
        fwd = trace_characteristic(frozen, prob.domain, "a", "+", start, max_steps=steps)
        assert fwd.event == "end"
        end = (fwd.xi[-1], fwd.eta[-1])
        back = trace_characteristic(frozen, prob.domain, "a", "+", end,
                                    direction=-1, max_steps=steps)
        return abs(back.eta[0] - start[1])

    # the perturbation is smooth and O(eps); the retrace must come back far
    # below the eta spacing
    assert round_trip_error(15) < 1e-6 * prob.domain.eta_a[-1]


# ---------------------------------------------------------------------------
# linearized march


def test_step_background_is_fixed_point():
    cfg, geom, profile, prob = assemble(0.0, 60, 12)
    grid = moc.InvariantGrid.background(prob)
    out = moc.solve_linearized(grid, prob)
    assert np.array_equal(out.zm, grid.zm)
    assert np.array_equal(out.zp, grid.zp)


def test_one_march_imposes_wall_closure_exactly():
    cfg, geom, profile, prob = assemble(1e-3, 101, 26)
    out = moc.solve_linearized(moc.InvariantGrid.background(prob), prob)
    wall = out.zm_a[1:, -1] + out.zp_a[1:, -1] - 2.0 * prob.wall_angle_plus[1:]
    assert np.max(np.abs(wall)) < 1e-12
    wall_b = out.zm_b[1:, 0] + out.zp_b[1:, 0] - 2.0 * prob.wall_angle_minus[1:]
    assert np.max(np.abs(wall_b)) < 1e-12


def test_contact_closure_specialization_gamma1_zero(rng):
    """With gamma1 = 0, ``close_row`` reduces the contact coupling to a swap
    of the incoming invariants scaled by gamma3 / gamma2, exactly, and
    reflects both walls."""
    na, nb = 4, 3
    zm, zp = rng.normal(size=(2, na + nb))
    z_in_a, z_in_b = zp[0], zm[-1]
    angle_plus, angle_minus, g2, g3 = 0.01, -0.02, 0.9, 1.1
    moc.close_row(zm, zp, na, angle_plus, angle_minus, 0.0, g2, g3)
    assert zm[0] == g3 * z_in_b
    assert zp[-1] == g2 * z_in_a
    assert zp[na - 1] == 2.0 * angle_plus - zm[na - 1]
    assert zm[na] == 2.0 * angle_minus - zp[na]


def test_step_against_dense_characteristic_fan():
    """Single linearized step vs brute-force backward tracing through the
    frozen field (fine sub-stepped integration, analytic slab data); the
    difference must shrink at second order in the eta spacing."""
    lam_a = 1.0 * 2.2 * np.sqrt(1.4) / np.sqrt(2.2**2 - 1.4)

    def step_error(neta, nxi):
        cfg, geom, profile, prob = assemble(0.0, nxi, neta)
        dom = prob.domain
        (_, eta, a), _ = dom.layers

        def lam_field(xi, e):
            return lam_a * (1.0 + 0.05 * np.sin(2.0 * np.pi * e / dom.eta_a[-1]) + 0.02 * xi)

        def z_data(e):
            return 1e-3 * np.cos(3.0 * np.pi * e / dom.eta_a[-1])

        lam_p = np.full((dom.xi.size, eta.size + dom.eta_b.size), lam_a)
        lam_p[:, a] = lam_field(dom.xi[:, None], eta[None, :])
        frozen = moc.FrozenField(lam_m=-lam_p, lam_p=lam_p)
        cc = moc.coupling_coefficients(moc.InvariantGrid.background(prob), prob)
        plan = moc.plan_march(frozen, dom)
        k = 40
        z = np.zeros(2 * lam_p.shape[1])  # zm | zp
        z[a] = z_data(eta)
        new = moc.step_linearized(prob, plan, cc, k, z)[a]
        feet = []
        for e in eta[1:]:
            pos = e
            xi_now = dom.xi[k + 1]
            h = dom.dxi / 200.0
            for _ in range(200):
                mid = pos - 0.5 * h * lam_field(xi_now, pos)
                pos = pos - h * lam_field(xi_now - 0.5 * h, mid)
                xi_now -= h
            feet.append(pos)
        oracle = z_data(np.array(feet))
        return np.max(np.abs(new[1:] - oracle))

    e_coarse = step_error(26, 101)
    e_fine = step_error(51, 201)
    assert e_fine < e_coarse
    assert e_coarse / e_fine > 3.0  # ~4 expected for an O(deta^2) step


def _per_slab_march(prob, frozen, weights, hits):
    """The march one slab at a time, tracing every foot inside the step and
    evaluating the written-out cubic there: the reference the planned,
    stacked march must reproduce bit for bit.  Counts interior midpoints
    and feet that land exactly on a node, and boundary rows whose midpoint
    and foot are both clipped, in ``hits``.  Returns the slabs (zm_a, zp_a,
    zm_b, zp_b)."""
    dom = prob.domain
    dxi = dom.dxi
    na = dom.eta_a.size
    a, b = slice(0, na), slice(na, None)
    lam_m_a, lam_p_a = frozen.lam_m[:, a], frozen.lam_p[:, a]
    lam_m_b, lam_p_b = frozen.lam_m[:, b], frozen.lam_p[:, b]
    _, _, gamma1, gamma2, gamma3 = weights

    def advect(eta, z_old, lam_old, lam_new):
        mid = np.clip(eta - 0.5 * dxi * lam_new, eta[0], eta[-1])
        lam_mid = 0.5 * (np.interp(mid, eta, lam_old) + np.interp(mid, eta, lam_new))
        feet = eta - dxi * lam_mid
        hits["mid"] += int(np.isin(mid[1:-1], eta).sum())
        hits["feet"] += int(np.isin(feet[1:-1], eta).sum())
        hits["clipped"] += int(mid[0] == eta[0] and feet[0] < eta[0])
        hits["clipped"] += int(mid[-1] == eta[-1] and feet[-1] > eta[-1])
        return plain_cubic(eta[0], eta[1] - eta[0], z_old, np.clip(feet, eta[0], eta[-1]))

    zm0, zp0 = prob.inlet_z
    rows = [[zm0[a]], [zp0[a]], [zm0[b]], [zp0[b]]]
    ea, eb = dom.eta_a, dom.eta_b
    for k in range(dom.xi.size - 1):
        zm_a = advect(ea, rows[0][-1], lam_p_a[k], lam_p_a[k + 1])
        zp_a = advect(ea, rows[1][-1], lam_m_a[k], lam_m_a[k + 1])
        zm_b = advect(eb, rows[2][-1], lam_p_b[k], lam_p_b[k + 1])
        zp_b = advect(eb, rows[3][-1], lam_m_b[k], lam_m_b[k + 1])
        zp_a[-1] = 2.0 * prob.wall_angle_plus[k + 1] - zm_a[-1]
        zm_b[0] = 2.0 * prob.wall_angle_minus[k + 1] - zp_b[0]
        g1, g2, g3 = gamma1[k + 1], gamma2[k + 1], gamma3[k + 1]
        zm_a[0] = g1 * zp_a[0] + g3 * zm_b[-1]
        zp_b[-1] = g2 * zp_a[0] - g1 * zm_b[-1]
        for row, z in zip(rows, (zm_a, zp_a, zm_b, zp_b)):
            row.append(z)
    return [np.array(row) for row in rows]


@pytest.mark.parametrize("speeds", ["random", "tiny", "cfl-one"])
@pytest.mark.parametrize("neta_a,neta_b", [(12, 17), (19, 6)])
def test_stacked_march_bit_equal_to_per_slab_march(monkeypatch, speeds, neta_a, neta_b):
    cfg, geom, profile = fixtures.perturbed_inputs(1e-3, nxi=60, neta=neta_a)
    cfg = dataclasses.replace(cfg, grid_neta_b=neta_b)
    prob, _ = cli.build_pipeline(cfg, geom, profile)
    dom = prob.domain
    nxi = dom.xi.size
    rng = np.random.default_rng(neta_a * 100 + neta_b)

    def speed(eta, sign):
        """Frozen speeds of one sign with max|lambda| dxi <= deta."""
        cap = (eta[1] - eta[0]) / dom.dxi
        if speeds == "cfl-one":  # feet one deta upstream, up to rounding
            return np.full((nxi, eta.size), sign * cap)
        lam = rng.uniform(0.05, 1.0, (nxi, eta.size)) * cap
        if speeds == "tiny":
            # midpoints and feet on their own nodes: eta - tiny == eta
            lam[rng.uniform(size=lam.shape) < 0.4] = 1e-200
        return sign * lam

    lam_m_a, lam_p_a, lam_m_b, lam_p_b = (speed(eta, sign) for eta in (dom.eta_a, dom.eta_b)
                                          for sign in (-1.0, 1.0))
    frozen = moc.FrozenField(lam_m=np.hstack([lam_m_a, lam_m_b]),
                             lam_p=np.hstack([lam_p_a, lam_p_b]))
    moc.check_cfl(frozen, dom)
    alpha, beta = rng.uniform(0.5, 2.0, nxi), rng.uniform(0.5, 2.0, nxi)
    weights = (alpha, beta, (alpha - beta) / (alpha + beta), 2.0 * alpha / (alpha + beta),
               2.0 * beta / (alpha + beta))
    inlet_a = [1e-3 * rng.normal(size=neta_a) for _ in range(2)]
    inlet_b = [1e-3 * rng.normal(size=neta_b) for _ in range(2)]
    prob = dataclasses.replace(prob, inlet_z=np.array(
        [np.concatenate(pair) for pair in zip(inlet_a, inlet_b)]))

    hits = {"mid": 0, "feet": 0, "clipped": 0}
    ref = _per_slab_march(prob, frozen, weights, hits)
    # solve_linearized marches the speeds and weights it freezes on prev
    monkeypatch.setattr(moc, "frozen_lambdas", lambda *_: frozen)
    monkeypatch.setattr(moc, "coupling_coefficients", lambda *_: weights)
    ours = moc.solve_linearized(moc.InvariantGrid.background(prob), prob)
    for name, r in zip(("zm_a", "zp_a", "zm_b", "zp_b"), ref):
        o = getattr(ours, name)
        assert o.shape == r.shape, name
        assert np.array_equal(o, r), name
    # each slab's upstream boundary row has its midpoint and foot clipped
    # to eta[0] (lambda_+ slabs) or eta[-1] (lambda_- slabs) at every step,
    # save where a tiny speed leaves both on the boundary node
    if speeds == "tiny":
        assert 0 < hits["clipped"] < 4 * (nxi - 1)
        assert hits["mid"] > 100 and hits["feet"] > 100
    else:
        assert hits["clipped"] == 4 * (nxi - 1)


@pytest.mark.parametrize("nxi,neta", [(101, 26), (201, 51)])
def test_march_plan_stays_within_twice_the_three_array_plan(nxi, neta):
    """The plan once held ``base``, ``cell`` and ``s``: 3 (nxi-1) 2n 8-byte
    entries.  Its four int32 stencil rows and ``s`` fit that, 24 bytes a
    node-step, and precomputing more per node-step (the twelve Lagrange
    factors would be 12 more) must not grow it past."""
    _, _, _, prob = assemble(1e-3, nxi, neta)
    arrays = moc.plan_march(moc.frozen_lambdas(moc.InvariantGrid.background(prob), prob),
                            prob.domain)
    assert all(a.base is None for a in arrays)  # no array views a larger one
    width = prob.line.a0.size * 2  # the march row zm | zp
    assert sum(a.nbytes for a in arrays) <= 3 * (nxi - 1) * width * 8


def test_march_call_counts(monkeypatch):
    """``plan_march`` reads each frozen row once per family and layer, at
    most 4 nxi ``np.interp`` calls, and the march makes exactly nxi - 1
    ``step_linearized`` calls (what perfbench counts as ``moc.slab_steps``)."""
    _, _, _, prob = assemble(1e-3, 60, 12)
    frozen = moc.frozen_lambdas(moc.InvariantGrid.background(prob), prob)
    nxi = prob.domain.xi.size
    calls = {"interp": 0, "step": 0}
    real_interp, real_step = np.interp, moc.step_linearized

    def interp_counted(*args, **kwargs):
        calls["interp"] += 1
        return real_interp(*args, **kwargs)

    def step_counted(*args):
        calls["step"] += 1
        return real_step(*args)

    monkeypatch.setattr(np, "interp", interp_counted)
    monkeypatch.setattr(moc, "step_linearized", step_counted)
    moc.plan_march(frozen, prob.domain)
    assert 0 < calls["interp"] <= 4 * nxi
    calls["interp"] = 0
    moc.solve_linearized(moc.InvariantGrid.background(prob), prob)
    assert 0 < calls["interp"] <= 4 * nxi
    assert calls["step"] == nxi - 1


def test_solve_outputs_lipschitz_in_prev():
    cfg, geom, profile, prob = assemble(1e-3, 101, 26)
    base = moc.InvariantGrid.background(prob)
    (_, eta_a, a), _ = prob.domain.layers
    noise = 1e-4 * np.sin(np.linspace(0, 3, eta_a.size))
    pert = moc.InvariantGrid(prob.domain, base.zm.copy(), base.zp.copy())
    pert.zm[:, a] += noise
    pert.zp[:, a] -= 0.5 * noise
    out0 = moc.solve_linearized(base, prob)
    out1 = moc.solve_linearized(pert, prob)
    d_prev = np.max(np.abs(pert.zm - base.zm))
    d_out = max(np.max(np.abs(out1.zm - out0.zm)), np.max(np.abs(out1.zp - out0.zp)))
    # the map contracts strongly near the background: output differences are
    # an epsilon-sized fraction of the input difference
    assert d_out < 0.05 * d_prev


# ---------------------------------------------------------------------------
# fixed point and residuals


def test_fixed_point_background_one_iteration():
    cfg, geom, profile, prob = assemble(0.0, 101, 26)
    grid, history = moc.fixed_point(prob, fp_tol=cfg.fp_tol, max_fp_iters=cfg.max_fp_iters)
    assert history["c1_gap"] == [0.0]


def test_background_off_unit_pressure_is_exactly_zero():
    """On a background at p = 1.29 (where numpy's scalar and array powers of
    p_ref differ) the eps = 0 solve and the oracle stay exactly at the
    background's invariants, zero."""
    p = 1.29
    bg = BackgroundState(u_a=2.2 * np.sqrt(p), rho_a=1.0, u_b=1.9 * np.sqrt(p), rho_b=1.2, p=p)
    cfg, geom, profile = fixtures.perturbed_inputs(0.0, background=bg, nxi=140, neta=35)
    prob, grid, history, _ = solve_pipeline(cfg, geom, profile)
    assert not grid.zm.any() and not grid.zp.any()
    assert history["c0_gap"][-1] == history["c1_gap"][-1] == 0.0
    out = oracle.upwind_march(prob)
    assert not out.zm.any() and not out.zp.any()


def test_fixed_point_gaps_decrease_and_converge():
    cfg, geom, profile, prob, grid, history = solved(1e-3, 101, 26)
    gaps = history["c1_gap"]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= cfg.fp_tol
    assert all(r <= 0.9 for r in history["ratio"][1:])


def test_exact_simple_wave_refinement():
    """Both solvers against the exact simple wave of a bumped upper wall
    (``tests/simple_wave.py``) on (61, 51) and (121, 101).  The sup error in
    layer a's z_plus falls at order 2.12 for the fixed point (1.03e-3 to
    2.38e-4) and 0.66 for the first-order oracle (1.01e-2 to 6.40e-3).  The
    fixed point's z_minus in layer a and z in layer b, zero in the exact
    solution, fall by 5.5 and 5.5 (1.2e-7 to 2.2e-8, 7.9e-6 to 1.4e-6)."""
    errors, rests = [], []
    for nxi, neta in ((61, 51), (121, 101)):
        cfg, geom, profile = simple_wave.inputs(nxi, neta)
        prob, _ = cli.build_pipeline(cfg, geom, profile)
        exact = simple_wave.z_plus(cfg, prob.domain)
        grid, _ = moc.fixed_point(prob, fp_tol=cfg.fp_tol, max_fp_iters=cfg.max_fp_iters)
        march = oracle.upwind_march(prob)
        (_, _, a), (_, _, b) = prob.domain.layers
        errors.append([np.max(np.abs(g.zp[:, a] - exact)) for g in (grid, march)])
        rests.append([np.max(np.abs(grid.zm[:, a])),
                      max(np.max(np.abs(grid.zm[:, b])), np.max(np.abs(grid.zp[:, b])))])
    fp_order, oracle_order = np.log2(np.divide(*errors))
    assert fp_order >= 1.9, errors
    assert oracle_order >= 0.5, errors
    assert np.all(np.divide(*rests) >= 4.0), rests


def test_converged_grid_inverts_from_cold_in_few_sweeps():
    # Starting at s(p_ref), Newton in s = sqrt(M^2-1) converges on every node
    # of an O(eps) grid in two sweeps; converged nodes take no further step.
    cfg, geom, profile, prob, grid, history = solved(1e-3, 140, 35)
    line = prob.line
    cold = gas.Streamline(line.a0, line.b0, line.p_ref, line.gamma, line.newton_tol,
                          max_newton_iters=3)
    p = cold.primitives(*cold.mach(grid.zm, grid.zp))[2]
    assert np.array_equal(p, moc.grid_states(grid, prob).p)


def test_fixed_point_no_convergence_has_its_code():
    cfg, geom, profile, prob = assemble(1e-3, 101, 26)
    with pytest.raises(moc.SolverError, match="^no-convergence: .* within 2 iterations"):
        moc.fixed_point(prob, fp_tol=1e-30, max_fp_iters=2)


@pytest.mark.parametrize("stage,code", [("check_cfl", "cfl"),
                                        ("coupling_coefficients", "sonic-limit"),
                                        ("frozen_lambdas", "degenerate")])
def test_failure_inside_an_iteration_keeps_its_code(monkeypatch, stage, code):
    # the first iteration completes; the second fails inside solve_linearized
    cfg, geom, profile, prob = assemble(1e-3, 109, 40)
    real = getattr(moc, stage)
    calls = []

    def fail_on_second(*args):
        calls.append(1)
        if len(calls) == 2:
            raise moc.SolverError(f"{code}: injected on the second frozen field")
        return real(*args)

    monkeypatch.setattr(moc, stage, fail_on_second)
    with pytest.raises(moc.SolverError, match=f"^{code}: injected"):
        moc.fixed_point(prob, fp_tol=cfg.fp_tol, max_fp_iters=cfg.max_fp_iters)
    assert len(calls) == 2


def test_nonpositive_coupling_weights_stop_both_marches(monkeypatch):
    """A contact dTheta/dp of inf gives alpha = beta = 0: the fixed point and
    the oracle, whose weights both come from ``contact_weights``, stop with
    the same degenerate error."""
    _, _, _, prob = assemble(1e-3, 60, 12)
    monkeypatch.setattr(prob.contact, "dtheta_dp", lambda p: np.full(p.shape, np.inf))
    message = "^degenerate: coupling coefficients must be positive$"
    with pytest.raises(moc.SolverError, match=message):
        moc.fixed_point(prob, fp_tol=1e-10, max_fp_iters=5)
    with pytest.raises(moc.SolverError, match=message):
        oracle.upwind_march(prob)


def test_supersonic_margin_guard():
    cfg, geom, profile, prob = assemble(0.0, 60, 12)
    prob.min_supersonic_margin = 5.0  # impossible margin
    with pytest.raises(moc.SolverError, match="left-supersonic-regime"):
        moc.fixed_point(prob, fp_tol=1e-10, max_fp_iters=5)


def test_wall_and_contact_identities_at_convergence():
    _check_wall_and_contact_identities(*solved(1e-3, 101, 26)[3:5])


def test_wall_and_contact_identities_at_unequal_layers():
    # The row a | b puts the walls at na-1 | na; unequal layers catch an
    # index taken from the wrong layer.
    prob, grid = solved(1e-2, 161, (21, 34))[3:5]
    assert grid.zm_a.shape[1] == 21 and grid.zm_b.shape[1] == 34
    _check_wall_and_contact_identities(prob, grid)


def _check_wall_and_contact_identities(prob, grid):
    # imposed closures hold to machine precision
    wall = grid.zm_a[1:, -1] + grid.zp_a[1:, -1] - 2.0 * prob.wall_angle_plus[1:]
    assert np.max(np.abs(wall)) < 1e-14
    wall_b = grid.zm_b[1:, 0] + grid.zp_b[1:, 0] - 2.0 * prob.wall_angle_minus[1:]
    assert np.max(np.abs(wall_b)) < 1e-14
    # one more march from the solution: its contact entries are the
    # gamma-weighted coupling with the weights frozen on the solution
    _, _, gamma1, gamma2, gamma3 = moc.coupling_coefficients(grid, prob)
    out = moc.solve_linearized(grid, prob)
    zm_a, zp_a = out.zm_a[1:, 0], out.zp_a[1:, 0]
    zm_b, zp_b = out.zm_b[1:, -1], out.zp_b[1:, -1]
    r1 = zm_a - (gamma1[1:] * zp_a + gamma3[1:] * zm_b)
    r2 = zp_b - (gamma2[1:] * zp_a - gamma1[1:] * zm_b)
    assert np.max(np.abs(r1)) < 1e-15
    assert np.max(np.abs(r2)) < 1e-15
    # derived interface conditions
    res = moc.residual_check(grid, prob)
    assert res["wall_slip"] < 1e-12
    assert res["contact_w_jump"] < 1e-12
    assert res["contact_p_jump"] < 1e-8


def _mirrored(cfg, geom, profile):
    """The input mirrored in y -> -y: the layers swapped, each inlet table
    reflected with v negated, g_plus swapped with -g_minus, and layer a's
    background (u, rho) and node count swapped with layer b's."""
    def reflect(layer):
        return config.InletLayer(y=0.0 - layer.y[::-1], u=layer.u[::-1], v=-layer.v[::-1],
                                 p=layer.p[::-1], rho=layer.rho[::-1])

    def negated(wall):
        return config.WallCurve.from_expression(f"-({wall.serialization()[1]})")

    bg = cfg.background
    cfg = dataclasses.replace(cfg, grid_neta_a=cfg.grid_neta_b, grid_neta_b=cfg.grid_neta_a,
                              background=BackgroundState(u_a=bg.u_b, rho_a=bg.rho_b, u_b=bg.u_a,
                                                         rho_b=bg.rho_a, p=bg.p))
    return (cfg, config.NozzleGeometry(negated(geom.g_plus), negated(geom.g_minus), geom.L),
            config.InletProfile(reflect(profile.layer_b), reflect(profile.layer_a)))


def test_solution_respects_the_mirror_symmetry():
    """The steady Euler equations are invariant under y -> -y with v -> -v,
    so the mirrored input has the mirrored solution: the row a | b reversed,
    z_minus taking the place of -z_plus.  The two solvers of acceptance #7
    share ``close_row`` and ``contact_weights``; a sign slip in either
    breaks this symmetry but not their agreement, so both the fixed point
    and the upwind oracle are checked.  The layers differ in size, so an
    index taken from the wrong layer shows too."""
    cfg, geom, profile = fixtures.perturbed_inputs(1e-3, nxi=140, neta=35)
    cfg = dataclasses.replace(cfg, grid_neta_b=42)
    prob, grid, _, field = solve_pipeline(cfg, geom, profile)
    prob_m, grid_m, _, field_m = solve_pipeline(*_mirrored(cfg, geom, profile))
    assert grid_m.zm_a.shape[1] == 42 and grid_m.zm_b.shape[1] == 35
    # The invariants to a few ulps (3 measured for either solver).
    ulps = 8 * np.spacing(1.0)
    for a, b in ((grid, grid_m), (oracle.upwind_march(prob), oracle.upwind_march(prob_m))):
        assert np.max(np.abs(b.zm + a.zp[:, ::-1])) <= ulps
        assert np.max(np.abs(b.zp + a.zm[:, ::-1])) <= ulps
    # The states to the Newton tolerance (3.2e-15 measured).
    for name, sign in (("u", 1.0), ("v", -1.0), ("p", 1.0), ("rho", 1.0)):
        got, want = getattr(field_m.state, name), sign * getattr(field.state, name)[:, ::-1]
        assert np.max(np.abs(got - want)) <= 10 * cfg.newton_tol
    # Both reconstructions integrate y up from their own lower wall, so the
    # mirrored ordinates differ by the reconstruction error that each run's
    # top_gap measures at the upper wall.  Inside the column it reaches 1.2
    # times their sum (1.16e-9 against 5.0e-10 + 4.6e-10).
    gaps = field.top_gap + field_m.top_gap
    assert np.max(np.abs(field_m.y + field.y[:, ::-1])) <= 2.0 * gaps


def _rescaled(cfg, geom, profile, vel=1.0, dens=1.0, length=1.0):
    """The input with velocities times ``vel``, densities times ``dens``,
    pressures times dens vel^2 and lengths (y, the walls and L) times
    ``length``: the same flow in other units."""
    p_scale = dens * vel * vel

    def layer(table):
        return config.InletLayer(y=length * table.y, u=vel * table.u, v=vel * table.v,
                                 p=p_scale * table.p, rho=dens * table.rho)

    def wall(curve):
        if length == 1.0:
            return curve
        text = re.sub(r"\bx\b", f"(x / {length!r})", curve.serialization()[1])
        return config.WallCurve.from_expression(f"{length!r} * ({text})")

    bg = cfg.background
    cfg = dataclasses.replace(cfg, background=BackgroundState(
        u_a=vel * bg.u_a, rho_a=dens * bg.rho_a, u_b=vel * bg.u_b, rho_b=dens * bg.rho_b,
        p=p_scale * bg.p))
    return (cfg, config.NozzleGeometry(wall(geom.g_minus), wall(geom.g_plus), length * geom.L),
            config.InletProfile(layer(profile.layer_a), layer(profile.layer_b)))


@functools.lru_cache(maxsize=None)
def _similarity_base():
    """The 140x35 fixture's solve and oracle march, shared by the cases."""
    inputs = fixtures.perturbed_inputs(1e-3, nxi=140, neta=35)
    run = solve_pipeline(*inputs)
    return inputs, run, oracle.upwind_march(run[0])


@pytest.mark.parametrize("kind", [{"vel": 1.7}, {"dens": 1.7}, {"length": 3.0}],
                         ids=["velocity", "density", "length"])
def test_solution_respects_the_similarity_of_the_euler_equations(kind):
    """The steady Euler equations keep their form when velocity is scaled by
    k with p by k^2, when density and p are scaled by k, and when every
    length is scaled by s.  The Mach number and the flow angle do not move,
    so the invariants of both solvers agree to a few ulps: 3.0, 4.0 and
    0.0 ulps measured for the fixed point and the oracle alike.  The
    rescaled states and ordinates agree with the base ones; measured, the
    states to 3.8e-15 and y to 2.9e-15."""
    inputs, run, marched = _similarity_base()
    cfg = inputs[0]
    _, grid, _, field = run
    prob_s, grid_s, _, field_s = solve_pipeline(*_rescaled(*inputs, **kind))
    ulps = 8 * np.spacing(1.0)
    for a, b in ((grid, grid_s), (marched, oracle.upwind_march(prob_s))):
        assert np.max(np.abs(b.zm - a.zm)) <= ulps
        assert np.max(np.abs(b.zp - a.zp)) <= ulps
    vel, dens, length = (kind.get(name, 1.0) for name in ("vel", "dens", "length"))
    for name, scale in (("u", vel), ("v", vel), ("p", dens * vel * vel), ("rho", dens)):
        got, want = getattr(field_s.state, name) / scale, getattr(field.state, name)
        assert np.max(np.abs(got - want)) <= 10 * cfg.newton_tol
    assert np.max(np.abs(field_s.y / length - field.y)) <= 64 * np.spacing(1.0)


def test_residual_background_zero():
    cfg, geom, profile, prob = assemble(0.0, 60, 12)
    grid = moc.InvariantGrid.background(prob)
    rep = moc.residual_check(grid, prob)
    assert rep["residual_sup"] == 0.0
    assert rep["wall_slip"] == 0.0
    assert rep["contact_w_jump"] == 0.0


def test_residual_localizes_a_corrupted_node():
    cfg, geom, profile, prob = assemble(0.0, 60, 12)
    base = moc.InvariantGrid.background(prob)
    grid = moc.InvariantGrid(prob.domain, base.zm.copy(), base.zp.copy())
    k0, j0 = 20, 6  # node 6 of layer a
    grid.zm[k0, j0] += 1e-5
    res = moc.interior_residuals(grid, prob)["a-"]
    peak = np.unravel_index(np.argmax(res), res.shape)
    # residual rows start at k=1, columns at j=1
    assert abs(peak[0] + 1 - k0) <= 1 and abs(peak[1] + 1 - j0) <= 1
    mask = np.ones_like(res, dtype=bool)
    mask[max(peak[0] - 1, 0):peak[0] + 2, max(peak[1] - 1, 0):peak[1] + 2] = False
    assert np.max(res[mask]) <= 1e-14 * res[peak]


def test_iteration_csv_format(tmp_path):
    cfg, geom, profile, prob, grid, history = solved(1e-3, 101, 26)
    path = tmp_path / "iters.csv"
    moc.write_iteration_csv(history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,c0_gap,c1_gap,ratio"
    assert len(lines) == 1 + len(history["c1_gap"])
    gpath = tmp_path / "grid.csv"
    moc.write_grid_csv(grid, gpath)
    glines = gpath.read_text().splitlines()
    assert glines[0] == "xi,eta,layer,z_minus,z_plus"
    nxi = prob.domain.xi.size
    assert len(glines) == 1 + nxi * (prob.domain.eta_a.size + prob.domain.eta_b.size)


def test_z_deviation_halves_with_eps():
    def zdev(eps):
        cfg, geom, profile, prob, grid, history = solved(eps, 101, 26)
        return max(np.max(np.abs(grid.zm)), np.max(np.abs(grid.zp)))

    ratio = zdev(1e-3) / zdev(5e-4)
    assert ratio == pytest.approx(2.0, rel=0.10)


def test_residual_first_order_under_refinement():
    sups = []
    for nxi, neta in ((101, 26), (201, 51)):
        cfg, geom, profile, prob, grid, history = solved(1e-3, nxi, neta)
        sups.append(moc.residual_check(grid, prob)["residual_sup"])
    assert sups[1] < sups[0]
    assert sups[0] / sups[1] > 1.6  # ~2 for a first-order upwind residual


def test_self_convergence_sup_order_at_least_two():
    """Over 101x26 -> 201x51 -> 401x101 the sup of successive differences,
    restricted to the 101x26 nodes, falls at an observed order of at least
    2: the unlimited four-point cubic keeps the smooth solution's extrema."""
    def on_coarse_nodes(nxi, neta):
        _, _, _, prob, grid, _ = solved(1e-3, nxi, neta)
        r = (nxi - 1) // 100
        return np.concatenate([z[::r, cols][:, ::r] for z in (grid.zm, grid.zp)
                               for _, _, cols in prob.domain.layers], axis=1)

    z = [on_coarse_nodes(nxi, neta) for nxi, neta in ((101, 26), (201, 51), (401, 101))]
    d1, d2 = np.max(np.abs(z[1] - z[0])), np.max(np.abs(z[2] - z[1]))
    assert np.log2(d1 / d2) >= 2.0


def test_z_nearly_constant_along_frozen_characteristic():
    cfg, geom, profile, prob, grid, history = solved(1e-3, 201, 51)
    frozen = moc.frozen_lambdas(grid, prob)
    dom = prob.domain
    path = trace_characteristic(frozen, dom, "a", "+", (0.0, 0.3 * dom.eta_a[-1]), max_steps=40)
    assert path.event == "end"
    h = dom.eta_a[1] - dom.eta_a[0]
    vals = np.array([
        float(interp.cubic_eval(grid.zm_a[int(round(x / dom.dxi))],
                                *interp.cubic_stencil(dom.eta_a[0], h, dom.eta_a.size, e)))
        for x, e in zip(path.xi, path.eta)
    ])
    per_step = np.max(np.abs(np.diff(vals)))
    assert per_step < dom.dxi * h * h  # interpolated z varies well below O(dxi deta^2)


def test_cfl_bound_checked_at_build_with_smallest_nxi(monkeypatch):
    # 109 is the smallest nxi the first iteration's march accepts at neta = 40
    _, _, _, prob = assemble(1e-3, 109, 40)
    moc.solve_linearized(moc.InvariantGrid.background(prob), prob)
    with pytest.raises(moc.SolverError, match=r"^cfl: .*smallest valid nxi is 109"):
        assemble(1e-3, 108, 40)
    # without the build-time check the march rejects the same lattice
    with monkeypatch.context() as m:
        m.setattr(moc, "check_cfl", lambda frozen, domain: None)
        _, _, _, prob = assemble(1e-3, 108, 40)
    with pytest.raises(moc.SolverError, match=r"^cfl: .*smallest valid nxi is 109"):
        moc.solve_linearized(moc.InvariantGrid.background(prob), prob)


def test_cfl_checked_on_every_frozen_field():
    # The lattice passes the build check, but a previous iterate with a
    # raised pressure in layer b (closer to sonic, so faster characteristics)
    # freezes speeds that break max|lambda| dxi <= deta.
    _, _, _, prob = assemble(1e-3, 109, 40)
    prev = moc.InvariantGrid.background(prob)
    _, (_, _, b) = prob.domain.layers
    bump = 0.02
    prev.zm[:, b] += bump
    prev.zp[:, b] -= bump
    with pytest.raises(moc.SolverError, match=r"^cfl: .* in layer b at nxi = 109") as err:
        moc.solve_linearized(prev, prob)
    nxi_min = int(str(err.value).rsplit(" ", 1)[1])
    assert nxi_min > 109


@pytest.mark.parametrize("which", ["lambda_plus", "lambda_minus"])
def test_frozen_field_requires_one_incoming_family(which):
    lam = np.full((5, 4), 1.4)
    lam_m, lam_p = -lam, lam.copy()
    if which == "lambda_plus":
        lam_p[2, 3] = -0.1  # still above lambda_minus, but no longer outgoing
    else:
        lam_m[2, 3] = 0.0
    with pytest.raises(moc.SolverError, match="^degenerate: .*lambda_- < 0 < lambda_+"):
        moc.FrozenField(lam_m=lam_m, lam_p=lam_p)
