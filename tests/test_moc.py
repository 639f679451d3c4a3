import numpy as np
import pytest

from contactmoc import cli, gas, moc
from tests.conftest import assemble, solved

G = gas.GasConstants(1.4)


def test_frozen_lambdas_background_constant():
    cfg, geom, profile, prob = assemble(0.0, 60, 12)
    grid = moc.InvariantGrid.background(prob)
    frozen = moc.frozen_lambdas(grid, prob)
    lam_a = 1.0 * 2.2 * np.sqrt(1.4) / np.sqrt(2.2**2 - 1.4)
    assert np.max(np.abs(frozen.lam_p_a - lam_a)) < 1e-12
    assert np.max(np.abs(frozen.lam_m_a + lam_a)) < 1e-12
    c_b = np.sqrt(1.4 / 1.2)
    lam_b = 1.2 * 1.9 * c_b / np.sqrt(1.9**2 - c_b**2)
    assert np.max(np.abs(frozen.lam_p_b - lam_b)) < 1e-12


def test_frozen_lambdas_locality_of_perturbation():
    cfg, geom, profile, prob = assemble(0.0, 60, 12)
    base = moc.InvariantGrid.background(prob)
    bumped = moc.InvariantGrid(
        prob.domain, base.zm_a.copy(), base.zp_a.copy(), base.zm_b.copy(), base.zp_b.copy()
    )
    bumped.zm_a[7, 5] += 1e-4
    f0 = moc.frozen_lambdas(base, prob)
    f1 = moc.frozen_lambdas(bumped, prob)
    diff = np.abs(f1.lam_p_a - f0.lam_p_a)
    assert diff[7, 5] > 0.0
    diff[7, 5] = 0.0
    assert np.max(diff) == 0.0


def test_frozen_lambdas_match_direct_recomputation(rng):
    cfg, geom, profile, prob = solved(1e-3, 101, 26)[3], None, None, None
    cfg, geom, profile, prob, grid, report = solved(1e-3, 101, 26)
    frozen = moc.frozen_lambdas(grid, prob)
    st = moc.grid_states(grid, prob)
    ks = rng.integers(0, grid.zm_a.shape[0], 100)
    js = rng.integers(0, grid.zm_a.shape[1], 100)
    for k, j in zip(ks, js):
        state = gas.PrimitiveState(u=st["a"]["u"][k, j], v=st["a"]["v"][k, j],
                                   p=st["a"]["p"][k, j], rho=st["a"]["rho"][k, j])
        lam_m, lam_p = gas.lambda_pm(state, G)
        assert frozen.lam_p_a[k, j] == pytest.approx(lam_p, abs=1e-12)
        assert frozen.lam_m_a[k, j] == pytest.approx(lam_m, abs=1e-12)


# ---------------------------------------------------------------------------
# coupling coefficients


def test_coupling_background_values():
    cfg, geom, profile, prob = assemble(0.0, 60, 12)
    grid = moc.InvariantGrid.background(prob)
    cc = moc.coupling_coefficients(grid, prob)
    expect_a = 1.0 / (2.0 * gas.dtheta_dp(1.0, prob.sd_a.at(0.0), G))
    expect_b = 1.0 / (2.0 * gas.dtheta_dp(1.0, prob.sd_b.at(0.0), G))
    assert np.max(np.abs(cc.alpha - expect_a)) < 1e-13
    assert np.max(np.abs(cc.beta - expect_b)) < 1e-13


def test_coupling_gamma_algebra_exact():
    cfg, geom, profile, prob, grid, report = solved(1e-3, 101, 26)
    cc = report.last_coupling
    assert np.max(np.abs(cc.gamma2 + cc.gamma3 - 2.0)) < 1e-15
    assert np.max(np.abs(cc.gamma2 - cc.gamma3 - 2.0 * cc.gamma1)) < 1e-15
    assert np.all((cc.gamma2 > 0) & (cc.gamma2 < 2))
    assert np.all(np.abs(cc.gamma1) < 1.0)


def test_coupling_equal_layers_give_symmetric_weights():
    # identical layers force alpha = beta, hence gamma1 = 0, gamma2 = gamma3 = 1
    from contactmoc.config import BackgroundState
    from contactmoc import fixtures

    bg = BackgroundState(u_a=2.2, rho_a=1.0, u_b=2.2, rho_b=1.0, p=1.0)
    cfg, geom, profile = fixtures.perturbed_inputs(0.0, background=bg, nxi=40, neta=10)
    prob, _ = cli.build_pipeline(cfg, geom, profile)
    cc = moc.coupling_coefficients(moc.InvariantGrid.background(prob), prob)
    assert np.max(np.abs(cc.gamma1)) < 1e-14
    assert np.max(np.abs(cc.gamma2 - 1.0)) < 1e-14
    assert np.max(np.abs(cc.gamma3 - 1.0)) < 1e-14


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
def test_background_invariants_invert_to_p_ref_on_the_contact(eps):
    # The contact closure is homogeneous in the deviations from the
    # background: the background invariants invert to the reference pressure
    # against the perturbed stream data on either side of the contact.
    cfg, geom, profile, prob = assemble(eps, 60, 12)
    for zbar, sd in ((prob.zbar_a, prob.sd_a.at(0.0)), (prob.zbar_b, prob.sd_b.at(0.0))):
        p = gas.pressure_from_invariants(gas.InvariantPair(*zbar), sd, G)
        assert p == pytest.approx(cfg.background.p, abs=1e-12)


# ---------------------------------------------------------------------------
# characteristic tracing


def test_trace_straight_line_for_constant_field():
    cfg, geom, profile, prob = assemble(0.0, 60, 12)
    frozen = moc.frozen_lambdas(moc.InvariantGrid.background(prob), prob)
    path = moc.trace_characteristic(frozen, prob.domain, "a", "+", (0.0, 0.0))
    lam = frozen.lam_p_a[0, 0]
    expect = np.minimum(lam * path.xi, prob.domain.m_a)
    assert np.max(np.abs(path.eta - expect)) < 1e-12
    assert path.event == "wall"
    assert path.xi[-1] == pytest.approx(prob.domain.m_a / lam, abs=1e-10)


def test_trace_wall_hits_recorded_in_report():
    cfg, geom, profile, prob, grid, report = solved(1e-3, 101, 26)
    lam_a = 1.0 * 2.2 * np.sqrt(1.4) / np.sqrt(2.2**2 - 1.4)
    assert report.xi1_a_plus[-1] == pytest.approx(2.2 / lam_a, rel=5e-3)
    c_b = np.sqrt(1.4 / 1.2)
    lam_b = 1.2 * 1.9 * c_b / np.sqrt(1.9**2 - c_b**2)
    assert report.xi1_b_minus[-1] == pytest.approx(2.28 / lam_b, rel=5e-3)


def test_trace_back_and_forth_second_order():
    cfg, geom, profile, prob, grid, report = solved(1e-3, 101, 26)
    frozen = moc.frozen_lambdas(grid, prob)

    def round_trip_error(steps):
        start = (0.0, 0.25 * prob.domain.m_a)
        fwd = moc.trace_characteristic(frozen, prob.domain, "a", "+", start, max_steps=steps)
        assert fwd.event == "end"
        end = (fwd.xi[-1], fwd.eta[-1])
        back = moc.trace_characteristic(frozen, prob.domain, "a", "+", end,
                                        direction=-1, max_steps=steps)
        return abs(back.eta[0] - start[1])

    # the perturbation is smooth and O(eps); the retrace must come back far
    # below the eta spacing
    assert round_trip_error(15) < 1e-6 * prob.domain.m_a


# ---------------------------------------------------------------------------
# linearized march


def test_step_background_is_fixed_point():
    cfg, geom, profile, prob = assemble(0.0, 60, 12)
    grid = moc.InvariantGrid.background(prob)
    out, _, _ = moc.solve_linearized(grid, prob)
    assert np.array_equal(out.zm_a, grid.zm_a)
    assert np.array_equal(out.zp_a, grid.zp_a)
    assert np.array_equal(out.zm_b, grid.zm_b)
    assert np.array_equal(out.zp_b, grid.zp_b)


def test_one_march_imposes_wall_closure_exactly():
    cfg, geom, profile, prob = assemble(1e-3, 101, 26)
    out, _, _ = moc.solve_linearized(moc.InvariantGrid.background(prob), prob)
    wall = out.zm_a[1:, -1] + out.zp_a[1:, -1] - 2.0 * prob.wall_angle_plus[1:]
    assert np.max(np.abs(wall)) < 1e-12
    wall_b = out.zm_b[1:, 0] + out.zp_b[1:, 0] - 2.0 * prob.wall_angle_minus[1:]
    assert np.max(np.abs(wall_b)) < 1e-12


def test_contact_closure_specialization_gamma1_zero():
    # with gamma1 = 0 the closure reduces to a pure swap of the incoming
    # deviations scaled by gamma3 / gamma2
    cc = moc.CouplingCoefficients(
        alpha=np.full(3, 0.8), beta=np.full(3, 0.8),
        gamma1=np.zeros(3), gamma2=np.ones(3), gamma3=np.ones(3),
    )
    d_in_a, d_in_b = 1.3e-4, -0.7e-4
    out_a = cc.gamma1[1] * d_in_a + cc.gamma3[1] * d_in_b
    out_b = cc.gamma2[1] * d_in_a - cc.gamma1[1] * d_in_b
    assert out_a == pytest.approx(d_in_b, rel=1e-15)
    assert out_b == pytest.approx(d_in_a, rel=1e-15)


def test_step_against_dense_characteristic_fan():
    """Single linearized step vs brute-force backward tracing through the
    frozen field (fine sub-stepped integration, analytic slab data); the
    difference must shrink at second order in the eta spacing."""
    lam_a = 1.0 * 2.2 * np.sqrt(1.4) / np.sqrt(2.2**2 - 1.4)

    def step_error(neta, nxi):
        cfg, geom, profile, prob = assemble(0.0, nxi, neta)
        dom = prob.domain
        eta = dom.eta_a

        def lam_field(xi, e):
            return lam_a * (1.0 + 0.05 * np.sin(2.0 * np.pi * e / dom.m_a) + 0.02 * xi)

        def z_data(e):
            return 1e-3 * np.cos(3.0 * np.pi * e / dom.m_a)

        nxi = dom.xi.size
        lam_p_a = lam_field(dom.xi[:, None], eta[None, :])
        frozen = moc.FrozenField(
            lam_m_a=-lam_p_a, lam_p_a=lam_p_a,
            lam_m_b=np.full((nxi, dom.eta_b.size), -lam_a),
            lam_p_b=np.full((nxi, dom.eta_b.size), lam_a),
        )
        cc = moc.coupling_coefficients(moc.InvariantGrid.background(prob), prob)
        k = 40
        new = moc.step_linearized(prob, frozen, cc, k,
                                  z_data(eta) + prob.zbar_a[0], np.zeros_like(eta),
                                  np.zeros(dom.eta_b.size), np.zeros(dom.eta_b.size))[0]
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
        oracle = z_data(np.array(feet)) + prob.zbar_a[0]
        return np.max(np.abs(new[1:] - oracle))

    e_coarse = step_error(26, 101)
    e_fine = step_error(51, 201)
    assert e_fine < e_coarse
    assert e_coarse / e_fine > 3.0  # ~4 expected for an O(deta^2) step


def test_solve_outputs_lipschitz_in_prev():
    cfg, geom, profile, prob = assemble(1e-3, 101, 26)
    base = moc.InvariantGrid.background(prob)
    rng = np.random.default_rng(7)
    noise = 1e-4 * np.sin(np.linspace(0, 3, base.zm_a.shape[1]))
    pert = moc.InvariantGrid(prob.domain, base.zm_a + noise, base.zp_a - 0.5 * noise,
                             base.zm_b.copy(), base.zp_b.copy())
    out0, _, _ = moc.solve_linearized(base, prob)
    out1, _, _ = moc.solve_linearized(pert, prob)
    d_prev = np.max(np.abs(pert.zm_a - base.zm_a))
    d_out = max(np.max(np.abs(out1.zm_a - out0.zm_a)), np.max(np.abs(out1.zp_a - out0.zp_a)),
                np.max(np.abs(out1.zm_b - out0.zm_b)), np.max(np.abs(out1.zp_b - out0.zp_b)))
    # the map contracts strongly near the background: output differences are
    # an epsilon-sized fraction of the input difference
    assert d_out < 0.05 * d_prev


# ---------------------------------------------------------------------------
# fixed point and residuals


def test_fixed_point_background_one_iteration():
    cfg, geom, profile, prob = assemble(0.0, 101, 26)
    grid, report = moc.fixed_point(prob, fp_tol=cfg.fp_tol, max_fp_iters=cfg.max_fp_iters)
    assert report.iterations == 1
    assert report.converged
    assert report.c1_gaps == [0.0]


def test_fixed_point_gaps_decrease_and_converge():
    cfg, geom, profile, prob, grid, report = solved(1e-3, 101, 26)
    gaps = report.c1_gaps
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert report.converged
    assert all(r <= 0.9 for r in report.ratios)


def test_fixed_point_no_convergence_carries_report():
    cfg, geom, profile, prob = assemble(1e-3, 101, 26)
    with pytest.raises(moc.SolverError, match="no-convergence") as err:
        moc.fixed_point(prob, fp_tol=1e-30, max_fp_iters=2)
    assert err.value.report is not None
    assert err.value.report.iterations == 2


def test_supersonic_margin_guard():
    cfg, geom, profile, prob = assemble(0.0, 60, 12)
    prob.min_supersonic_margin = 5.0  # impossible margin
    with pytest.raises(moc.SolverError, match="left-supersonic-regime"):
        moc.fixed_point(prob, fp_tol=1e-10, max_fp_iters=5)


def test_wall_and_contact_identities_at_convergence():
    cfg, geom, profile, prob, grid, report = solved(1e-3, 101, 26)
    # imposed closures hold to machine precision
    wall = grid.zm_a[1:, -1] + grid.zp_a[1:, -1] - 2.0 * prob.wall_angle_plus[1:]
    assert np.max(np.abs(wall)) < 1e-14
    cc = report.last_coupling
    d_zm_a = grid.zm_a[1:, 0] - prob.zbar_a[0]
    d_zp_a = grid.zp_a[1:, 0] - prob.zbar_a[1]
    d_zm_b = grid.zm_b[1:, -1] - prob.zbar_b[0]
    d_zp_b = grid.zp_b[1:, -1] - prob.zbar_b[1]
    r1 = d_zm_a - (cc.gamma1[1:] * d_zp_a + cc.gamma3[1:] * d_zm_b)
    r2 = d_zp_b - (cc.gamma2[1:] * d_zp_a - cc.gamma1[1:] * d_zm_b)
    assert np.max(np.abs(r1)) < 1e-15
    assert np.max(np.abs(r2)) < 1e-15
    # derived interface conditions
    assert report.residuals.wall_slip_max < 1e-12
    assert report.residuals.contact_w_jump < 1e-12
    assert report.residuals.contact_p_jump < 1e-8


def test_residual_background_zero():
    cfg, geom, profile, prob = assemble(0.0, 60, 12)
    grid = moc.InvariantGrid.background(prob)
    rep = moc.residual_check(grid, prob)
    assert rep.sup_interior == 0.0
    assert rep.wall_slip_max == 0.0
    assert rep.contact_w_jump == 0.0


def test_residual_localizes_a_corrupted_node():
    cfg, geom, profile, prob = assemble(0.0, 60, 12)
    base = moc.InvariantGrid.background(prob)
    grid = moc.InvariantGrid(prob.domain, base.zm_a.copy(), base.zp_a.copy(),
                             base.zm_b.copy(), base.zp_b.copy())
    k0, j0 = 20, 6
    grid.zm_a[k0, j0] += 1e-5
    rep = moc.residual_check(grid, prob)
    res = rep.interior_abs["a-"]
    peak = np.unravel_index(np.argmax(res), res.shape)
    # residual rows start at k=1, columns at j=1
    assert abs(peak[0] + 1 - k0) <= 1 and abs(peak[1] + 1 - j0) <= 1
    mask = np.ones_like(res, dtype=bool)
    mask[max(peak[0] - 1, 0):peak[0] + 2, max(peak[1] - 1, 0):peak[1] + 2] = False
    assert np.max(res[mask]) <= 1e-14 * res[peak]


def test_iteration_csv_format(tmp_path):
    cfg, geom, profile, prob, grid, report = solved(1e-3, 101, 26)
    path = tmp_path / "iters.csv"
    moc.write_iteration_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,c0_gap,c1_gap,ratio"
    assert len(lines) == 1 + report.iterations
    gpath = tmp_path / "grid.csv"
    moc.write_grid_csv(grid, gpath)
    glines = gpath.read_text().splitlines()
    assert glines[0] == "xi,eta,layer,z_minus,z_plus"
    nxi = prob.domain.xi.size
    assert len(glines) == 1 + nxi * (prob.domain.eta_a.size + prob.domain.eta_b.size)


def test_z_deviation_halves_with_eps():
    def zdev(eps):
        cfg, geom, profile, prob, grid, report = solved(eps, 101, 26)
        return max(
            np.max(np.abs(grid.zm_a - prob.zbar_a[0])),
            np.max(np.abs(grid.zp_a - prob.zbar_a[1])),
            np.max(np.abs(grid.zm_b - prob.zbar_b[0])),
            np.max(np.abs(grid.zp_b - prob.zbar_b[1])),
        )

    ratio = zdev(1e-3) / zdev(5e-4)
    assert ratio == pytest.approx(2.0, rel=0.10)


def test_residual_first_order_under_refinement():
    sups = []
    for nxi, neta in ((101, 26), (201, 51)):
        cfg, geom, profile, prob, grid, report = solved(1e-3, nxi, neta)
        sups.append(report.residuals.sup_interior)
    assert sups[1] < sups[0]
    assert sups[0] / sups[1] > 1.6  # ~2 for a first-order upwind residual


def test_z_nearly_constant_along_frozen_characteristic():
    from contactmoc import interp

    cfg, geom, profile, prob, grid, report = solved(1e-3, 201, 51)
    frozen = moc.frozen_lambdas(grid, prob)
    dom = prob.domain
    path = moc.trace_characteristic(frozen, dom, "a", "+", (0.0, 0.3 * dom.m_a), max_steps=40)
    assert path.event == "end"
    h = dom.deta_a
    vals = np.array([
        float(interp.cubic_clipped(dom.eta_a[0], h,
                                   grid.zm_a[int(round(x / dom.dxi))], np.array([e]))[0])
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
    # without the up-front check the same lattice fails inside the march
    monkeypatch.setattr(moc, "check_cfl", lambda prob: None)
    _, _, _, prob = assemble(1e-3, 108, 40)
    with pytest.raises(moc.SolverError, match="characteristic foot outside slab"):
        moc.solve_linearized(moc.InvariantGrid.background(prob), prob)
