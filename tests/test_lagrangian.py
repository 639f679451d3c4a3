import numpy as np
import pytest

from contactmoc import cli, config, fixtures, gas, interp, lagrangian as lag
from tests.conftest import assemble, solved

G = 1.4  # gamma


def background_setup(nxi=50, neta=12):
    cfg, geom, profile = fixtures.perturbed_inputs(0.0, nxi=nxi, neta=neta)
    flux = lag.mass_fluxes(profile)
    dom = lag.LagrangianDomain.build(geom.L, *flux, cfg.grid_nxi, cfg.grid_neta_a, cfg.grid_neta_b)
    return cfg, geom, profile, flux, dom


def background_fields(dom):
    """The constant background as a primitive state on the stacked row a | b."""
    shape = (dom.xi.size, dom.eta_a.size + dom.eta_b.size)
    u, rho = np.empty(shape), np.empty(shape)
    for tag, _, cols in dom.layers:
        u[:, cols], rho[:, cols] = {"a": (2.2, 1.0), "b": (1.9, 1.2)}[tag]
    return gas.PrimitiveState(u=u, v=np.zeros(shape), p=np.ones(shape), rho=rho)


# ---------------------------------------------------------------------------
# mass fluxes and the forward transform


def test_mass_fluxes_constant_layers():
    _, _, profile, (m_a, m_b), _ = background_setup()
    assert m_a == pytest.approx(2.2, rel=1e-12)
    assert m_b == pytest.approx(1.9 * 1.2, rel=1e-12)


def test_mass_fluxes_linear_in_density():
    _, _, profile, flux, _ = background_setup()
    doubled = config.InletProfile(
        layer_a=config.InletLayer(profile.layer_a.y, profile.layer_a.u, profile.layer_a.v,
                                  profile.layer_a.p, 2.0 * profile.layer_a.rho),
        layer_b=config.InletLayer(profile.layer_b.y, profile.layer_b.u, profile.layer_b.v,
                                  profile.layer_b.p, 2.0 * profile.layer_b.rho),
    )
    assert lag.mass_fluxes(doubled) == pytest.approx(tuple(2.0 * m for m in flux), rel=1e-12)


def test_mass_flux_sinusoid_against_fine_trapezoid():
    y = np.linspace(0.0, 1.0, 201)
    rho = 1.0 + 0.05 * np.sin(2 * np.pi * y)
    layer = config.InletLayer(y=y, u=np.full_like(y, 2.2), v=np.zeros_like(y),
                              p=np.ones_like(y), rho=rho)
    from scipy.interpolate import PchipInterpolator

    interp = PchipInterpolator(y, rho * 2.2)
    fine = np.linspace(0.0, 1.0, 1_000_001)
    f = interp(fine)
    oracle = float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(fine)))
    profile = config.InletProfile(layer_a=layer, layer_b=fixtures.perturbed_inputs(0.0)[2].layer_b)
    assert lag.mass_fluxes(profile)[0] == pytest.approx(oracle, abs=1e-10)


def test_inlet_map_linear_for_background():
    _, _, profile, flux, dom = background_setup()
    y, _ = lag.inlet_to_lagrangian(profile, dom)
    (_, _, a), (_, _, b) = dom.layers
    ya, yb = y[a], y[b]
    assert np.max(np.abs(ya - dom.eta_a / 2.2)) < 1e-12
    assert ya[0] == 0.0 and yb[-1] == 0.0
    assert ya[-1] == 1.0 and yb[0] == -1.0


def test_inlet_map_against_dense_inversion_oracle():
    cfg, geom, profile = fixtures.perturbed_inputs(5e-3, nxi=50, neta=40)
    m_a, m_b = lag.mass_fluxes(profile)
    dom = lag.LagrangianDomain.build(geom.L, m_a, m_b, cfg.grid_nxi, cfg.grid_neta_a,
                                     cfg.grid_neta_b)
    y, _ = lag.inlet_to_lagrangian(profile, dom)
    (_, _, a), _ = dom.layers
    # Independent inversion: cumulative trapezoid of the interpolated mass
    # flux on 10^4 points, then inverse interpolation eta -> y.
    la = profile.layer_a
    from scipy.interpolate import PchipInterpolator

    fine = np.linspace(la.y[0], la.y[-1], 10_001)
    f = PchipInterpolator(la.y, la.rho * la.u)(fine)
    F = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(fine))])
    F *= m_a / F[-1]
    y_oracle = np.interp(dom.eta_a, F, fine)
    assert np.max(np.abs(y[a] - y_oracle)) < 1e-9


def test_pipeline_builds_each_layer_mass_flux_once(monkeypatch):
    built = []
    antiderivative = interp.PiecewisePoly.antiderivative
    monkeypatch.setattr(interp.PiecewisePoly, "antiderivative",
                        lambda self: built.append(self) or antiderivative(self))
    assemble(1e-3, 81, 24)
    assert len(built) == 2  # mass_fluxes and the inlet map share them


def test_stream_data_background_constant():
    cfg, _, profile, flux, dom = background_setup()
    _, state = lag.inlet_to_lagrangian(profile, dom)
    a0, b0 = lag.stream_data_from_inlet(state, dom, G, p_ref=1.0)
    (_, _, a), (_, _, b) = dom.layers
    assert np.max(np.abs(a0[a] - 1.0)) < 1e-13
    assert np.max(np.abs(b0[a] - (0.5 * 2.2**2 + 3.5))) < 1e-12
    assert np.max(np.abs(a0[b] - 1.0 / 1.2**1.4)) < 1e-13


def test_stream_data_matches_pointwise_evaluation():
    cfg, geom, profile = fixtures.perturbed_inputs(5e-3, nxi=50, neta=24)
    dom = lag.LagrangianDomain.build(geom.L, *lag.mass_fluxes(profile), cfg.grid_nxi,
                                     cfg.grid_neta_a, cfg.grid_neta_b)
    _, state = lag.inlet_to_lagrangian(profile, dom)
    a0, _ = lag.stream_data_from_inlet(state, dom, G, p_ref=1.0)
    (_, _, a), _ = dom.layers
    direct = state.p[a] / state.rho[a]**1.4
    assert np.max(np.abs(a0[a] - direct)) < 1e-14


def test_problem_stream_data_is_the_inlet_node_values():
    # Every solver query falls on a lattice node, so the problem carries
    # A0 and B0 of each layer's inlet samples themselves, bit for bit, the
    # last node of each layer included.
    cfg, geom, profile = fixtures.perturbed_inputs(1e-3, nxi=400, neta=100)
    dom = lag.LagrangianDomain.build(geom.L, *lag.mass_fluxes(profile), cfg.grid_nxi,
                                     cfg.grid_neta_a, cfg.grid_neta_b)
    _, inlet = lag.inlet_to_lagrangian(profile, dom)
    prob, _ = cli.build_pipeline(cfg, geom, profile)
    stream = prob.line
    assert stream.a0.shape == (dom.eta_a.size + dom.eta_b.size,)
    assert (stream.p_ref, stream.gamma) == (cfg.background.p, cfg.gamma)
    for _, _, cols in dom.layers:
        state = gas.PrimitiveState(u=inlet.u[cols], v=inlet.v[cols], p=inlet.p[cols],
                                   rho=inlet.rho[cols])
        assert np.array_equal(stream.a0[cols], gas.entropy_function(state, G))
        assert np.array_equal(stream.b0[cols], gas.bernoulli(state, G))


def test_stream_data_validation():
    with pytest.raises(gas.GasError, match="^out-of-range: stream data"):
        gas.Streamline(-np.ones(9), np.full(9, 0.5 * 2.2**2 + 3.5), 1.0, G)
    with pytest.raises(lag.TransformError, match="^out-of-range: mass fluxes"):
        lag.LagrangianDomain.build(1.0, 1.0, 0.0, 5, 9, 3)
    # A0 = 1 and B0 = u^2/2 + 3.5: p_ref = 1 is above the sonic pressure
    # (about 0.53) where B0 = 3.51 (nodes 5 and 6) and where B0 = 3.505
    # (node 7, the least B0) of layer a; the first of them is named.  Layer
    # b, three more nodes on the row, is healthy.
    dom = lag.LagrangianDomain.build(1.0, 1.0, 1.0, 5, 9, 3)
    b0 = np.array([5.9, 5.9, 5.9, 5.9, 5.9, 3.51, 3.51, 3.505, 5.9, 5.9, 5.9, 5.9])
    state = gas.PrimitiveState(u=np.sqrt(2.0 * (b0 - 3.5)), v=np.zeros(12), p=np.ones(12),
                               rho=np.ones(12))
    with pytest.raises(gas.GasError, match=r"^sonic-limit: .*\(first offending eta ~ 0\.625\)$"):
        lag.stream_data_from_inlet(state, dom, G, p_ref=1.0)
    a0, b0 = lag.stream_data_from_inlet(state, dom, G, p_ref=0.5)  # below every sonic pressure
    assert np.array_equal(a0, np.ones(12)) and np.array_equal(b0, gas.bernoulli(state, G))


# ---------------------------------------------------------------------------
# cumulative Simpson and reconstruction


def test_cumulative_simpson_exact_for_quadratics():
    h = 0.1
    x = np.arange(9) * h
    f = 3.0 - 2.0 * x + 0.7 * x**2
    exact = 3.0 * x - x**2 + 0.7 * x**3 / 3.0
    out = lag.cumulative_simpson(f, h)
    assert np.max(np.abs(out - exact)) < 1e-14


def test_cumulative_simpson_order_on_smooth_data():
    def err(n):
        x = np.linspace(0.0, 1.0, n)
        out = lag.cumulative_simpson(np.exp(x), x[1] - x[0])
        return np.max(np.abs(out - (np.exp(x) - 1.0)))

    # third-order cumulative rule or better
    assert err(33) / err(65) > 7.0


def test_reconstruct_background_exact():
    cfg, geom, profile, flux, dom = background_setup(nxi=40, neta=15)
    fields = background_fields(dom)
    ef = lag.reconstruct(fields, geom, dom)
    (_, _, a), (_, _, b) = dom.layers
    assert np.max(np.abs(ef.y[:, -1])) < 1e-13
    assert np.max(np.abs(ef.y[:, b][:, 0] - (-1.0))) == 0.0  # exact lower limit
    assert ef.top_gap < 1e-13
    assert np.all(np.diff(ef.y[:, a], axis=1) > 0)


def test_reconstruct_rejects_degenerate_jacobian():
    cfg, geom, profile, flux, dom = background_setup(nxi=20, neta=8)
    fields = background_fields(dom)
    fields.u[3, 4] = -0.1
    with pytest.raises(lag.TransformError, match="^jacobian-degenerate: .* in layer a$"):
        lag.reconstruct(fields, geom, dom)


def test_reconstruct_names_the_degenerate_layer():
    # node 4 of layer b sits at na + 4 on the stacked row
    cfg, geom, profile, flux, dom = background_setup(nxi=20, neta=8)
    fields = background_fields(dom)
    fields.u[3, dom.eta_a.size + 4] = -0.1
    with pytest.raises(lag.TransformError, match="^jacobian-degenerate: .* in layer b$"):
        lag.reconstruct(fields, geom, dom)


def test_transform_round_trip_at_inlet():
    cfg, geom, profile, prob = assemble(1e-3, 81, 24)
    grid, _ = __import__("contactmoc.moc", fromlist=["moc"]).fixed_point(
        prob, fp_tol=cfg.fp_tol, max_fp_iters=cfg.max_fp_iters
    )
    from contactmoc import moc

    fields = moc.grid_states(grid, prob)
    ef = lag.reconstruct(fields, geom, prob.domain)
    y, _ = lag.inlet_to_lagrangian(profile, prob.domain)
    (_, _, a), (_, _, b) = prob.domain.layers
    assert np.max(np.abs(ef.y[0, a] - y[a])) < 1e-9
    assert np.max(np.abs(ef.y[0, b] - y[b])) < 1e-9


def test_contact_slope_consistent_with_finite_differences():
    cfg, geom, profile, prob, grid, report = solved(1e-3, 101, 26)
    from contactmoc import moc

    fields = moc.grid_states(grid, prob)
    ef = lag.reconstruct(fields, geom, prob.domain)
    # the contact slope weak_residual samples: the mean streamline slope of both sides
    slope = 0.5 * (fields.v[:, 0] / fields.u[:, 0] + fields.v[:, -1] / fields.u[:, -1])
    fd = np.gradient(ef.y[:, -1], ef.domain.xi)
    err = np.max(np.abs(fd - slope))
    scale = max(np.max(np.abs(slope)), 1e-30)
    dxi = prob.domain.dxi
    assert err < max(50.0 * scale * dxi, 1e-12)


def test_cross_section_mass_flux_conserved():
    cfg, geom, profile, prob, grid, report = solved(1e-3, 101, 26)
    from contactmoc import moc

    fields = moc.grid_states(grid, prob)
    ef = lag.reconstruct(fields, geom, prob.domain)
    # Trapezoidal integral of rho u dy over each reconstructed column.
    total = np.zeros(ef.domain.xi.size)
    for _, _, cols in reversed(prob.domain.layers):  # layer b, then layer a
        f = ef.state.rho[:, cols] * ef.state.u[:, cols]
        total += np.sum(0.5 * (f[:, 1:] + f[:, :-1]) * np.diff(ef.y[:, cols], axis=1), axis=1)
    expect = prob.domain.m_a + prob.domain.m_b
    assert np.max(np.abs(total - expect)) < 5e-5 * expect


def test_weak_residual_background_zero():
    cfg, geom, profile, flux, dom = background_setup(nxi=30, neta=10)
    fields = background_fields(dom)
    ef = lag.reconstruct(fields, geom, dom)
    rep = lag.weak_residual(ef, G)
    assert rep.max_residual == 0.0
    assert rep.contact_pressure_jump == 0.0
    assert rep.contact_mass_flux == 0.0


def test_weak_residual_flags_broken_contact_pressure():
    cfg, geom, profile, flux, dom = background_setup(nxi=30, neta=10)
    fields = background_fields(dom)
    fields.p[:, 0] += 1e-3  # the contact node of layer a
    ef = lag.reconstruct(fields, geom, dom)
    rep = lag.weak_residual(ef, G)
    assert rep.contact_pressure_jump == pytest.approx(1e-3, rel=1e-12)


def test_field_csv_written_with_layers(tmp_path):
    cfg, geom, profile, flux, dom = background_setup(nxi=20, neta=8)
    fields = background_fields(dom)
    ef = lag.reconstruct(fields, geom, dom)
    path = tmp_path / "fields.csv"
    lag.write_field_csv(ef, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,u,v,p,rho,layer"
    assert len(lines) == 1 + dom.xi.size * (dom.eta_a.size + dom.eta_b.size)
    assert lines[1].endswith(",a") and lines[-1].endswith(",b")
    cpath = tmp_path / "contact.csv"
    lag.write_contact_csv(ef, cpath)
    assert cpath.read_text().splitlines()[0] == "x,g_cd"


def test_top_gap_second_order_under_refinement():
    from contactmoc import moc

    gaps = []
    for nxi, neta in ((101, 26), (201, 51)):
        cfg, geom, profile, prob, grid, report = solved(1e-3, nxi, neta)
        ef = lag.reconstruct(moc.grid_states(grid, prob), geom, prob.domain)
        gaps.append(ef.top_gap)
    assert gaps[1] < gaps[0]
    assert gaps[0] / gaps[1] > 3.0  # ~4 for an O(h^2) conservation defect
