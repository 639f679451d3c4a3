import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactmoc import config, fixtures
from contactmoc.config import ConfigError, ConfigParseError


def test_background_fixture_parses_with_zero_eps(tmp_path):
    path = tmp_path / "bg.cfg"
    fixtures.write_fixture(path, eps=0.0, nxi=50, neta=12)
    cfg, geom, profile = config.load_config(path)
    assert config.perturbation_size(profile, geom, cfg.background) == 0.0
    assert config.validate_compatibility(profile, geom, tol=cfg.compat_tol) == []


def test_perturbed_fixture_normalizes_eps():
    cfg, geom, profile = fixtures.perturbed_inputs(1e-3, nxi=50, neta=12)
    eps = config.perturbation_size(profile, geom, cfg.background)
    assert eps == pytest.approx(1e-3, rel=1e-9)


def test_walls_crossed_rejected():
    with pytest.raises(ConfigError, match="walls crossed"):
        config.NozzleGeometry(
            g_minus=config.WallCurve.from_expression("1"),
            g_plus=config.WallCurve.from_expression("-1"),
            L=2.0,
        )


def test_subsonic_inlet_rejected(tmp_path):
    cfg, geom, profile = fixtures.perturbed_inputs(0.0, nxi=50, neta=12)
    profile.layer_a.u[:] = 0.5  # far below the sound speed
    with pytest.raises(ConfigError, match="not supersonic"):
        profile.validate(cfg.gamma, cfg.compat_tol)


def test_roundtrip_write_load_identity(tmp_path):
    cfg, geom, profile = fixtures.perturbed_inputs(2e-3, nxi=48, neta=14)
    p1 = tmp_path / "a.cfg"
    p2 = tmp_path / "b.cfg"
    config.write_config(cfg, geom, profile, p1)
    cfg2, geom2, profile2 = config.load_config(p1)
    config.write_config(cfg2, geom2, profile2, p2)
    assert p1.read_text() == p2.read_text()
    assert np.array_equal(profile2.layer_b.rho, profile.layer_b.rho)
    xs = np.linspace(0, geom.L, 33)
    for k in range(4):
        assert np.array_equal(geom2.g_plus(xs, k), geom.g_plus(xs, k))


def test_omitted_optional_settings_keep_run_config_defaults(tmp_path):
    cfg, geom, profile = fixtures.perturbed_inputs(2e-3, nxi=48, neta=14)
    changed = dataclasses.replace(cfg, fp_tol=3e-9, max_fp_iters=7, compat_tol=2e-7,
                                  out_dir="elsewhere")
    path = tmp_path / "a.cfg"
    config.write_config(changed, geom, profile, path)
    head, _, tail = path.read_text().partition("[tolerances]")
    assert "max_fp_iters = 7" in tail and "out_dir = elsewhere" in tail
    defaults = {f.name: f.default for f in dataclasses.fields(config.RunConfig)
                if f.default is not dataclasses.MISSING and f.name != "background"}
    assert len(defaults) == 8
    # Neither [tolerances] nor [output]: every setting keeps its default.
    path.write_text(head)
    loaded, _, _ = config.load_config(path)
    assert {name: getattr(loaded, name) for name in defaults} == defaults
    # One key given: it is read with its default's type, the rest default.
    path.write_text(head + "[tolerances]\nmax_fp_iters = 7\n")
    loaded, _, _ = config.load_config(path)
    assert type(loaded.max_fp_iters) is int
    assert {name: getattr(loaded, name) for name in defaults} == {**defaults, "max_fp_iters": 7}


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[gas]\ngamma 1.4\n")
    with pytest.raises(ConfigParseError, match="bad.cfg:2"):
        config.load_config(path)


def test_missing_key_reported(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("[gas]\ngamma = 1.4\n")
    with pytest.raises(ConfigParseError, match="missing key"):
        config.load_config(path)


def test_unterminated_block(tmp_path):
    path = tmp_path / "open.cfg"
    path.write_text("[inlet]\nlayer_a = <<<\ny,u,v,p,rho\n")
    with pytest.raises(ConfigParseError, match="unterminated"):
        config.load_config(path)


def test_grid_and_tolerance_invariants():
    with pytest.raises(ConfigError, match="grid size"):
        config.RunConfig(gamma=1.4, grid_nxi=3, grid_neta_a=8, grid_neta_b=8)
    with pytest.raises(ConfigError, match="tolerance"):
        config.RunConfig(gamma=1.4, grid_nxi=8, grid_neta_a=8, grid_neta_b=8, fp_tol=0.0)
    with pytest.raises(ConfigError, match="tolerance newton_tol must be positive and finite"):
        config.RunConfig(gamma=1.4, grid_nxi=8, grid_neta_a=8, grid_neta_b=8, newton_tol=np.inf)


@pytest.mark.parametrize("gamma", [1.0, 0.5, -1.4, np.inf, np.nan])
def test_gamma_outside_one_to_infinity_rejected(gamma):
    with pytest.raises(ConfigError, match=r"gamma must be in \(1, inf\)"):
        config.RunConfig(gamma=gamma, grid_nxi=8, grid_neta_a=8, grid_neta_b=8)


def test_profile_positivity_checked_before_the_sound_speed():
    cfg, geom, profile = fixtures.perturbed_inputs(0.0, nxi=50, neta=12)
    profile.layer_a.p[3] = -1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no sqrt of a negative pressure
        with pytest.raises(ConfigError, match="layer a has nonpositive p or rho"):
            profile.validate(cfg.gamma, cfg.compat_tol)


def test_compatibility_report_flags_pressure_jump():
    # The contact pressures must agree to compat_tol itself, whatever the
    # pressure level: a jump of 1.5e-8 on a p = 2 background is rejected
    # when the profile is validated, not later in the run.
    for p, jump, tol in ((1.0, 1e-3, 1e-6), (2.0, 1.5e-8, 1e-8)):
        bg = config.BackgroundState(u_a=2.2, rho_a=1.0, u_b=1.9, rho_b=1.2, p=p)
        cfg, geom, profile = fixtures.perturbed_inputs(0.0, background=bg, nxi=50, neta=12)
        profile.layer_a.p[0] += jump
        with pytest.raises(ConfigError, match="pressure mismatch"):
            profile.validate(cfg.gamma, tol)


def test_compatibility_report_flags_corner_slip():
    cfg, geom, profile = fixtures.perturbed_inputs(0.0, nxi=50, neta=12)
    profile.layer_a.v[-1] = 1e-3  # nonzero angle at the flat upper corner
    report = config.validate_compatibility(profile, geom, tol=1e-6)
    assert any("corner slip" in item and "upper" in item for item in report)


@settings(max_examples=25, deadline=None)
@given(t=st.one_of(st.just(0.0), st.floats(1e-3, 4.0)))
def test_perturbation_size_homogeneous(t):
    # below t ~ 1e-3 the scaled deviations drown in the float representation
    # of background + t*dev (second-derivative norms amplify value rounding
    # by 1/h^2), so the mathematically exact homogeneity is only testable on
    # this range; t = 0 collapses to the exact background.
    cfg, geom, profile = fixtures.perturbed_inputs(1e-3, nxi=50, neta=12)
    base = config.perturbation_size(profile, geom, cfg.background)
    scaled = config.perturbation_size(
        profile.scale_deviation(cfg.background, t), geom.scale_deviation(t), cfg.background
    )
    assert scaled == pytest.approx(t * base, rel=1e-5, abs=1e-18)


def test_wall_eps_against_dense_sampling_oracle():
    # g_plus = 1 + 1e-3 sin(pi x / L), everything else background
    L = 4.0
    geom = config.NozzleGeometry(
        g_minus=config.WallCurve.from_expression("-1"),
        g_plus=config.WallCurve.from_expression(f"1 + 0.001 * sin(pi * x / {L!r})"),
        L=L,
    )
    cfg, _, profile = fixtures.perturbed_inputs(0.0, nxi=50, neta=12)
    eps = config.perturbation_size(profile, geom, cfg.background)
    xs = np.linspace(0.0, L, 10_000)
    k = np.pi / L
    oracle = sum(
        np.max(np.abs(d))
        for d in (
            0.001 * np.sin(k * xs),
            0.001 * k * np.cos(k * xs),
            0.001 * k**2 * np.sin(k * xs),
            0.001 * k**3 * np.cos(k * xs),
        )
    )
    assert eps == pytest.approx(oracle, rel=1e-6)


def test_sampled_wall_round_trip(tmp_path):
    """A sampled wall, a scaled sampled wall and a scaled expression wall each
    come back from write_config and load_config with the same serialization
    and the same values of orders 0-3."""
    xs = np.linspace(0.0, 4.0, 65)
    ys = 1.0 + 1e-3 * np.sin(np.pi * xs / 4.0)
    wall = config.WallCurve.from_samples(xs, ys)
    assert wall(2.0) == pytest.approx(1.0 + 1e-3, rel=1e-6)
    # third derivative is evaluable (piecewise constant for a cubic spline)
    wall(np.linspace(0, 4, 9), 3)
    cfg, _, profile = fixtures.perturbed_inputs(0.0, nxi=50, neta=12)
    expr = config.WallCurve.from_expression("1 + 0.001 * sin(pi * x / 4.0) ** 4")
    path = tmp_path / "wall.cfg"
    for g_plus in (wall, wall.scale_deviation(0.37), expr.scale_deviation(0.37)):
        geom = config.NozzleGeometry(config.WallCurve.from_expression("-1"), g_plus, 4.0)
        config.write_config(cfg, geom, profile, path)
        loaded = config.load_config(path)[1].g_plus
        (kind, *payload), (kind2, *payload2) = g_plus.serialization(), loaded.serialization()
        assert kind == kind2 and len(payload) == len(payload2)
        assert all(np.array_equal(a, b) for a, b in zip(payload, payload2))
        xq = np.linspace(0.0, 4.0, 101)
        for k in range(4):
            assert np.array_equal(loaded(xq, k), g_plus(xq, k))


def test_eps_scale_flag_semantics():
    cfg, geom, profile = fixtures.perturbed_inputs(1e-3, nxi=50, neta=12)
    half = config.perturbation_size(
        profile.scale_deviation(cfg.background, 0.5), geom.scale_deviation(0.5), cfg.background
    )
    assert half == pytest.approx(5e-4, rel=1e-9)


def test_walls_crossed_rejected_from_file(tmp_path):
    path = tmp_path / "crossed.cfg"
    fixtures.write_fixture(path, eps=0.0, nxi=50, neta=12)
    text = path.read_text().replace("g_minus = -1", "g_minus = 2").replace("g_plus = 1", "g_plus = -2")
    path.write_text(text)
    with pytest.raises(ConfigError, match="walls crossed"):
        config.load_config(path)
