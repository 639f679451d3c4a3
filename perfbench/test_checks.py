"""Each benchmark check accepts real output and rejects a corrupted copy.

    python3 -m pytest -q perfbench/test_checks.py

The solve and oracle cases run contactmoc on small lattices (the checks do
not depend on the lattice); the whole file takes about 15 s.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import worker  # noqa: E402

_FAMILIES = ("zm_a", "zp_a", "zm_b", "zp_b")


# ---------------------------------------------------------------------------
# closed forms


def test_prandtl_meyer_textbook_values():
    assert checks.prandtl_meyer(np.array(1.0), 1.4) == 0.0
    # nu(2) = 26.3798 degrees for gamma = 1.4
    assert math.degrees(checks.prandtl_meyer(np.array(2.0), 1.4)) == pytest.approx(26.3798, abs=1e-4)


def test_theta_closed_form_vanishes_at_reference_pressure():
    u, v, rho = np.array([2.2, 1.9]), np.array([0.01, -0.02]), np.array([1.0, 1.2])
    assert np.all(np.abs(checks.theta_closed_form(u, v, np.ones(2), rho, 1.4, 1.0)) < 1e-15)


@pytest.mark.parametrize("expr, g", [
    ("-1 - 0.1 * sin(1.5 * pi * x / 4.0) ** 4", lambda x: -1 - 0.1 * np.sin(1.5 * np.pi * x / 4.0) ** 4),
    ("1 + 0.2 * sin(pi * x / 4.0) ** 4", lambda x: 1 + 0.2 * np.sin(np.pi * x / 4.0) ** 4),
])
def test_wall_slope_matches_finite_difference(expr, g):
    x = np.linspace(0.1, 3.9, 7)
    h = 1e-5
    fd = (g(x + h) - g(x - h)) / (2 * h)
    assert np.allclose(checks.wall_slope(expr, x), fd, rtol=1e-6, atol=1e-10)


def test_wall_slope_of_flat_and_unknown_walls():
    assert np.all(checks.wall_slope("1", np.linspace(0, 4, 5)) == 0.0)
    with pytest.raises(ValueError):
        checks.wall_slope("1 + 0.1 * cos(x)", np.zeros(1))


def test_lax_estimate_reference_and_scaling():
    x1 = checks.lax_blowup_x(2.0, 0.01, 1.0, 1.4)
    assert x1 == pytest.approx(59.68, abs=0.01)
    # small data: the estimate scales like 1/delta
    assert checks.lax_blowup_x(2.0, 0.005, 1.0, 1.4) == pytest.approx(2 * x1, rel=1e-3)


# ---------------------------------------------------------------------------
# solve


@pytest.fixture(scope="module")
def solve_output(tmp_path_factory):
    wl = worker.Solve(str(tmp_path_factory.mktemp("solve")))
    wl.summary = worker._cli(["solve", "--config", wl.config, "--out", wl.out, "--quiet",
                              "--grid", "101x26"])
    return (checks.read_csv(os.path.join(wl.out, "fields.csv")),
            checks.read_csv(os.path.join(wl.out, "grid.csv")),
            checks.parse_summary(wl.summary), checks.read_config_scalars(wl.config))


def _solve_failures(output, edit=None):
    fields, grid, summary, cfg = output
    fields = {k: v.copy() for k, v in fields.items()}
    grid = {k: v.copy() for k, v in grid.items()}
    if edit is not None:
        edit(fields, grid)
    return checks.check_solve(fields, grid, summary, cfg)[0]


def test_solve_check_accepts_real_output(solve_output):
    assert _solve_failures(solve_output) == []


def test_solve_check_rejects_scaled_pressure(solve_output):
    def edit(fields, grid):
        fields["p"] *= 1.0 + 1e-6

    assert any("Prandtl-Meyer" in f for f in _solve_failures(solve_output, edit))


def test_solve_check_rejects_shifted_flow_angle(solve_output):
    def edit(fields, grid):
        grid["z_plus"] += 1e-8
        grid["z_minus"] += 1e-8

    assert any("flow-angle" in f for f in _solve_failures(solve_output, edit))


def test_solve_check_rejects_wall_slip(solve_output):
    def edit(fields, grid):
        top = np.nonzero(fields["layer"] == "a")[0][25::26]  # last eta row of layer a
        fields["v"][top] += 1e-9

    assert any("wall slip" in f for f in _solve_failures(solve_output, edit))


def test_solve_check_rejects_contact_pressure_jump(solve_output):
    def edit(fields, grid):
        row = np.nonzero(fields["layer"] == "a")[0][::26]  # contact row of layer a
        fields["p"][row] *= 1.0 + 1e-8

    assert any("across the contact" in f for f in _solve_failures(solve_output, edit))


# ---------------------------------------------------------------------------
# oracle


@pytest.fixture(scope="module")
def oracle_grids(tmp_path_factory):
    from contactmoc import cli, config, fixtures, moc, oracle

    tmp = tmp_path_factory.mktemp("oracle")
    grids = {}
    for key, (nxi, neta) in (("coarse", (201, 51)), ("fine", (401, 101))):
        path = str(tmp / f"{key}.cfg")
        fixtures.write_fixture(path, eps=1e-3, nxi=nxi, neta=neta)
        cfg, geom, profile = config.load_config(path)
        prob, _ = cli.build_pipeline(cfg, geom, profile)
        if key == "coarse":
            grid, _ = moc.fixed_point(prob, fp_tol=cfg.fp_tol, max_fp_iters=cfg.max_fp_iters)
        else:
            grid = oracle.upwind_march(prob)
            grids["xi"] = prob.domain.xi
            grids["cfg"] = checks.read_config_scalars(path)
        grids[key] = {n: getattr(grid, n) for n in _FAMILIES}
    return grids


def _oracle_failures(grids, edit=None):
    fine = {k: v.copy() for k, v in grids["fine"].items()}
    if edit is not None:
        fine = edit(fine)
    return checks.check_oracle(grids["coarse"], fine, grids["xi"], grids["cfg"])[0]


def test_oracle_check_accepts_real_output(oracle_grids):
    assert _oracle_failures(oracle_grids) == []


def test_oracle_check_rejects_offset_grid(oracle_grids):
    def edit(fine):
        fine["zp_b"] += 1e-5
        return fine

    assert any("differs from the fixed point" in f for f in _oracle_failures(oracle_grids, edit))


def test_oracle_check_rejects_broken_wall_closure(oracle_grids):
    def edit(fine):
        fine["zp_a"][:, -1] += 1e-9
        return fine

    assert any("wall closure" in f for f in _oracle_failures(oracle_grids, edit))


def test_oracle_check_rejects_unrelated_lattices(oracle_grids):
    def edit(fine):
        return {k: v[:-2] for k, v in fine.items()}

    assert any("does not refine" in f for f in _oracle_failures(oracle_grids, edit))


# ---------------------------------------------------------------------------
# blowup

# A run of the CLI's canonical blow-up fixture (delta = 0.01, ny = 800).
_BLOWUP = {"status": "ok", "blowup_x": "57.430614386343353", "gradient_x": "57.430614386343353",
           "crossing_x": "57.546425", "x_end": "71.83", "steps": "4"}
_LAX = checks.lax_blowup_x(2.0, 0.01, 1.0, 1.4)


def _blowup_failures(**changes):
    summary = dict(_BLOWUP, **changes)
    gradients = {"x": np.array([0.0, 10.0, 30.0, 57.43, 71.83])}
    return checks.check_blowup(summary, gradients, _LAX)[0]


def test_blowup_check_accepts_reference_figures():
    assert _blowup_failures() == []


@pytest.mark.parametrize("factor", [0.8, 1.2])
def test_blowup_check_rejects_shifted_blowup_x(factor):
    shifted = repr(57.430614386343353 * factor)
    failures = _blowup_failures(blowup_x=shifted, gradient_x=shifted, crossing_x=shifted)
    assert any("Lax" in f for f in failures)


def test_blowup_check_rejects_disagreeing_detectors():
    assert any("detectors" in f for f in _blowup_failures(crossing_x="66.0"))


def test_blowup_check_rejects_short_history():
    assert any("rows" in f for f in _blowup_failures(steps="5"))
    assert any("x_end" in f for f in _blowup_failures(x_end="72.0"))


def test_blowup_check_rejects_missing_detector():
    assert _blowup_failures(crossing_x="none") != []
