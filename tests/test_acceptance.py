"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py``.  Grids: the converged
reference runs use the default 400x100-per-layer lattice; refinement studies
use the interval-exact halving sequence (101,26) -> (201,51) -> (401,101)
(-> (801,201) for the oracle comparison).
"""

import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from contactmoc import blowup, config, fixtures, gas, lagrangian as lag, moc, oracle
from contactmoc.cli import run_solve
from tests import gas_reference
from tests.conftest import solved

G = 1.4  # gamma


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  [{detail}]")


def _reconstructed(eps, nxi, neta):
    cfg, geom, profile, prob, grid, report = solved(eps, nxi, neta)
    ef = lag.reconstruct(moc.grid_states(grid, prob), geom, prob.domain)
    return cfg, geom, profile, prob, grid, report, ef


def test_criterion_01_background_exactness():
    cfg, geom, profile, prob, grid, report, ef = _reconstructed(0.0, 400, 100)
    assert report.iterations == 1
    # The background's invariants are zero.
    sup_z = max(np.max(np.abs(grid.zm)), np.max(np.abs(grid.zp)))
    assert sup_z <= 1e-12
    gcd = float(np.max(np.abs(ef.y[:, -1])))
    assert gcd <= 1e-12
    _report(1, f"1 iteration, sup|z|={sup_z:.2e}, sup|g_cd|={gcd:.2e}")


def test_criterion_02_gas_round_trip(rng):
    n_target = 1000
    u = 2.2 * (1.0 + 0.15 * rng.uniform(-1, 1, 4 * n_target))
    v = 0.2 * rng.uniform(-1, 1, 4 * n_target) * u
    p = 1.0 + 0.25 * rng.uniform(-1, 1, 4 * n_target)
    rho = 1.0 + 0.2 * rng.uniform(-1, 1, 4 * n_target)
    keep = u * u > 1.3 * 1.4 * p / rho
    u, v, p, rho = (arr[keep][:n_target] for arr in (u, v, p, rho))
    assert u.size == n_target
    state = gas.PrimitiveState(u=u, v=v, p=p, rho=rho)
    line = gas.Streamline(gas.entropy_function(state, G), gas.bernoulli(state, G), 1.0, G)
    back_u, back_v, back_p, _ = line.state(*line.invariants(u, v, p, rho))
    worst = max(np.max(np.abs(back_u - u)), np.max(np.abs(back_v - v)),
                np.max(np.abs(back_p - p)))
    assert worst <= 1e-10

    # Theta / dTheta finite-difference consistency at second order
    line0 = gas.Streamline(1.0, 0.5 * 2.2**2 + 3.5, 1.0, G)
    p0 = 1.07
    exact = float(line0.dtheta_dp(np.asarray(p0)))

    def fd(h):
        return (gas_reference.theta(p0 + h, line0) - gas_reference.theta(p0 - h, line0)) / (2 * h)

    e1, e2 = abs(fd(2e-3) - exact), abs(fd(1e-3) - exact)
    assert 3.0 < e1 / e2 < 5.0
    _report(2, f"{n_target} states, worst={worst:.2e}, FD order ratio={e1/e2:.2f}")


def test_criterion_03_contraction():
    cfg, geom, profile, prob, grid, report = solved(1e-3, 400, 100)
    gaps = report.c1_gaps
    assert all(b < a for a, b in zip(gaps, gaps[1:])), "gaps must decrease strictly"
    assert report.ratios, "need at least two iterations to measure contraction"
    assert all(r <= 0.9 for r in report.ratios)
    median = float(np.median(report.ratios))
    soft = "soft-ok" if median <= 0.6 else "soft-exceeded (logged)"
    _report(3, f"ratios max={max(report.ratios):.2e}, median={median:.2e} ({soft}), "
               f"{report.iterations} iterations")


def test_criterion_04_linear_stability_scaling():
    cfg0, geom0, profile0 = fixtures.perturbed_inputs(1e-3, nxi=201, neta=51)
    eps_base = config.perturbation_size(profile0, geom0, cfg0.background)
    targets = [1e-4, 2e-4, 4e-4, 8e-4]
    devs = []
    for target in targets:
        t = target / eps_base
        summary, _ = run_solve(
            dataclasses.replace(cfg0),
            geom0.scale_deviation(t),
            profile0.scale_deviation(cfg0.background, t),
            write_outputs=False,
        )
        devs.append(summary["sup_dev"])
    slope = float(np.polyfit(np.log(targets), np.log(devs), 1)[0])
    assert abs(slope - 1.0) <= 0.1
    _report(4, f"log-log slope={slope:.4f} over eps={targets}")


def test_criterion_05_interface_conditions():
    cfg, geom, profile, prob, grid, report = solved(1e-3, 400, 100)
    res = report.residuals
    assert res.wall_slip_max <= 1e-8
    assert res.contact_w_jump <= 1e-8
    assert res.contact_p_jump <= 1e-8
    _report(5, f"wall slip={res.wall_slip_max:.2e}, [w]={res.contact_w_jump:.2e}, "
               f"[p]={res.contact_p_jump:.2e}")


def test_criterion_06_conservation_along_streamlines():
    cfg, geom, profile, prob, grid, report, ef = _reconstructed(1e-3, 400, 100)
    dev_default = lag.streamline_conservation(ef, G)
    assert dev_default <= 5e-7

    devs = []
    for nxi, neta in ((101, 26), (201, 51), (401, 101)):
        _, geom_i, _, prob_i, grid_i, _, ef_i = _reconstructed(1e-3, nxi, neta)
        devs.append(lag.streamline_conservation(ef_i, G))
    r1, r2 = devs[0] / devs[1], devs[1] / devs[2]
    assert r1 >= 1.8 and r2 >= 1.8  # at least first-order decrease
    _report(6, f"default-grid dev={dev_default:.2e}, refinement ratios={r1:.2f},{r2:.2f}")


def test_criterion_07_oracle_equivalence():
    diffs = []
    for nxi, neta in ((201, 51), (401, 101), (801, 201)):
        cfg, geom, profile, prob, grid, report = solved(1e-3, nxi, neta)
        og = oracle.upwind_march(prob)
        diffs.append(max(oracle.compare_fields(grid, og).values()))
    r1, r2 = diffs[0] / diffs[1], diffs[1] / diffs[2]
    gmean = float(np.sqrt(r1 * r2))
    assert 1.8 <= gmean <= 2.2, f"geometric-mean ratio {gmean}"
    assert 1.6 <= r1 <= 2.6 and 1.6 <= r2 <= 2.6
    _report(7, f"sup diffs={['%.2e' % d for d in diffs]}, ratios={r1:.2f},{r2:.2f}, "
               f"gmean={gmean:.2f}")


def test_criterion_08_weak_residual():
    maxima = []
    for nxi, neta in ((101, 26), (201, 51), (401, 101)):
        _, _, _, _, _, _, ef = _reconstructed(1e-3, nxi, neta)
        maxima.append(lag.weak_residual(ef, G).max_residual)
    r1, r2 = maxima[0] / maxima[1], maxima[1] / maxima[2]
    gmean = float(np.sqrt(r1 * r2))
    assert gmean >= 1.8 and min(r1, r2) >= 1.4  # first-order convergence to 0

    _, _, _, _, _, _, ef = _reconstructed(1e-3, 400, 100)
    w = lag.weak_residual(ef, G)
    assert w.contact_pressure_jump <= 1e-7
    assert w.contact_mass_flux <= 1e-7
    assert w.contact_mass_flux_jump <= 1e-7
    _report(8, f"max residuals={['%.2e' % m for m in maxima]} (gmean ratio {gmean:.2f}), "
               f"contact [p]={w.contact_pressure_jump:.2e}, mdot={w.contact_mass_flux:.2e}")


def test_criterion_09_blowup_dichotomy():
    # constant inlet: no detection through x = 1000
    const = blowup.PeriodicProfile("2.0", "0.0", G, rho_wall=1.0)
    rep_const = blowup.cauchy_march(const, x_max=1000.0, ny=100)
    assert rep_const.blowup_x is None
    assert rep_const.x_end >= 1000.0 - 1e-9

    prof = blowup.PeriodicProfile("2.0", "0.01 * sin(pi * y)", G, rho_wall=1.0)
    rep_base = blowup.cauchy_march(prof, x_max=200.0, ny=400, grad_factor=15.0)
    rep_fine = blowup.cauchy_march(prof, x_max=200.0, ny=800, grad_factor=15.0)
    assert rep_base.blowup_x is not None and rep_fine.blowup_x is not None
    drift = abs(rep_fine.blowup_x - rep_base.blowup_x) / rep_base.blowup_x
    assert drift <= 0.15

    half = blowup.PeriodicProfile("2.0", "0.005 * sin(pi * y)", G, rho_wall=1.0)
    rep_half = blowup.cauchy_march(half, x_max=400.0, ny=400, grad_factor=15.0)
    assert rep_half.blowup_x is not None
    assert rep_half.blowup_x > rep_base.blowup_x

    for rep in (rep_base, rep_fine, rep_half):
        assert rep.gradient_x is not None and rep.crossing_x is not None
        agree = abs(rep.gradient_x - rep.crossing_x) / rep.blowup_x
        assert agree <= 0.10
    _report(9, f"const: none through x=1000; delta=0.01: x*={rep_base.blowup_x:.2f} "
               f"(halved grid {rep_fine.blowup_x:.2f}, drift {100*drift:.1f}%), "
               f"delta=0.005: x*={rep_half.blowup_x:.2f}")


def test_criterion_10_determinism(tmp_path):
    cfg_path = tmp_path / "fix.cfg"
    fixtures.write_fixture(cfg_path, eps=1e-3, nxi=101, neta=26)
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        r = subprocess.run(
            [sys.executable, "-m", "contactmoc.cli", "solve", "--config", str(cfg_path),
             "--out", str(out), "--quiet"],
            capture_output=True, text=True,
        )
        assert r.returncode == 0
        outs.append(out)
    names = ("fields.csv", "contact.csv", "iterations.csv", "grid.csv")
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    _report(10, f"byte-identical reruns across {', '.join(names)}")
