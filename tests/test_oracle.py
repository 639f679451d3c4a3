import ast
import dataclasses
import inspect
import re

import numpy as np
import pytest

from contactmoc import gas, moc, oracle
from tests.conftest import assemble, solved
from tests.oracle_reference import _upwind, per_layer_march


def test_background_propagates_exactly():
    cfg, geom, profile, prob = assemble(0.0, 60, 12)
    out = oracle.upwind_march(prob)
    assert isinstance(out, moc.InvariantGrid) and out.domain is prob.domain
    # the background's invariants are zero
    assert np.max(np.abs(out.zm_a)) < 1e-14
    assert np.max(np.abs(out.zp_a)) < 1e-14
    assert np.max(np.abs(out.zm_b)) < 1e-14
    assert np.max(np.abs(out.zp_b)) < 1e-14


def test_upwind_first_order_against_exact_translation():
    # frozen constant speed: the updates reduce to scalar upwind advection;
    # refine grid and step together at fixed Courant number
    lam_val = 0.7
    courant = 0.8
    distance = 0.48

    def err(n_cells):
        h = 2.0 / n_cells
        y = np.arange(n_cells) * h
        lam = lam_val * np.ones_like(y)
        z0 = np.tanh((y - 1.0) / 0.15)
        dx = courant * h / lam_val
        n = int(round(distance / (courant * h)))
        out = z0.copy()
        for _ in range(n):
            out = _upwind(out, lam, dx / h)
            out[0] = z0[0]
        exact = np.tanh((y - 1.0 - n * courant * h) / 0.15)
        return np.max(np.abs(out - exact)[5:-5])

    e1 = err(200)
    e2 = err(400)
    assert e1 > e2
    assert e1 / e2 == pytest.approx(2.0, rel=0.35)


def test_upwind_preserves_monotone_data():
    h = 0.02
    lam = 0.5 * np.ones(101)
    z = np.linspace(0.0, 1.0, 101) ** 2
    out = z.copy()
    for _ in range(40):
        out = _upwind(out, lam, 0.9)
        assert np.all(np.diff(out) >= -1e-15)


def test_compare_fields_trivial_and_single_node():
    cfg, geom, profile, prob = assemble(0.0, 40, 10)
    a = moc.InvariantGrid.background(prob)
    b = moc.InvariantGrid(prob.domain, a.zm.copy(), a.zp.copy())
    assert oracle.compare_fields(a, b) == 0.0
    b.zp[3, prob.domain.eta_a.size + 4] += 2.5e-7  # node 4 of layer b
    assert oracle.compare_fields(a, b) == pytest.approx(2.5e-7, rel=1e-12)
    assert oracle.compare_fields(b, a) == oracle.compare_fields(a, b)


def test_compare_fields_lattice_mismatch():
    cfg, geom, profile, prob = assemble(0.0, 40, 10)
    cfg2, geom2, profile2, prob2 = assemble(0.0, 40, 12)
    a = moc.InvariantGrid.background(prob)
    b = moc.InvariantGrid.background(prob2)
    with pytest.raises(ValueError, match="lattice mismatch"):
        oracle.compare_fields(a, b)


def test_oracle_reads_no_solver_caches():
    src = inspect.getsource(oracle)
    assert "FrozenField" not in src
    assert "CouplingCoefficients" not in src
    assert "frozen_lambdas" not in src
    assert "coupling_coefficients" not in src
    # The oracle evaluates the walls at its own sub-step abscissae and
    # inverts its own slabs; the problem's precomputed values stay unread.
    assert "wall_angle_plus" not in src
    assert "wall_angle_minus" not in src
    assert "prob.wall_angle" not in src
    assert "grid_states" not in src
    # Nor does it share the fixed point's march.
    assert "plan_march" not in src
    assert "march_linearized" not in src
    assert "step_linearized" not in src


def _smallest_valid_nxi(eps, neta):
    with pytest.raises(moc.SolverError, match="cfl:") as info:
        assemble(eps, 10, neta)
    return int(re.search(r"smallest valid nxi is (\d+)", str(info.value)).group(1))


@pytest.mark.parametrize("eps, nxi, neta", [(1e-3, 101, 26), (1e-2, 101, 26), (1e-2, None, 26),
                                             (1e-2, 161, (21, 34))],
                         ids=["eps1e-3", "eps1e-2", "near-cfl", "unequal"])
def test_march_matches_per_layer_reference(monkeypatch, eps, nxi, neta):
    near_cfl = nxi is None
    if near_cfl:
        nxi = _smallest_valid_nxi(eps, neta) + 1
    prob = assemble(eps, nxi, neta)[3]
    ref, ref_substeps = per_layer_march(prob)
    inversions = []
    invert = gas.Streamline._invert

    def counted(line, t, s=None):
        inversions.append(t.shape)
        return invert(line, t, s)

    monkeypatch.setattr(gas.Streamline, "_invert", counted)
    out = oracle.upwind_march(prob)
    assert out.zm.shape == (nxi, prob.domain.eta_a.size + prob.domain.eta_b.size)
    for name in ("zm_a", "zp_a", "zm_b", "zp_b"):
        assert np.array_equal(getattr(out, name), getattr(ref, name)), name
    # one stacked inversion per sub-step, and the reference's sub-steps
    assert len(inversions) == ref_substeps
    assert set(inversions) == {out.zm.shape[1:]}
    if near_cfl:
        assert ref_substeps > nxi - 1  # some step took n_sub >= 2


class _SteepUpperWall:
    """The problem's walls, but the upper wall turns down with slope
    ``slope`` from x = 1 on: a compression that the march meets mid-row."""

    def __init__(self, geom, slope):
        self.geom, self.slope = geom, slope

    def g_plus(self, x, order=0):
        return self.slope * (x > 1.0) if order == 1 else self.geom.g_plus(x, order)

    def g_minus(self, x, order=0):
        return self.geom.g_minus(x, order)


def test_march_that_leaves_the_supersonic_regime_raises_out_of_range(monkeypatch):
    """The compression drives layer a's pressure past the sonic cap after
    the march has started: the inversion rejects the target with the gas
    layer's ``out-of-range`` error, and the sub-steps before it ran."""
    prob = assemble(1e-3, 60, 12)[3]
    prob = dataclasses.replace(prob, geom=_SteepUpperWall(prob.geom, -0.3))
    inversions = []
    invert = gas.Streamline._invert

    def counted(line, t, s=None):
        inversions.append(1)
        return invert(line, t, s)

    monkeypatch.setattr(gas.Streamline, "_invert", counted)
    with pytest.raises(gas.GasError, match="^out-of-range: target exceeds the range of Theta"):
        oracle.upwind_march(prob)
    assert len(inversions) > 14  # xi = 1 is step 15 of 59


class _CountedWalls:
    """The problem's walls, recording each call as (wall, order, shape of x)."""

    def __init__(self, geom):
        self.geom, self.calls = geom, []

    def g_plus(self, x, order=0):
        self.calls.append(("g_plus", order, np.shape(x)))
        return self.geom.g_plus(x, order)

    def g_minus(self, x, order=0):
        self.calls.append(("g_minus", order, np.shape(x)))
        return self.geom.g_minus(x, order)


def test_wall_slopes_are_tabulated_once_per_march(monkeypatch):
    """Where no step sub-steps, the march evaluates each wall's slope once,
    on all its step ends, and gives the bits it gives with the plain walls."""
    prob = assemble(1e-3, 101, 26)[3]
    plain = oracle.upwind_march(prob)
    walls = _CountedWalls(prob.geom)
    inversions = []
    invert = gas.Streamline._invert

    def counted(line, t, s=None):
        inversions.append(1)
        return invert(line, t, s)

    monkeypatch.setattr(gas.Streamline, "_invert", counted)
    out = oracle.upwind_march(dataclasses.replace(prob, geom=walls))
    assert len(inversions) == 100  # one sub-step per step
    assert walls.calls == [("g_plus", 1, (100,)), ("g_minus", 1, (100,))]
    assert np.array_equal(out.zm, plain.zm) and np.array_equal(out.zp, plain.zp)


def test_substep_cap_raises_degenerate(monkeypatch):
    """A step that needs more CFL sub-steps than ``_MAX_SUBSTEPS`` stops the
    march with a ``degenerate`` SolverError naming the count."""
    nxi = _smallest_valid_nxi(1e-2, 26) + 1  # some step takes two sub-steps
    prob = assemble(1e-2, nxi, 26)[3]
    monkeypatch.setattr(oracle, "_MAX_SUBSTEPS", 1)
    with pytest.raises(moc.SolverError, match=r"^degenerate: CFL sub-stepping exploded near "
                                              r"xi = \S+ \(would need 2 sub-steps\)$"):
        oracle.upwind_march(prob)


def test_oracle_approaches_moc_solution():
    cfg, geom, profile, prob, grid, history = solved(1e-3, 101, 26)
    out = oracle.upwind_march(prob)
    sup = oracle.compare_fields(grid, out)
    dev_scale = max(np.max(np.abs(grid.zm_a)), np.max(np.abs(grid.zp_a)))
    # first-order cross-check: same solution up to a modest fraction of the
    # deviation scale on a coarse grid
    assert sup < 0.5 * dev_scale
    assert sup > 0.0


def test_oracle_imports_only_public_solver_names():
    tree = ast.parse(inspect.getsource(oracle))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "moc" for alias in node.names]
    assert {"close_row", "contact_reflection"} <= set(names)
    assert not [name for name in names if name.startswith("_")]
