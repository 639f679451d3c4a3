import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from contactmoc import blowup, gas
from contactmoc.config import BackgroundState
from tests import gas_reference
from tests.gas_reference import theta

G = 1.4  # gamma
BG = gas.PrimitiveState(u=2.2, v=0.0, p=1.0, rho=1.0)
B_BG = 0.5 * 2.2**2 + 3.5
SD_BG = gas.Streamline(1.0, B_BG, 1.0, G)


def _arrays(*values):
    return [np.asarray(v, dtype=float) for v in values]


def _line(sd=SD_BG, **kw):
    """A fresh streamline with the constants of ``sd`` and the settings ``kw``."""
    return gas.Streamline(sd.a0, sd.b0, sd.p_ref, sd.gamma, **kw)


def _sonic(sd):
    return gas.sonic_pressure(sd.a0, sd.b0, sd.gamma)


def _pressure(t, sd=SD_BG, **kw):
    """The pressure at Theta = t, i.e. at the invariants (t, -t)."""
    return _line(sd, **kw).state(*_arrays(t, -t))[2]


def _lambdas(state):
    return _line().lambdas(*_arrays(state.u, state.v, state.p, state.rho))


def random_supersonic_states(rng, n):
    """Moderate supersonic cloud around the reference state."""
    u = 2.2 * (1.0 + 0.15 * rng.uniform(-1, 1, n))
    v = 0.2 * rng.uniform(-1, 1, n) * u
    p = 1.0 * (1.0 + 0.2 * rng.uniform(-1, 1, n))
    rho = 1.0 * (1.0 + 0.2 * rng.uniform(-1, 1, n))
    keep = u * u > 1.2 * 1.4 * p / rho
    return u[keep], v[keep], p[keep], rho[keep]


# ---------------------------------------------------------------------------
# pointwise thermodynamics


def test_sound_speed_reference_value():
    assert gas.sound_speed(BG, G) == pytest.approx(np.sqrt(1.4), rel=1e-15)


def test_sound_speed_identity_choice():
    st_ = gas.PrimitiveState(u=1.0, v=0.0, p=1.0 / 1.4, rho=1.0)
    assert gas.sound_speed(st_, G) == pytest.approx(1.0, rel=1e-15)


def test_gamma_one_rejected():
    with pytest.raises(gas.GasError, match="gamma"):
        blowup.PeriodicProfile("2.0", "0.0", 1.0)


def test_nonpositive_state_rejected():
    with pytest.raises(gas.GasError):
        gas.PrimitiveState(u=1.0, v=0.0, p=-1.0, rho=1.0)


def test_is_supersonic_cases():
    """The invariants are those of supersonic states only: q > c."""
    _line().invariants(*_arrays(2.2, 0.0, 1.0, 1.0))
    for u in (np.sqrt(1.4), 1e-12):
        with pytest.raises(gas.GasError, match="^not-supersonic"):
            _line().invariants(*_arrays(u, 0.0, 1.0, 1.0))


def test_bernoulli_values():
    assert gas.bernoulli(BG, G) == pytest.approx(5.92, rel=1e-14)
    still = gas.PrimitiveState(u=0.0 + 1e-300, v=0.0, p=1.0, rho=1.0)
    assert gas.bernoulli(still, G) == pytest.approx(3.5, rel=1e-14)


@settings(max_examples=50, deadline=None)
@given(u=st.floats(0.1, 3.0), v=st.floats(-1.0, 1.0))
def test_bernoulli_rotation_invariance(u, v):
    a = gas.PrimitiveState(u=u, v=v, p=1.3, rho=0.9)
    b = gas.PrimitiveState(u=v + 1e-300, v=u, p=1.3, rho=0.9)
    assert gas.bernoulli(a, G) == pytest.approx(gas.bernoulli(b, G), rel=1e-14)


def test_entropy_function_values():
    assert gas.entropy_function(gas.PrimitiveState(u=1, v=0, p=1.0, rho=1.0), G) == 1.0
    assert gas.entropy_function(gas.PrimitiveState(u=1, v=0, p=2.0, rho=1.0), G) == 2.0
    val = gas.entropy_function(gas.PrimitiveState(u=1, v=0, p=1.0, rho=2.0), G)
    assert val == pytest.approx(2.0**-1.4, rel=1e-14)


def test_entropy_v_sign_invariance():
    a = gas.PrimitiveState(u=2.0, v=0.3, p=1.1, rho=0.95)
    b = gas.PrimitiveState(u=2.0, v=-0.3, p=1.1, rho=0.95)
    assert gas.entropy_function(a, G) == gas.entropy_function(b, G)


# ---------------------------------------------------------------------------
# Theta and its derivative


def test_theta_reference_point_is_zero():
    assert theta(1.0, SD_BG) == 0.0


def test_theta_positive_above_reference():
    assert theta(1.0 + 1e-3, SD_BG) > 0.0


# Background streamlines of both fixture layers and one far from them.
STREAMLINES = (SD_BG,
               gas.Streamline(1.2**-1.4, 0.5 * 1.9**2 + 3.5 / 1.2, 1.0, G),
               gas.Streamline(0.8, 4.5, 1.0, G))


def test_theta_additivity_against_independent_quadrature():
    from scipy.integrate import quad

    for sd in STREAMLINES:
        p_s = _sonic(sd)
        # the admissible cap p_s (1 - SONIC_MARGIN) and a point just below it
        near = (p_s * (1 - gas.SONIC_MARGIN), p_s * (1 - 1.5 * gas.SONIC_MARGIN))
        for p1, p2 in ((0.9, 1.25), (0.3, near[0]), (near[1], near[0]), (0.5 * p_s, near[1])):
            whole = theta(p2, sd) - theta(p1, sd)
            seg, _ = quad(lambda p: float(sd.dtheta_dp(np.asarray(p))), p1, p2,
                          epsabs=1e-13, epsrel=1e-13)
            assert whole == pytest.approx(seg, abs=1e-11)


def test_theta_sonic_limit_rejected():
    p_s = _sonic(SD_BG)
    with pytest.raises(gas.GasError, match="sonic-limit"):
        theta(p_s, SD_BG)


def test_theta_sonic_cap_is_the_same_for_scalars_and_arrays():
    """The cap comes from sonic_pressure on the streamline constants as
    given, so a one-element array is checked as its scalar is (on these data
    the power on arrays rounds the sonic pressure 1 ulp below the scalar
    one), and
    ``Streamline.invariants`` accepts the cap that the inversion clamps its
    pressure to at the sonic floor, in either form."""
    line = gas.Streamline(1.0150774356727503, 13.214780846921927, 1.0, G)
    cap = _sonic(line) * (1 - gas.SONIC_MARGIN)
    inversion_cap = line._newton[1]
    assert inversion_cap.tolist() == [cap]
    t = theta(cap, line)
    for p in (np.asarray(cap), inversion_cap):
        u, v = line.velocity(np.zeros_like(p), p)
        zm, zp = line.invariants(u, v, p, line.density(p))
        assert zm.tolist() == np.full(p.shape, t).tolist() and (zm == -zp).all()
    for p in (np.asarray(np.nextafter(cap, np.inf)), np.array([np.nextafter(cap, np.inf)])):
        with pytest.raises(gas.GasError, match="sonic-limit"):
            theta(p, line)
        with pytest.raises(gas.GasError, match="^sonic-limit"):
            line.invariants(*_arrays(10.0, 0.0), p, np.asarray(1.0))


def test_dtheta_positive_everywhere_sampled():
    ps = np.linspace(0.2, 0.98 * _sonic(SD_BG), 64)
    assert np.all(_line().dtheta_dp(ps) > 0.0)


def test_dtheta_sonic_error():
    p_s = _sonic(SD_BG)
    with pytest.raises(gas.GasError, match="sonic-limit"):
        _line().dtheta_dp(np.asarray(p_s * 1.000001))


def test_dtheta_matches_theta_fd_second_order():
    p0 = 1.07
    exact = float(_line().dtheta_dp(np.asarray(p0)))

    def fd(h):
        return (theta(p0 + h, SD_BG) - theta(p0 - h, SD_BG)) / (2 * h)

    e1 = abs(fd(2e-3) - exact)
    e2 = abs(fd(1e-3) - exact)
    assert e2 < 2e-7
    assert e1 / e2 == pytest.approx(4.0, rel=0.25)


# ---------------------------------------------------------------------------
# invariants and inversions


def test_invariants_at_reference_vanish():
    z = _line().invariants(*_arrays(2.2, 0.0, 1.0, 1.0))
    assert z.tolist() == [0.0, 0.0]


@settings(max_examples=200, deadline=None)
@given(p=st.floats(0.05, 20.0), s_a=st.floats(1.0, 6.0), rho_a=st.floats(0.2, 5.0),
       s_b=st.floats(1.0, 6.0), rho_b=st.floats(0.2, 5.0))
@example(p=1.29, s_a=2.2, rho_a=1.0, s_b=1.9, rho_b=1.2)
def test_background_invariants_are_exactly_zero(p, s_a, rho_a, s_b, rho_b):
    """The invariants of an admissible background (speeds s sqrt(p)), both
    layers on one row as the solver stacks them, are exactly (0.0, 0.0):
    nu(M(p_ref)) and nu(M(p)) at p = p_ref take the same power."""
    bg = BackgroundState(u_a=s_a * np.sqrt(p), rho_a=rho_a, u_b=s_b * np.sqrt(p), rho_b=rho_b, p=p)
    try:
        bg.validate(G, 1e-3)
    except ValueError:
        assume(False)
    a, b = bg.states()
    u, v, p_row, rho = (np.array([getattr(a, n), getattr(b, n)]) for n in ("u", "v", "p", "rho"))
    row = gas.PrimitiveState(u, v, p_row, rho)
    sd = gas.Streamline(gas.entropy_function(row, G), gas.bernoulli(row, G), p, G)
    assert sd.invariants(u, v, p_row, rho).tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_invariants_antisymmetric_for_straight_flow():
    st_ = gas.PrimitiveState(u=2.2, v=0.0, p=1.12, rho=1.0)
    sd = gas.Streamline(gas.entropy_function(st_, G), gas.bernoulli(st_, G), 1.12 / 1.3, G)
    zm, zp = sd.invariants(*_arrays(2.2, 0.0, 1.12, 1.0))
    assert zm == pytest.approx(-zp, rel=1e-14)
    assert zm > 0.0


def test_invariants_require_supersonic():
    slow = gas.PrimitiveState(u=0.5, v=0.0, p=1.0, rho=1.0)
    sd = gas.Streamline(1.0, gas.bernoulli(slow, G), 1.0, G)
    with pytest.raises(gas.GasError, match="not-supersonic"):
        sd.invariants(*_arrays(0.5, 0.0, 1.0, 1.0))


def test_invariants_match_reference_theta(rng):
    """z_-+ = arctan(v/u) +- Theta(p), with the reference's Theta bit for
    bit, on rows and on a (k, n) grid over n streamlines."""
    u, v, p, rho = random_supersonic_states(rng, 400)
    state = gas.PrimitiveState(u=u, v=v, p=p, rho=rho)
    sd = gas.Streamline(gas.entropy_function(state, G), gas.bernoulli(state, G), 1.1, G)
    t, angle = theta(p, sd), np.arctan2(v, u)
    _same_bits(sd.invariants(u, v, p, rho), np.stack([angle + t, angle - t]))
    grid = np.stack([p, 0.97 * p])
    t = theta(grid, gas.Streamline(sd.a0[None], sd.b0[None], 1.1, G))
    _same_bits(sd.invariants(u, v, grid, rho), np.stack([angle + t, angle - t]))


def test_pressure_inversion_at_origin():
    p = _pressure(0.0)
    assert p == pytest.approx(1.0, abs=1e-14)


def test_pressure_forward_invert_round_trip():
    p_true = 1.21
    t = theta(p_true, SD_BG)
    p = _pressure(t)
    assert p == pytest.approx(p_true, abs=1e-10)
    # Near the sonic cap dTheta/dp -> 0: the inversion meets newton_tol in
    # Theta, so p is as close as newton_tol / min dTheta/dp allows.  The low
    # pressure lies far from the start s_ref = s(p_ref) of the Newton iteration.
    for sd in STREAMLINES:
        cap = _sonic(sd) * (1 - gas.SONIC_MARGIN)
        for p_true in (cap, cap * (1 - 0.5 * gas.SONIC_MARGIN), cap * (1 - 1e-3), 0.21):
            t = theta(p_true, sd)
            p = _pressure(t, sd)
            assert p <= cap
            assert abs(theta(p, sd) - t) <= 1e-12
            assert p == pytest.approx(p_true, abs=1e-12 / sd.dtheta_dp(np.asarray(cap)))


def _assert_inverts(p_true, sd):
    """One batched inversion of Theta(p_true) meets newton_tol in Theta and
    recovers p_true as closely as newton_tol / dTheta/dp(cap) allows."""
    cap = _sonic(sd) * (1 - gas.SONIC_MARGIN)
    t = theta(p_true, sd)
    p = _pressure(t, sd)
    assert np.all(p <= cap)
    assert np.max(np.abs(theta(p, sd) - t)) <= 1e-12
    assert np.all(np.abs(p - p_true) <= 1e-12 / sd.dtheta_dp(np.asarray(cap)))


def test_pressure_inversion_is_batch_independent(rng):
    # Each node must invert whatever other nodes share its batch: one batch
    # spans low pressures up to the sonic cap on each streamline.
    for sd in STREAMLINES:
        cap = _sonic(sd) * (1 - gas.SONIC_MARGIN)
        _assert_inverts(np.geomspace(0.01, cap, 50), sd)
    # Random supersonic streamlines through p_ref = 1, each with a pressure
    # near its cap, one mid-range and one low, all in one batch.
    n = 2000
    rho = rng.uniform(0.6, 1.5, n)
    u = rng.uniform(1.05, 4.0, n) * np.sqrt(1.4 / rho)
    sd = gas.Streamline(np.tile(rho**-1.4, 3), np.tile(0.5 * u * u + 3.5 / rho, 3), 1.0, G)
    cap = _sonic(sd) * (1 - gas.SONIC_MARGIN)
    frac = np.concatenate([1.0 - 10.0 ** rng.uniform(-9, -3, n), rng.uniform(0.2, 0.95, n),
                           10.0 ** rng.uniform(-8, -2, n)])
    _assert_inverts(cap * frac, sd)


def test_pressure_inversion_out_of_range():
    p_cap = _sonic(SD_BG) * (1 - gas.SONIC_MARGIN)
    t_max = theta(p_cap * 0.9999999, SD_BG)
    with pytest.raises(gas.GasError, match="out-of-range"):
        _pressure(2.0 * t_max)
    # Vacuum side: the target nu(s) = nu_ref - Theta reaches the Prandtl-Meyer
    # limit nu_max = (sqrt(K) - 1) pi/2 as p -> 0, K = (gamma+1)/(gamma-1) = 6.
    nu_ref = gas.prandtl_meyer(2.2**2 / 1.4, G)
    nu_max = (np.sqrt(6.0) - 1.0) * np.pi / 2
    for beyond in (1e-12, 0.1):
        t = nu_ref - nu_max - beyond
        with pytest.raises(gas.GasError, match="out-of-range"):
            _pressure(t)
    # Just inside vacuum the target is admissible however small its pressure.
    t = nu_ref - nu_max + 1e-3
    p = _pressure(t)
    assert 0.0 < p < 1e-20
    assert abs(theta(p, SD_BG) - t) <= 1e-12


def test_velocity_from_bernoulli_background():
    u, v = _line().velocity(*_arrays(0.0, 1.0))
    assert u == pytest.approx(2.2, rel=1e-14)
    assert v == 0.0


def test_velocity_ratio_identity():
    w = 0.137
    u, v = _line().velocity(*_arrays(w, 1.05))
    assert v / u == w


def test_velocity_reproduces_bernoulli():
    w, p = 0.1, 1.1
    u, v = _line().velocity(*_arrays(w, p))
    rho = _line().density(np.asarray(p))
    b = 0.5 * (u * u + v * v) + 1.4 * p / (0.4 * rho)
    assert b == pytest.approx(B_BG, abs=1e-12)


def test_velocity_cavitation_error():
    with pytest.raises(gas.GasError, match="cavitation"):
        _line().velocity(*_arrays(0.0, 50.0))


def test_lambda_symmetric_for_straight_flow():
    lam_m, lam_p = _lambdas(BG)
    assert lam_m == pytest.approx(-lam_p, rel=1e-14)


def test_lambda_reference_value():
    _, lam_p = _lambdas(BG)
    independent = 1.0 * 2.2 * np.sqrt(1.4) / np.sqrt(2.2**2 - 1.4)
    assert lam_p == pytest.approx(independent, rel=1e-13)


def test_lambda_degenerate():
    with pytest.raises(gas.GasError, match="degenerate"):
        _lambdas(gas.PrimitiveState(u=1.0, v=2.0, p=1.0, rho=1.0))


def test_lambda_odd_in_v():
    a = gas.PrimitiveState(u=2.2, v=0.31, p=1.05, rho=0.97)
    b = gas.PrimitiveState(u=2.2, v=-0.31, p=1.05, rho=0.97)
    am, ap = _lambdas(a)
    bm, bp = _lambdas(b)
    assert am == pytest.approx(-bp, rel=1e-13)
    assert ap == pytest.approx(-bm, rel=1e-13)


def test_invariant_pair_angle_guard():
    with pytest.raises(gas.GasError, match="^flow-angle"):
        _line().state(*_arrays(2.0, 2.0))


# ---------------------------------------------------------------------------
# round trip and stream tables


def test_round_trip_many_states(rng):
    u, v, p, rho = random_supersonic_states(rng, 1500)
    state = gas.PrimitiveState(u=u, v=v, p=p, rho=rho)
    line = gas.Streamline(gas.entropy_function(state, G), gas.bernoulli(state, G), 1.0, G)
    back = gas.PrimitiveState(*line.state(*line.invariants(u, v, p, rho)))
    for name in ("u", "v", "p"):
        assert np.max(np.abs(getattr(back, name) - getattr(state, name))) < 1e-10


@settings(max_examples=40, deadline=None)
@given(du=st.floats(-0.2, 0.2), w=st.floats(-0.15, 0.15),
       dp=st.floats(-0.15, 0.3), drho=st.floats(-0.15, 0.15))
def test_round_trip_property(du, w, dp, drho):
    u = 2.2 * (1 + du)
    state = gas.PrimitiveState(u=u, v=w * u, p=1.0 + dp, rho=1.0 + drho)
    line = gas.Streamline(gas.entropy_function(state, G), gas.bernoulli(state, G), 1.0, G)
    back = gas.PrimitiveState(*line.state(*line.invariants(*_arrays(u, w * u, 1.0 + dp, 1.0 + drho))))
    assert back.p == pytest.approx(state.p, abs=1e-10)
    assert back.u == pytest.approx(state.u, abs=1e-10)
    assert back.v == pytest.approx(state.v, abs=1e-10)



# ---------------------------------------------------------------------------
# The prepared streamline against the per-call reference (tests/gas_reference.py)

# Mach 4 at p_ref: Newton from its s_ref toward the sonic cap first steps
# below the bracket and falls back to bisection.
FAST = gas.Streamline(1.0, 0.5 * 16.0 * 1.4 + 3.5, 1.0, G)


def _same_bits(a, b):
    assert type(a) is type(b)
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _targets(sd):
    """Theta targets from the sonic floor (one just past it, within
    newton_tol) down to low pressure."""
    cap = _sonic(sd) * (1 - gas.SONIC_MARGIN)
    t = theta(np.array([cap, cap * (1 - 1e-9), 0.5 * cap, 0.9, 0.21, 1e-8]), sd)
    return np.append(t, t[0] + 0.5e-12)


def _random_streamlines(n, seed):
    """Supersonic streamlines through p_ref = 1, Mach 1.05 to 4 there."""
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.6, 1.5, n)
    u = rng.uniform(1.05, 4.0, n) * np.sqrt(1.4 / rho)
    return rho**-1.4, 0.5 * u * u + 3.5 / rho


def _assert_inversions_agree(zm, zp, sd):
    """The prepared object returns the reference's state bits (as arrays)."""
    state = gas_reference.state_from_invariants(zm, zp, sd)
    for a, b in zip(sd.state(*_arrays(zm, zp)), state):
        _same_bits(np.asarray(a), np.asarray(b))


def test_prepared_inversion_matches_reference_on_scalars():
    for sd in STREAMLINES + (FAST,):
        for t in _targets(sd):
            _assert_inversions_agree(float(t) + 0.1, 0.1 - float(t), sd)
    # Scalar stream data takes numpy's scalar power for the sonic pressure,
    # which differs from the array power in the last bit for some data.
    a0, b0 = _random_streamlines(100, 1)
    for a, b in zip(a0, b0):
        sd = gas.Streamline(float(a), float(b), 1.0, G)
        _assert_inversions_agree(0.02, 0.08, sd)
        t = _targets(sd)
        _assert_inversions_agree(t + 0.1, 0.1 - t, sd)


def test_prepared_inversion_matches_reference_on_rows():
    a0, b0 = _random_streamlines(40, 2)
    sd = gas.Streamline(np.repeat(a0, 7), np.repeat(b0, 7), 1.0, G)
    t = np.concatenate([_targets(gas.Streamline(a, b, 1.0, G)) for a, b in zip(a0, b0)])
    _assert_inversions_agree(t + 0.05, 0.05 - t, sd)
    # The fixed point's shape: (nxi, n) invariants over (n,) stream data.
    sd = gas.Streamline(a0, b0, 1.0, G)
    t = np.stack([_targets(gas.Streamline(a, b, 1.0, G)) for a, b in zip(a0, b0)], axis=1)
    _assert_inversions_agree(t - 0.02, -0.02 - t, sd)
    # A row of targets over one streamline.
    t = _targets(FAST)
    _assert_inversions_agree(t, -t, FAST)


def test_prepared_dtheta_matches_reference():
    a0, b0 = _random_streamlines(2, 3)
    cap = _sonic(gas.Streamline(a0, b0, 1.0, G)) * (1 - gas.SONIC_MARGIN)
    p = np.array([0.999 * cap[0], 0.3])
    tau = np.linspace(0.0, 1.0, 16)[:, None]
    cases = [
        # the oracle's Gauss path: (2, 16, 1) over (2, 1, 1)
        (1.0 + tau * (p[:, None, None] - 1.0), a0[:, None, None], b0[:, None, None]),
        # the fixed point's: (16, m) over one streamline
        (1.0 + tau * (p - 1.0), a0[0], b0[0]),
        (p, a0, b0),
        (float(p[1]), float(a0[1]), float(b0[1])),
    ]
    for path, a, b in cases:
        line = gas.Streamline(a, b, 1.0, G)
        want = gas_reference.dtheta_dp(path, line)
        got = line.dtheta_dp(np.asarray(path))
        _same_bits(np.asarray(got), np.asarray(want))


def _error_cases():
    line = _line()
    p_s = _sonic(SD_BG)
    t_cap = 2.0 * theta(p_s * (1 - gas.SONIC_MARGIN) * 0.9999999, SD_BG)
    t_vac = gas.prandtl_meyer(2.2**2 / 1.4, G) - (np.sqrt(6.0) - 1.0) * np.pi / 2 - 0.1
    t_low = theta(0.21, SD_BG)
    # past the sonic floor by more than newton_tol (0.5e-12 past is admissible)
    t_floor = _targets(SD_BG)[0] + 1.5e-12
    # a sonic pressure of 7e-283: p underflows just inside vacuum
    tiny = gas.Streamline(1.0, 1e-80, 1.0, G)
    t_tiny = (np.sqrt(6.0) - 1.0) * np.pi / 2 - 1e-6
    # A0 = 1e300 with sonic pressure 1: p / A0 underflows, and so does rho
    heavy = gas.Streamline(1e300, 1.4 * 2.4 * 1e300 ** (1 / 1.4) / 0.8, 0.5, G)
    t_heavy = theta(1e-30, heavy)

    def pair(sd, t, **kw):
        """(prepared, reference) inversions of the target t."""
        return (lambda: _pressure(t, sd, **kw),
                lambda: gas_reference.pressure_from_invariants(t, -t, sd, **kw))

    return {
        "flow-angle": ("flow-angle", (lambda: line.state(*_arrays(2.0, 2.0)),
                                      lambda: gas_reference.state_from_invariants(
                                          2.0, 2.0, SD_BG))),
        "past-cap": ("out-of-range", pair(SD_BG, t_cap)),
        "past-floor": ("out-of-range", pair(SD_BG, t_floor)),
        "vacuum": ("out-of-range", pair(SD_BG, t_vac)),
        "underflow": ("out-of-range", pair(tiny, t_tiny)),
        "no-convergence": ("no-convergence", pair(SD_BG, t_low, max_newton_iters=1)),
        "cavitation": ("cavitation", (lambda: line.velocity(*_arrays(0.0, 50.0)),
                                      lambda: gas_reference.velocity_from_bernoulli(0.0, 50.0,
                                                                                    SD_BG))),
        "nonpositive-rho": ("out-of-range", (
            lambda: _line(heavy).state(*_arrays(t_heavy, -t_heavy)),
            lambda: gas.PrimitiveState(*gas_reference.state_from_invariants(
                t_heavy, -t_heavy, heavy)))),
        "theta-p": ("out-of-range", (lambda: line.invariants(*_arrays(2.2, 0.0, 0.0, 1.0)),
                                     lambda: theta(0.0, SD_BG))),
        "theta-sonic": ("sonic-limit", (lambda: line.invariants(*_arrays(10.0, 0.0, p_s, 1.0)),
                                        lambda: theta(p_s, SD_BG))),
        "dtheta-p": ("out-of-range", (lambda: line.dtheta_dp(np.asarray(0.0)),
                                      lambda: gas_reference.dtheta_dp(0.0, SD_BG))),
        "dtheta-sonic": ("sonic-limit", (lambda: line.dtheta_dp(np.asarray(p_s * 1.000001)),
                                         lambda: gas_reference.dtheta_dp(p_s * 1.000001,
                                                                         SD_BG))),
        "degenerate": ("degenerate", (
            lambda: line.lambdas(*_arrays(1.0, 2.0, 1.0, 1.0)),
            lambda: gas_reference.lambda_pm(gas.PrimitiveState(u=1.0, v=2.0, p=1.0, rho=1.0), G))),
        # u > c makes q > c, so only a NaN v reaches this check
        "not-supersonic": ("not-supersonic", (
            lambda: line.lambdas(*_arrays(2.2, np.nan, 1.0, 1.0)),
            lambda: gas_reference.lambda_pm(gas.PrimitiveState(u=2.2, v=np.nan, p=1.0, rho=1.0),
                                            G))),
    }


@pytest.mark.parametrize("case", list(_error_cases()))
def test_prepared_object_raises_the_wrappers_codes(case):
    """``gas.Streamline`` raises the code of the scalar-or-array functions
    in ``tests/gas_reference.py`` for each way out of the admissible domain."""
    code, calls = _error_cases()[case]
    for call in calls:
        with pytest.raises(gas.GasError, match=f"^{code}"):
            call()


def test_paired_guards_raise_the_first_failing_check():
    """A pair of guards is tested as one mask: where both checks fail, the
    first check's code is raised.  The Theta range pair is tested as the
    in-range pair negated, so a NaN target fails it."""
    line = _line()
    p_s = _sonic(SD_BG)
    with pytest.raises(gas.GasError, match="^degenerate"):  # u < c, and a NaN q^2 - c^2
        line.lambdas(*_arrays([2.2, 1.0], [np.nan, 0.0], 1.0, 1.0))
    with pytest.raises(gas.GasError, match="^out-of-range"):  # past sonic, and p = 0
        line.dtheta_dp(np.array([p_s * 1.000001, 0.0]))
    with pytest.raises(gas.GasError, match="^out-of-range: target exceeds the range of Theta"):
        line._invert(np.array([0.0, np.nan]))


@pytest.mark.parametrize("make", [
    lambda: blowup.PeriodicProfile("2.0", "0.0", 1.0),
    lambda: blowup.PeriodicProfile("2.0", "0.0", 0.5),
    lambda: gas.Streamline(0.0, 1.0, 1.0, G),
    lambda: gas.Streamline(1.0, -1.0, 1.0, G),
    lambda: gas.Streamline(1.0, 1.0, 0.0, G),
    lambda: gas.PrimitiveState(u=1.0, v=0.0, p=-1.0, rho=1.0),
    lambda: gas.PrimitiveState(u=1.0, v=0.0, p=1.0, rho=np.array([1.0, 0.0])),
], ids=["gamma-1", "gamma-half", "a0", "b0", "p_ref", "p", "rho"])
def test_constructor_errors_lead_with_a_code(make):
    """Every GasError message starts with a code token, so the CLI's summary
    line carries ``code=`` for it."""
    with pytest.raises(gas.GasError, match="^out-of-range: "):
        make()
