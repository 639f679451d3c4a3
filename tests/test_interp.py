"""The non-uniform PCHIP in ``interp`` against scipy's PchipInterpolator, bit
for bit: values, piece coefficients, derivatives and the antiderivative; the
four-point cubic (``cubic_stencil`` then ``cubic_eval``) against its
one-function form, and its stacked Lagrange sum against the written-out sum;
and the uniform monotone cubic against its plain form."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contactmoc import blowup, interp
from tests.blowup_reference import plain_hermite_rows, plain_monotone_slopes
from tests.cubic_reference import plain_cubic


def _cases():
    rng = np.random.default_rng(20261018)
    x_rand = np.cumsum(rng.uniform(0.01, 1.0, 40)) - 7.0
    x_flat = np.cumsum(rng.uniform(0.05, 0.4, 16))
    lin01 = np.linspace(0.0, 1.0, 41)
    lin10 = np.linspace(-1.0, 0.0, 33)
    return {
        "random-knots": (x_rand, rng.normal(size=x_rand.size)),
        "random-knots-monotone": (x_rand, np.cumsum(rng.uniform(0.0, 2.0, x_rand.size))),
        "linspace-0-1": (lin01, np.sin(2.0 * np.pi * lin01) + 0.1 * lin01),
        "linspace-minus1-0": (lin10, np.exp(lin10) * np.cos(5.0 * lin10)),
        "flat-runs-and-sign-changes": (
            x_flat, np.array([0.0, 0.0, 0.0, 1.0, 1.0, 2.5, 2.5, 2.5, 1.0, -1.0, -1.0, 0.3, -0.2, 0.4, 0.4, 0.4])),
        "alternating-signs": (x_flat, 0.7 * (-1.0) ** np.arange(x_flat.size) + 0.01 * x_flat),
        "n2": (np.array([0.3, 1.7]), np.array([2.0, -1.0])),
        "n3": (np.array([0.0, 0.2, 1.0]), np.array([1.0, 3.0, 2.0])),
        "n3-monotone": (np.array([-1.0, 0.5, 0.75]), np.array([0.0, 0.1, 4.0])),
    }


CASES = _cases()


def _queries(x):
    """Every knot, points across and beyond the span, and both far sides."""
    span = x[-1] - x[0]
    inside = np.random.default_rng(x.size).uniform(x[0], x[-1], 300)
    return np.concatenate([x, inside, np.linspace(x[0] - 0.3 * span, x[-1] + 0.3 * span, 101),
                           [x[0] - 2.0 * span, x[-1] + 2.0 * span]])


@pytest.mark.parametrize("name", sorted(CASES))
def test_pchip_bit_equal_to_scipy(name):
    from scipy.interpolate import PchipInterpolator

    x, y = CASES[name]
    ref, ours = PchipInterpolator(x, y), interp.pchip(x, y)
    q = _queries(x)
    assert np.array_equal(ours.x, ref.x)
    assert np.array_equal(ours.c, ref.c)
    assert np.array_equal(ours(q), ref(q))
    for nu in (1, 2, 3):
        d, d_ref = ours.derivative(nu), ref.derivative(nu)
        assert np.array_equal(d.c, d_ref.c), nu
        assert np.array_equal(d(q), d_ref(q)), nu
    a, a_ref = ours.antiderivative(), ref.antiderivative()
    assert np.array_equal(a.c, a_ref.c)
    assert np.array_equal(a(q), a_ref(q))


def test_pchip_keeps_query_shape():
    from scipy.interpolate import PchipInterpolator

    x, y = CASES["random-knots"]
    ref, ours = PchipInterpolator(x, y), interp.pchip(x, y)
    grid = _queries(x)[:120].reshape(3, 40)
    assert np.array_equal(ours(grid), ref(grid))
    for t in (x[5], float(x[0] - 1.0)):
        assert np.shape(ours(t)) == np.shape(ref(t)) == ()
        assert np.array_equal(ours(t), ref(t))


def test_speed_table_bit_equal_to_scipy(rng):
    from scipy.interpolate import PchipInterpolator

    gamma = 1.4
    prof = blowup.PeriodicProfile("2.0", "0.05 * sin(pi * y)", gamma)
    tab = blowup._MachAngleTable(prof.qhat, gamma, prof.q_ref)
    # The table's knot speeds: 2001 points between the sonic and the limit
    # speed, each pulled in by 1e-3 of the gap.
    c_hat = blowup.critical_speed(prof.qhat, gamma)
    gap = prof.qhat - c_hat
    qs = np.linspace(c_hat + 1e-3 * gap, prof.qhat - 1e-3 * gap, tab.table.x.size)
    mu = np.arcsin(blowup._c_of_q2(qs * qs, prof.qhat, gamma) / qs)
    ref = PchipInterpolator(tab.table.x, mu)
    th = rng.uniform(tab.th_lo, tab.th_hi, 2000)
    assert np.array_equal(tab.table.c, ref.c)
    assert np.array_equal(tab.mu_of_theta(th), ref(th))


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0]),
    ([0.0, 2.0, 1.0], [0.0, 1.0, 2.0]),
    ([0.0], [1.0]),
    ([0.0, 1.0, 2.0], [0.0, 1.0]),
    ([0.0, 1.0, 2.0], [0.0, np.nan, 1.0]),
    ([0.0, 1.0, np.inf], [0.0, 1.0, 2.0]),
])
def test_pchip_rejects_bad_knots(x, y):
    with pytest.raises(ValueError, match="strictly increasing"):
        interp.pchip(x, y)


def _cubic(y0, h, v, yq):
    """The four-point cubic through the library's two halves."""
    return interp.cubic_eval(v, *interp.cubic_stencil(y0, h, v.size, yq))


@pytest.mark.parametrize("n", [4, 5, 9, 35, 101])
def test_cubic_bit_equal_to_one_function_form(n):
    rng = np.random.default_rng(n)
    y0, h = rng.uniform(-2.0, 2.0), rng.uniform(0.01, 1.0)
    nodes = np.linspace(y0, y0 + (n - 1) * h, n)
    for v in (rng.normal(size=n), np.cumsum(rng.uniform(0.0, 1.0, n)), np.zeros(n)):
        # every node (computed both ways), both ends, and random interior points
        q = np.concatenate([nodes, y0 + h * np.arange(n), [y0, nodes[-1]],
                            rng.uniform(y0, nodes[-1], 400)])
        assert np.array_equal(_cubic(y0, h, v, q), plain_cubic(y0, h, v, q))
        q2 = q[:400].reshape(20, 20)
        assert np.array_equal(_cubic(y0, h, v, q2), plain_cubic(y0, h, v, q2))
        one = _cubic(y0, h, v, q[n + 1])
        assert np.shape(one) == ()
        assert one == plain_cubic(y0, h, v, q[n + 1])


def test_cubic_clipped_needs_four_samples():
    with pytest.raises(ValueError, match="at least 4 nodes"):
        _cubic(0.0, 0.5, np.array([1.0, 2.0, 0.5]), [0.25, 0.75])
    with pytest.raises(ValueError, match="at least 4 nodes"):
        interp.cubic_stencil(0.0, 0.5, 3, [0.25])


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


# Finite samples well inside overflow of the cubic's products (each partial
# product is at most 27 |v|), so both forms stay finite; subnormals and both
# zeros included.
_SAMPLE = st.floats(-1e300, 1e300)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_SAMPLE, _SAMPLE, _SAMPLE, _SAMPLE, st.floats(-0.0, 3.0)),
                min_size=1, max_size=40))
@example([(0.0, -0.0, 5e-324, -5e-324, 0.0), (-0.0, -0.0, -0.0, -0.0, 3.0),
          (-0.0, 0.0, -0.0, 0.0, -0.0), (2.2e-308, -1e-310, 0.0, -0.0, 1.5),
          (1.0, 1.0, 1.0, 1.0, 1.0), (-0.0, -0.0, -0.0, -0.0, 2.0)])
def test_stacked_lagrange_sum_is_exact(cases):
    """``cubic_eval`` builds t0..t3 in place and sums t1 - t0 - t2 + t3; the
    written-out sum starts from -v0.  Bit for bit equal on whole rows and on
    one query alone (0-d)."""
    v0, v1, v2, v3, s = (np.array(c) for c in zip(*cases))
    m = s.size
    v = np.concatenate([v0, v1, v2, v3])
    stencil = np.arange(4 * m).reshape(4, m)
    for part in (slice(None), 0):  # the rows, then the first query alone
        t = s[part]
        want = (
            -v[stencil[0, part]] * (t - 1.0) * (t - 2.0) * (t - 3.0) / 6.0
            + v[stencil[1, part]] * t * (t - 2.0) * (t - 3.0) / 2.0
            - v[stencil[2, part]] * t * (t - 1.0) * (t - 3.0) / 2.0
            + v[stencil[3, part]] * t * (t - 1.0) * (t - 2.0) / 6.0
        )
        assert np.array_equal(_bits(interp.cubic_eval(v, stencil[:, part], t)), _bits(want))


def _padded_rows(rng, n):
    """Rows that exercise every branch of the slopes: random, flat, flat
    runs, alternating signs and exact zeros."""
    return np.array([
        rng.normal(size=n),
        np.full(n, 0.3),
        np.where(np.arange(n) % 7 < 3, 0.0, rng.normal(size=n)),
        np.where(np.arange(n) % 2, 1.0, -1.0) * rng.uniform(0.5, 1.5, n),
        np.repeat(rng.normal(size=n // 4 + 1), 4)[:n],
        np.sin(np.linspace(0.0, 6.0, n)),
    ])


@pytest.mark.parametrize("n", [5, 12, 208])
def test_uniform_monotone_cubic_is_bit_equal_to_plain_form(rng, n):
    """``monotone_slopes`` and ``hermite_eval`` against the plainly written
    forms in ``tests/blowup_reference.py``, stacked and row by row, with
    queries anywhere in the cells [1, n - 2), their ends included."""
    h = 2.0 / 160
    y0 = -1.0 - 4 * h
    v = _padded_rows(rng, n)
    t = rng.uniform(1.0, n - 2.0, v.shape)
    t[:, 0], t[:, 1] = 1.0, np.nextafter(n - 2.0, 0.0)
    yq = y0 + h * t
    plain = plain_hermite_rows(y0, h, v, plain_monotone_slopes(v, h), yq)
    assert np.array_equal(interp.monotone_slopes(v, h), plain_monotone_slopes(v, h))
    assert np.array_equal(interp.monotone_interp(y0, h, v, yq), plain)
    for r in range(v.shape[0]):
        assert np.array_equal(interp.monotone_interp(y0, h, v[r], yq[r]), plain[r])


@settings(max_examples=500, deadline=None)
@given(st.floats(0.0, 1.0, exclude_max=True))
def test_hermite_basis_rewrite_is_exact(s):
    """``hermite_eval`` forms w = 3 s^2 - 2 s^3 once and uses w and 1 - w as
    the weights of v1 and v0; the plain form rounds them as -2 s^3 + 3 s^2
    and 2 s^3 - 3 s^2 + 1."""
    s = np.float64(s)
    s2 = s * s
    s3 = s2 * s
    w = 3.0 * s2 - 2.0 * s3
    for mine, plain in ((w, -2.0 * s3 + 3.0 * s2), (1.0 - w, 2.0 * s3 - 3.0 * s2 + 1.0)):
        assert np.array([mine]).view(np.int64) == np.array([plain]).view(np.int64)


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False), st.floats(allow_nan=False))
def test_positive_secant_product_has_a_nonzero_sum(a, b):
    """``monotone_slopes`` divides where the secant product is positive,
    without testing the denominator: same-signed nonzero secants never sum
    to zero."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if np.float64(a) * np.float64(b) > 0.0:
            assert np.float64(a) + np.float64(b) != 0.0
