"""Shape-preserving cubic interpolation.

Three flavours of piecewise cubic interpolation:

* On uniform lattices (``monotone_slopes``, ``hermite_eval``,
  ``monotone_interp``): Fritsch-Carlson slopes (harmonic mean of adjacent
  secants, zero at local extrema) with cubic Hermite evaluation, stacked
  rows along the last axis.  Reproduces constants and straight lines up to
  rounding (not bit for bit: a flat row of 0.3 can come back an ulp off) and
  never overshoots the local data range, which is what the blow-up march's
  semi-Lagrangian update relies on.  The rows are padded: every query lies
  in a cell ``[1, n - 2)``, so both of its slopes are interior and the end
  slopes are left unset.

* The four-point Lagrange cubic on a uniform lattice, in two halves:
  ``cubic_stencil`` maps queries to the gather index of their four stencil
  nodes and the local coordinate, ``cubic_eval`` makes one gather and one
  stacked Lagrange sum.  The nozzle march plans the stencils of a whole
  outer iteration at once and evaluates them step by step, so the index
  arithmetic is paid once per plan and each step is nine numpy calls.  The
  nozzle flow is smooth, so the cubic is not limited: a clip to the
  bracketing pair would flatten smooth extrema and cost an order.

* On non-uniform knots (``pchip``, ``PiecewisePoly``): the PCHIP of Fritsch
  & Butland (SIAM J. Sci. Comput. 5, 1984) with weighted harmonic slopes and
  the three-point end rule of Moler's ``pchiptx``, held as power-basis pieces
  with exact derivatives and antiderivative.  The arithmetic follows
  ``scipy.interpolate.PchipInterpolator`` operation for operation, so values,
  coefficients, derivatives and antiderivatives agree with it bit for bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def monotone_slopes(v, h):
    """Shape-preserving node slopes for uniformly spaced samples ``v``, taken
    along the last axis (each row of a stacked array on its own).  The end
    slopes are left at zero: no query of a padded row reads them."""
    v = np.asarray(v, dtype=float)
    s = (v[..., 1:] - v[..., :-1]) / h
    d = np.zeros(v.shape)
    prod = s[..., :-1] * s[..., 1:]
    # prod > 0 puts both secants on one strict side of zero, so their sum,
    # the denominator, cannot round to zero.
    np.divide(2.0 * prod, s[..., :-1] + s[..., 1:], out=d[..., 1:-1], where=prod > 0.0)
    return d


@functools.lru_cache(maxsize=8)
def _row_offsets(lead, n):
    """Index of each row's first entry in stacked rows of length ``n`` and
    leading shape ``lead``, flattened: shape ``lead + (1,)``, read-only."""
    offsets = (n * np.arange(math.prod(lead), dtype=np.intp)).reshape(lead + (1,))
    offsets.flags.writeable = False
    return offsets


def hermite_eval(y0, h, v, d, yq):
    """Evaluate the Hermite cubic defined by values ``v`` and slopes ``d`` on
    the uniform lattice y0 + i*h at query points ``yq``.

    Every query must lie in a cell ``[1, n - 2)`` of its padded row, so that
    both slopes it reads are interior; nothing is clamped.  Stacked rows
    interpolate along the last axis: ``yq[..., k]`` is a query into row
    ``v[...]``, so ``yq`` has the leading shape of ``v``.
    """
    v = np.asarray(v, dtype=float)
    t = (np.asarray(yq, dtype=float) - y0) / h
    idx = t.astype(np.intp)  # the floor, as every query has t >= 1
    s = t - idx
    dh = np.asarray(d) * h  # slopes per cell, scaled once before the gathers
    # Row-offset indices into the flattened rows: one gather per term.
    idx += _row_offsets(v.shape[:-1], v.shape[-1])
    v, dh = v.reshape(-1), dh.reshape(-1)
    s2 = s * s
    s3 = s2 * s
    # The basis weights of v1 and v0: 3 s^2 - 2 s^3 rounds as -2 s^3 + 3 s^2,
    # and 1 - w as 2 s^3 - 3 s^2 + 1.
    w = 3.0 * s2 - 2.0 * s3
    out = (1.0 - w) * v.take(idx)
    out += (s3 - 2.0 * s2 + s) * dh.take(idx)
    out += w * v[1:].take(idx)  # the right-hand node of each cell
    out += (s3 - s2) * dh[1:].take(idx)
    return out


def monotone_interp(y0, h, v, yq):
    """One-shot shape-preserving interpolation on a uniform, padded lattice
    (along the last axis for stacked rows)."""
    return hermite_eval(y0, h, v, monotone_slopes(v, h), yq)


_STENCIL = np.arange(4)
# The twelve Lagrange factors are s - _SHIFT, in three blocks of four: entry
# r of [0:4], [4:8] and [8:12] is the first, second and third factor of
# basis weight r (s - 0.0 is s, -0.0 included).  _DENOM holds the weights'
# denominators.
_SHIFT = np.array([1.0, 0.0, 0.0, 0.0, 2.0, 2.0, 1.0, 1.0, 3.0, 3.0, 3.0, 2.0])
_DENOM = np.array([6.0, 2.0, 2.0, 6.0])


@functools.lru_cache(maxsize=8)
def _lagrange_columns(ndim):
    """``_SHIFT`` and ``_DENOM`` as columns over ``ndim`` trailing axes,
    read-only."""
    cols = tuple(c.reshape(c.shape + (1,) * ndim) for c in (_SHIFT, _DENOM))
    for c in cols:
        c.flags.writeable = False
    return cols


def cubic_stencil(y0, h, n, yq):
    """Stencil of the four-point cubic on the lattice y0 + i*h, i < n, for
    each query in ``yq`` (any shape; queries are expected inside the lattice
    span).

    Returns ``(index, s)``: the (4,) + yq.shape gather index of the four
    stencil nodes, centred on the query's cell and shifted inside the
    lattice at its ends, and the local coordinate in [0, 3] over the
    stencil.  Raises ValueError for n < 4.
    """
    if n < 4:
        raise ValueError(f"the four-point cubic needs at least 4 nodes, got {n}")
    t = np.asarray(yq, dtype=float) - y0
    t /= h
    base = np.clip(np.floor(t).astype(np.intp) - 1, 0, n - 4)
    index = np.add.outer(_STENCIL, base)
    t -= base
    return index, t


def cubic_eval(v, index, s):
    """Four-point Lagrange cubic of the 1-D samples ``v`` on a stencil from
    ``cubic_stencil``.

    One gather reads the stencil values v0..v3.  The terms
    t0 = v0 (s-1)(s-2)(s-3)/6, t1 = v1 s (s-2)(s-3)/2,
    t2 = v2 s (s-1)(s-3)/2 and t3 = v3 s (s-1)(s-2)/6 are built in place on
    the stacked block, each product rounded left to right, and the value is
    t1 - t0 - t2 + t3.  In IEEE arithmetic (-a) b = -(a b) and
    -a + b = b - a, so this is bit for bit the written-out
    -v0 (s-1)(s-2)(s-3)/6 + v1 s (s-2)(s-3)/2 - ... + v3 s (s-1)(s-2)/6.
    """
    shift, denom = _lagrange_columns(np.ndim(s))
    terms = v.take(index)
    factor = s - shift
    terms *= factor[:4]
    terms *= factor[4:8]
    terms *= factor[8:]
    terms /= denom
    out = terms[1] - terms[0]
    out -= terms[2]
    out += terms[3]
    return out


class PiecewisePoly:
    """Piecewise polynomial in the local power basis.

    On ``x[i] <= t < x[i + 1]`` the value is
    ``sum(c[m, i] * (t - x[i]) ** (k - m) for m in range(k + 1))``, k the
    degree.  The last knot belongs to the last interval, and queries outside
    ``[x[0], x[-1]]`` extend the end pieces.
    """

    def __init__(self, x, c):
        self.x = x
        self.c = c

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        i = self.x[1:-1].searchsorted(flat, side="right")
        s = flat - self.x.take(i)
        c = self.c.take(i, axis=1)
        # Horner would round differently: add the terms from the constant
        # up, with the powers of s built by repeated multiplication.
        out, z = c[-1], s
        for m in range(c.shape[0] - 2, -1, -1):
            out += c[m] * z
            if m:
                z = z * s
        return out.reshape(t.shape)

    def derivative(self, nu=1):
        """The nu-th derivative (1 <= nu <= k), of degree k - nu."""
        k = self.c.shape[0] - 1
        # Row m holds the power k - m, which the derivative multiplies by the
        # falling factorial (k - m) (k - m - 1) ... (k - m - nu + 1).
        factor = [float(math.prod(range(j + 1, j + nu + 1))) for j in range(k - nu, -1, -1)]
        return PiecewisePoly(self.x, self.c[: k + 1 - nu] * np.array(factor)[:, None])

    def antiderivative(self):
        """The antiderivative that vanishes at ``x[0]``, continuous across knots."""
        k = self.c.shape[0] - 1
        c = np.zeros((k + 2, self.c.shape[1]))
        c[:-1] = self.c / np.arange(k + 1, 0, -1, dtype=float)[:, None]
        # Each piece's constant is the previous piece's value at its right
        # knot, summed constant first as __call__ sums: the running sum of the
        # pieces' terms interleaved in that order (cumsum adds sequentially).
        h = np.diff(self.x)[:-1]
        z = h
        terms = []
        for row in c[-2::-1, :-1]:
            terms.append(row * z)
            z = z * h
        c[-1, 1:] = np.cumsum(np.stack(terms, axis=1).ravel())[k::k + 1]
        return PiecewisePoly(self.x, c)


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, zeroed against the end secant's sign
    and capped at three times it where the secants change sign."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip(x, y):
    """Monotone piecewise cubic through (x, y) on strictly increasing knots."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.diff(x)
    if (x.ndim != 1 or x.size < 2 or y.shape != x.shape or not np.all(h > 0.0)
            or not np.all(np.isfinite(x)) or not np.all(np.isfinite(y))):
        raise ValueError("pchip needs finite 1-D x and y of one length, x strictly increasing")
    m = np.diff(y) / h
    d = np.zeros_like(y)
    if x.size == 2:
        d[:] = m[0]
    else:
        # Weighted harmonic mean of the adjacent secants where they share a
        # strict sign, zero elsewhere.
        keep = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0) & (m[:-1] != 0.0)
        w1 = (2.0 * h[1:] + h[:-1])[keep]
        w2 = (h[1:] + 2.0 * h[:-1])[keep]
        d[1:-1][keep] = 1.0 / ((w1 / m[:-1][keep] + w2 / m[1:][keep]) / (w1 + w2))
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return PiecewisePoly(x, np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])))
