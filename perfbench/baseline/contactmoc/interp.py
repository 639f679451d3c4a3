"""Shape-preserving cubic interpolation on uniform lattices.

Fritsch-Carlson slopes (harmonic mean of adjacent secants, zero at local
extrema) with cubic Hermite evaluation.  Reproduces constants and straight
lines exactly and never overshoots the local data range, which is what the
semi-Lagrangian updates rely on at the contact row.  Much cheaper than
constructing a scipy interpolator per slab.
"""

from __future__ import annotations

import numpy as np


def monotone_slopes(v, h):
    """Shape-preserving node slopes for uniformly spaced samples ``v``."""
    v = np.asarray(v, dtype=float)
    s = np.diff(v) / h
    d = np.zeros_like(v)
    prod = s[:-1] * s[1:]
    mask = prod > 0.0
    denom = s[:-1] + s[1:]
    d[1:-1] = np.where(mask, np.divide(2.0 * prod, denom, out=np.zeros_like(denom),
                                       where=denom != 0.0), 0.0)

    def end_slope(s0, s1):
        d0 = 0.5 * (3.0 * s0 - s1)
        if d0 * s0 <= 0.0:
            return 0.0
        if s0 * s1 < 0.0 and abs(d0) > 3.0 * abs(s0):
            return 3.0 * s0
        return d0

    d[0] = end_slope(s[0], s[1] if s.size > 1 else s[0])
    d[-1] = end_slope(s[-1], s[-2] if s.size > 1 else s[-1])
    return d


def hermite_eval(y0, h, v, d, yq):
    """Evaluate the Hermite cubic defined by values ``v`` and slopes ``d`` on
    the uniform lattice y0 + i*h at query points ``yq`` (clipped to range)."""
    v = np.asarray(v, dtype=float)
    yq = np.asarray(yq, dtype=float)
    n = v.size
    t = (yq - y0) / h
    idx = np.clip(np.floor(t).astype(int), 0, n - 2)
    s = np.clip(t - idx, 0.0, 1.0)
    v0 = v[idx]
    v1 = v[idx + 1]
    d0 = d[idx] * h
    d1 = d[idx + 1] * h
    s2 = s * s
    s3 = s2 * s
    return (
        (2.0 * s3 - 3.0 * s2 + 1.0) * v0
        + (s3 - 2.0 * s2 + s) * d0
        + (-2.0 * s3 + 3.0 * s2) * v1
        + (s3 - s2) * d1
    )


def monotone_interp(y0, h, v, yq):
    """One-shot shape-preserving interpolation on a uniform lattice."""
    return hermite_eval(y0, h, v, monotone_slopes(v, h), yq)


def cubic_clipped(y0, h, v, yq):
    """Four-point Lagrange cubic clipped to the bracketing-node range.

    Full fourth-order accuracy wherever the data is locally monotone; the
    clip caps overshoot at extrema and boundary cells to the local data
    range, which is what the contact-row update needs.
    """
    v = np.asarray(v, dtype=float)
    yq = np.asarray(yq, dtype=float)
    n = v.size
    if n < 4:
        return monotone_interp(y0, h, v, yq)
    t = (yq - y0) / h
    cell = np.clip(np.floor(t).astype(int), 0, n - 2)
    base = np.clip(cell - 1, 0, n - 4)
    s = t - base  # local coordinate in [0, 3] over the 4-point stencil
    v0 = v[base]
    v1 = v[base + 1]
    v2 = v[base + 2]
    v3 = v[base + 3]
    out = (
        -v0 * (s - 1.0) * (s - 2.0) * (s - 3.0) / 6.0
        + v1 * s * (s - 2.0) * (s - 3.0) / 2.0
        - v2 * s * (s - 1.0) * (s - 3.0) / 2.0
        + v3 * s * (s - 1.0) * (s - 2.0) / 6.0
    )
    lo = np.minimum(v[cell], v[cell + 1])
    hi = np.maximum(v[cell], v[cell + 1])
    return np.clip(out, lo, hi)
