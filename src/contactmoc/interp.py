"""Shape-preserving cubic interpolation on uniform lattices.

Fritsch-Carlson slopes (harmonic mean of adjacent secants, zero at local
extrema) with cubic Hermite evaluation.  Reproduces constants and straight
lines up to rounding (not bit for bit: a flat row of 0.3 can come back an ulp
off) and never overshoots the local data range, which is what the
semi-Lagrangian updates rely on at the contact row.  Much cheaper than
constructing a scipy interpolator per slab.
"""

from __future__ import annotations

import numpy as np


def monotone_slopes(v, h):
    """Shape-preserving node slopes for uniformly spaced samples ``v``, taken
    along the last axis (each row of a stacked array on its own)."""
    v = np.asarray(v, dtype=float)
    s = (v[..., 1:] - v[..., :-1]) / h
    d = np.zeros_like(v)
    prod = s[..., :-1] * s[..., 1:]
    denom = s[..., :-1] + s[..., 1:]
    np.divide(2.0 * prod, denom, out=d[..., 1:-1], where=(prod > 0.0) & (denom != 0.0))
    # One-sided three-point end slopes, zeroed against the end secant's sign
    # and capped at three times it (the PCHIP end rule).
    s0 = s[..., [0, -1]]
    s1 = s[..., [1, -2]] if s.shape[-1] > 1 else s0
    d0 = 0.5 * (3.0 * s0 - s1)
    overshoot = (s0 * s1 < 0.0) & (np.abs(d0) > 3.0 * np.abs(s0))
    d[..., [0, -1]] = np.where(d0 * s0 <= 0.0, 0.0, np.where(overshoot, 3.0 * s0, d0))
    return d


def hermite_eval(y0, h, v, d, yq):
    """Evaluate the Hermite cubic defined by values ``v`` and slopes ``d`` on
    the uniform lattice y0 + i*h at query points ``yq`` (clipped to range).

    Stacked rows interpolate along the last axis: ``yq[..., k]`` is a query
    into row ``v[...]``, so ``yq`` has the leading shape of ``v``.
    """
    v = np.asarray(v, dtype=float)
    yq = np.asarray(yq, dtype=float)
    n = v.shape[-1]
    t = (yq - y0) / h
    idx = np.floor(t).astype(np.intp)
    np.minimum(np.maximum(idx, 0, out=idx), n - 2, out=idx)
    s = np.clip(t - idx, 0.0, 1.0)
    if v.ndim > 1:
        # Row-offset indices into the flattened rows: one gather per term.
        idx += n * np.arange(v.size // n).reshape(v.shape[:-1] + (1,))
        v, d = v.reshape(-1), np.asarray(d).reshape(-1)
    v0 = v.take(idx)
    v1 = v.take(idx + 1)
    d0 = d.take(idx) * h
    d1 = d.take(idx + 1) * h
    s2 = s * s
    s3 = s2 * s
    return (
        (2.0 * s3 - 3.0 * s2 + 1.0) * v0
        + (s3 - 2.0 * s2 + s) * d0
        + (-2.0 * s3 + 3.0 * s2) * v1
        + (s3 - s2) * d1
    )


def monotone_interp(y0, h, v, yq):
    """One-shot shape-preserving interpolation on a uniform lattice (along
    the last axis for stacked rows)."""
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
