"""Test helper: the four-point Lagrange cubic on a uniform lattice as one
plainly written function.

``interp.cubic_stencil`` and ``interp.cubic_eval`` split the cubic into a
gather index that the nozzle march plans once and a stacked Lagrange sum
that each step evaluates.  This reference keeps the one-function form with
the sum written out term by term; the two must agree bit for bit.
"""

import numpy as np


def plain_cubic(y0, h, v, yq):
    """The four-point cubic of the samples ``v`` on the lattice y0 + i*h at
    the queries ``yq``: each stencil is centred on the query's cell and
    shifted inside the lattice at its ends."""
    v = np.asarray(v, dtype=float)
    t = (np.asarray(yq, dtype=float) - y0) / h
    base = np.clip(np.floor(t).astype(int) - 1, 0, v.size - 4)
    s = t - base
    v0, v1, v2, v3 = (v[base + r] for r in range(4))
    return (
        -v0 * (s - 1.0) * (s - 2.0) * (s - 3.0) / 6.0
        + v1 * s * (s - 2.0) * (s - 3.0) / 2.0
        - v2 * s * (s - 1.0) * (s - 3.0) / 2.0
        + v3 * s * (s - 1.0) * (s - 2.0) / 6.0
    )
