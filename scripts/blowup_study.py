#!/usr/bin/env python3
"""Blow-up abscissa study: amplitude scaling and detector agreement.

The detected abscissa should scale roughly like 1/delta for the sine
perturbation family, and the gradient and characteristic-crossing detectors
should agree to a few percent once the grid resolves the steepening front.
The ``riccati_x`` column extrapolates the early gradient growth to its
blow-up point (see ``riccati_x``).
"""

import argparse

import numpy as np

from contactmoc import blowup, gas
from contactmoc.csvout import write_csv


def _or_none(x):
    return "none" if x is None else format(x, ".17g")


def riccati_x(rep):
    """Blow-up abscissa of the Riccati law d_x G = k G^2 fitted to the
    steeper gradient G = max(grad_Zp, grad_Zm): 1/G falls linearly in x, so
    this is the zero crossing of the least-squares line through 1/G against
    x over x <= blowup_x / 2, before the front outruns the grid.  None when
    no detector fired."""
    if rep.blowup_x is None:
        return None
    keep = rep.x_history <= 0.5 * rep.blowup_x
    inv_grad = 1.0 / np.maximum(rep.grad_zp_history, rep.grad_zm_history)
    slope, intercept = np.polyfit(rep.x_history[keep], inv_grad[keep], 1)
    return float(-intercept / slope)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--deltas", default="0.04,0.02,0.01,0.005")
    ap.add_argument("--ny", type=int, default=400)
    ap.add_argument("--x-max", type=float, default=500.0)
    ap.add_argument("--grad-factor", type=float, default=15.0)
    ap.add_argument("--out", default="blowup_study.csv")
    args = ap.parse_args()

    g = gas.GasConstants(1.4)
    deltas = [float(tok) for tok in args.deltas.split(",")]
    rows = []
    for delta in deltas:
        profile = blowup.PeriodicProfile("2.0", f"{delta!r} * sin(pi * y)", g, rho_wall=1.0)
        rep = blowup.cauchy_march(profile, args.x_max, ny=args.ny, grad_factor=args.grad_factor)
        # A detector that did not fire reads "none", as in the CLI summary.
        rows.append([_or_none(rep.blowup_x), _or_none(rep.gradient_x), _or_none(rep.crossing_x),
                     rep.trigger or "none", rep.steps, _or_none(riccati_x(rep))])
        print(f"delta={delta!r}", *rows[-1])
    write_csv(args.out, ("delta", "blowup_x", "gradient_x", "crossing_x", "trigger", "steps",
                         "riccati_x"), [deltas, *zip(*rows)])
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
