#!/usr/bin/env python3
"""Measure the outer-iteration contraction behavior across perturbation sizes.

For each eps the fixed point starts from the background and the successive
discrete-C1 gaps are recorded; near the background the empirical ratio scales
like the perturbation size itself, far below the 1/2 worst-case bound.
"""

import argparse

import numpy as np

from contactmoc import cli, fixtures, moc


def run(eps, nxi, neta):
    cfg, geom, profile = fixtures.perturbed_inputs(eps, nxi=nxi, neta=neta)
    prob, _ = cli.build_pipeline(cfg, geom, profile)
    _, report = moc.fixed_point(prob, fp_tol=cfg.fp_tol, max_fp_iters=cfg.max_fp_iters)
    return report


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", default="1e-4,1e-3,1e-2")
    ap.add_argument("--grid", default="201x51")
    ap.add_argument("--out", default="contraction.csv")
    args = ap.parse_args()
    nxi, neta = (int(tok) for tok in args.grid.split("x"))

    lines = ["eps,iterations,gap1,ratio_max,ratio_median"]
    for eps in (float(tok) for tok in args.eps.split(",")):
        report = run(eps, nxi, neta)
        ratios = report.ratios or [float("nan")]
        lines.append(f"{eps:.17g},{report.iterations},{report.c1_gaps[0]:.17g},"
                     f"{max(ratios):.17g},{float(np.median(ratios)):.17g}")
        print(lines[-1])
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
