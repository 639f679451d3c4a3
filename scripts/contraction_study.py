#!/usr/bin/env python3
"""Measure the outer-iteration contraction behavior across perturbation sizes.

For each eps the fixed point starts from the background and the successive
discrete-C1 gaps are recorded; near the background the empirical ratio scales
like the perturbation size itself, far below the 1/2 worst-case bound.
"""

import argparse

import numpy as np

from contactmoc import cli, fixtures, moc
from contactmoc.csvout import write_csv


def run(eps, nxi, neta):
    cfg, geom, profile = fixtures.perturbed_inputs(eps, nxi=nxi, neta=neta)
    prob, _ = cli.build_pipeline(cfg, geom, profile)
    _, history = moc.fixed_point(prob, fp_tol=cfg.fp_tol, max_fp_iters=cfg.max_fp_iters)
    return history


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", default="1e-4,1e-3,1e-2")
    ap.add_argument("--grid", default="201x51")
    ap.add_argument("--out", default="contraction.csv")
    args = ap.parse_args()
    nxi, neta = (int(tok) for tok in args.grid.split("x"))

    eps_list = [float(tok) for tok in args.eps.split(",")]
    rows = []
    for eps in eps_list:
        history = run(eps, nxi, neta)
        gaps, ratios = history["c1_gap"], history["ratio"][1:] or [float("nan")]
        rows.append([len(gaps), gaps[0], max(ratios), float(np.median(ratios))])
        print(f"eps={eps!r}", *rows[-1])
    write_csv(args.out, ("eps", "iterations", "gap1", "ratio_max", "ratio_median"),
              [eps_list, *zip(*rows)])
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
