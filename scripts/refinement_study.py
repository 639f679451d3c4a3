#!/usr/bin/env python3
"""Grid-refinement study: fixed-point solver vs upwind oracle, plus the
control-volume residual and streamline-conservation drift of the
reconstructed fields."""

import argparse

from contactmoc import cli, fixtures, lagrangian, moc, oracle


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, default=1e-3)
    ap.add_argument("--grids", default="101x26,201x51,401x101")
    ap.add_argument("--out", default="refinement.csv")
    args = ap.parse_args()

    lines = ["nxi,neta,oracle_sup_diff,weak_max,weak_mean,stream_dev"]
    for token in args.grids.split(","):
        nxi, neta = (int(t) for t in token.split("x"))
        cfg, geom, profile = fixtures.perturbed_inputs(args.eps, nxi=nxi, neta=neta)
        prob, _ = cli.build_pipeline(cfg, geom, profile)
        grid, _ = moc.fixed_point(prob, fp_tol=cfg.fp_tol, max_fp_iters=cfg.max_fp_iters)
        diff = oracle.compare_fields(grid, oracle.upwind_march(prob)).overall_sup
        ef = lagrangian.reconstruct(moc.primitive_fields(grid, prob), geom, prob.domain)
        w = lagrangian.weak_residual(ef, cfg.gas_constants)
        dev = lagrangian.streamline_conservation(ef, cfg.gas_constants)
        lines.append(f"{nxi},{neta},{diff:.17g},{w.max_residual:.17g},"
                     f"{w.mean_residual:.17g},{dev:.17g}")
        print(lines[-1])
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
