"""Recompute every reference figure the benchmark's checks rest on.

    PYTHONPATH=src python3 perfbench/reference.py

Runs each workload's operation once, untimed, applies its checks and prints
the measured figures next to the tolerance each is held to.  It also
computes the oracle's distance from the fixed point on the 201x51 lattice,
the coarser step of the first-order comparison.  Takes about 15 s.
"""

from __future__ import annotations

import os
import shutil
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import worker  # noqa: E402


def main():
    from contactmoc import cli, config, moc, oracle

    rows = []
    tmp = os.path.join(os.path.dirname(HERE), ".perfbench_runs", "reference.work")
    try:
        for name, cls in worker.WORKLOADS.items():
            os.makedirs(os.path.join(tmp, name), exist_ok=True)
            wl = cls(os.path.join(tmp, name))
            wl.run()
            failures, figures = wl.check()
            rows += [(name, key, value) for key, value in figures.items()]
            rows += [(name, "FAILED", f) for f in failures]

        # The oracle on the fixed point's own 201x51 lattice: today 1.36e-6,
        # about twice the 401x101 figure, as first order predicts.
        cfg, geom, profile = config.load_config(os.path.join(tmp, "oracle", "oracle_coarse.cfg"))
        prob, _ = cli.build_pipeline(cfg, geom, profile)
        fp, _ = moc.fixed_point(prob, fp_tol=cfg.fp_tol, max_fp_iters=cfg.max_fp_iters)
        og = oracle.upwind_march(prob)
        coarse = max(float(np.max(np.abs(getattr(og, n) - getattr(fp, n))))
                     for n in ("zm_a", "zp_a", "zm_b", "zp_b"))
        rows.append(("oracle", "oracle_sup_201x51", coarse))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    tolerances = {
        "pm_err": checks.PM_TOL, "angle_err": checks.PM_TOL, "wall_err": checks.WALL_TOL,
        "contact_p_jump": checks.CONTACT_TOL, "contact_w_jump": checks.CONTACT_TOL,
        "oracle_wall_err": checks.ORACLE_WALL_TOL, "lax_gap": checks.LAX_TOL,
        "detector_gap": checks.DETECTOR_TOL,
    }
    for workload, key, value in rows:
        tol = tolerances.get(key)
        print(f"{workload:7s} {key:20s} {value!s:24s}" + (f" tol {tol:g}" if tol is not None else ""))
    sup = next(v for w, k, v in rows if k == "oracle_sup")
    bound = next(v for w, k, v in rows if k == "oracle_bound")  # ORACLE_K / (neta - 1)
    print(f"oracle  K = sup * (neta - 1)  {sup * checks.ORACLE_K / bound:.3g}  (ORACLE_K = {checks.ORACLE_K:g})")
    return 1 if any(k == "FAILED" for _, k, _ in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
