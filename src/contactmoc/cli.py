"""Command-line entry points: solve, blowup, sweep, validate.

Exit codes: 0 success, 1 validation/convergence failure, 2 usage/config
error.  Every invocation ends with exactly one key=value summary line; CSV
outputs carry 17 significant digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import blowup, config, gas, lagrangian, moc
from .csvout import write_csv

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _summary(entries):
    print(" ".join(f"{k}={_fmt(v)}" for k, v in entries.items()))


def _error_exit(category, exc):
    _summary({"status": "error", "error": category, "detail": repr(str(exc))})
    return EXIT_FAIL if category in ("validation", "convergence") else EXIT_USAGE


def _config_exit_category(exc):
    return "config" if isinstance(exc, config.ConfigParseError) else "validation"


def _threads():
    raw = os.environ.get("CONTACTMOC_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise config.ConfigError(f"cannot parse CONTACTMOC_THREADS = {raw!r}")
    if n < 1:
        raise config.ConfigError("CONTACTMOC_THREADS must be a positive integer")
    return n


def _apply_overrides(cfg, geom, profile, args):
    """Apply the command-line overrides; RunConfig re-checks the result."""
    changes = {}
    if getattr(args, "grid", None) is not None:
        try:
            nxi_s, neta_s = args.grid.lower().split("x")
            nxi, neta = int(nxi_s), int(neta_s)
        except ValueError:
            raise config.ConfigError(f"cannot parse --grid {args.grid!r}; expected NXIxNETA")
        changes.update(grid_nxi=nxi, grid_neta_a=neta, grid_neta_b=neta)
    if getattr(args, "max_iters", None) is not None:
        changes["max_fp_iters"] = args.max_iters
    if getattr(args, "out", None):
        changes["out_dir"] = args.out
    cfg = dataclasses.replace(cfg, **changes)
    t = getattr(args, "eps_scale", None)
    if t is not None and t != 1.0:
        profile = profile.scale_deviation(cfg.background, t)
        geom = geom.scale_deviation(t)
    return cfg, geom, profile


def build_pipeline(cfg, geom, profile):
    """Assemble the problem: mass fluxes, lattice, inlet traces, stream tables.

    The one assembly path; every caller that needs a ``MocProblem`` uses it.
    Returns (MocProblem, MassFluxes).
    """
    g = cfg.gas_constants
    flux = lagrangian.mass_fluxes(profile)
    domain = lagrangian.LagrangianDomain.build(geom.L, flux, cfg.grid_nxi,
                                               cfg.grid_neta_a, cfg.grid_neta_b)
    trace_a, trace_b = lagrangian.inlet_to_lagrangian(profile, flux, domain)
    sd_a = lagrangian.stream_data_from_inlet(trace_a, g, p_ref=cfg.background.p)
    sd_b = lagrangian.stream_data_from_inlet(trace_b, g, p_ref=cfg.background.p)
    prob = moc.build_problem(cfg, geom, trace_a, trace_b, sd_a, sd_b, domain)
    return prob, flux


def run_solve(cfg, geom, profile, write_outputs=True):
    """Full pipeline: solve, reconstruct, weak residual, field output.

    Returns (summary dict, artifacts dict).
    """
    g = cfg.gas_constants
    eps = config.perturbation_size(profile, geom, cfg.background)
    violations = config.validate_compatibility(profile, geom, tol=cfg.compat_tol)
    if violations:
        raise config.ConfigError("inlet compatibility violated: " + "; ".join(violations))

    prob, flux = build_pipeline(cfg, geom, profile)
    grid, report = moc.fixed_point(prob, fp_tol=cfg.fp_tol, max_fp_iters=cfg.max_fp_iters)
    fields = moc.primitive_fields(grid, prob)
    efield = lagrangian.reconstruct(fields, geom, prob.domain)
    if efield.top_gap > cfg.recon_top_tol:
        raise moc.SolverError(
            f"no-convergence: upper-wall image misses g_plus by {efield.top_gap:.3e} "
            f"(recon_top_tol = {cfg.recon_top_tol:.1e})", report=report)
    wres = lagrangian.weak_residual(efield, g)

    bg_a, bg_b = cfg.background.states()
    sup_dev = 0.0
    for tag, st, layer in (("a", bg_a, efield.layer_a), ("b", bg_b, efield.layer_b)):
        for name, ref in (("u", st.u), ("v", st.v), ("p", st.p), ("rho", st.rho)):
            sup_dev = max(sup_dev, float(np.max(np.abs(getattr(layer, name) - ref))))

    paths = {}
    if write_outputs:
        os.makedirs(cfg.out_dir, exist_ok=True)
        paths = {
            "fields": os.path.join(cfg.out_dir, "fields.csv"),
            "contact": os.path.join(cfg.out_dir, "contact.csv"),
            "iterations": os.path.join(cfg.out_dir, "iterations.csv"),
            "grid": os.path.join(cfg.out_dir, "grid.csv"),
        }
        lagrangian.write_field_csv(efield, paths["fields"])
        lagrangian.write_contact_csv(efield.contact, paths["contact"])
        moc.write_iteration_csv(report, paths["iterations"])
        moc.write_grid_csv(grid, paths["grid"])

    summary = {
        "status": "ok",
        "eps": eps,
        "iters": report.iterations,
        "c0_gap": report.c0_gaps[-1],
        "c1_gap": report.c1_gaps[-1],
        "ratio_last": report.ratios[-1] if report.ratios else float("nan"),
        "sup_dev": sup_dev,
        "wall_slip": report.residuals.wall_slip_max,
        "contact_w_jump": report.residuals.contact_w_jump,
        "contact_p_jump": report.residuals.contact_p_jump,
        "residual_sup": report.residuals.sup_interior,
        "weak_max": wres.max_residual,
        "weak_contact_p": wres.contact_pressure_jump,
        "weak_contact_mdot": wres.contact_mass_flux,
        "gcd_max": float(np.max(np.abs(efield.contact.g_cd))),
        "top_gap": efield.top_gap,
    }
    artifacts = {"grid": grid, "report": report, "efield": efield, "weak": wres,
                 "prob": prob, "paths": paths}
    return summary, artifacts


def cmd_solve(args):
    try:
        cfg, geom, profile = config.load_config(args.config)
        cfg, geom, profile = _apply_overrides(cfg, geom, profile, args)
    except config.ConfigError as exc:
        return _error_exit(_config_exit_category(exc), exc)
    try:
        summary, artifacts = run_solve(cfg, geom, profile)
    except (moc.SolverError, lagrangian.TransformError, gas.GasError) as exc:
        return _error_exit("convergence", exc)
    except config.ConfigError as exc:
        return _error_exit("validation", exc)
    if not args.quiet:
        rep = artifacts["report"]
        for i, (c0, c1) in enumerate(zip(rep.c0_gaps, rep.c1_gaps), start=1):
            print(f"iter {i}: c0_gap={c0:.3e} c1_gap={c1:.3e}")
    summary["out"] = cfg.out_dir
    _summary(summary)
    return EXIT_OK


def _load_blowup(path, x_max=None):
    """Blow-up inputs from ``path``; ``x_max`` overrides the file's value."""
    with open(path) as fh:
        sections = config.parse_sections(fh.read(), origin=str(path))
    gamma = config._get(sections, "gas", "gamma", path)
    table = sections.get("blowup", {})
    if not table:
        raise config.ConfigError(f"{path}: missing [blowup] section")

    def get(key, cast=float, default=None):
        return config._get(sections, "blowup", key, path, cast=cast, default=default)

    g = gas.GasConstants(gamma)
    profile = blowup.PeriodicProfile.from_expressions(
        get("u0", cast=str), get("v0", cast=str), g,
        rho_wall=get("rho_wall", default=1.0),
    )
    policy = blowup.ThresholdPolicy(factor=get("grad_factor", default=1e3),
                                    floor=get("grad_floor", default=1e-6))
    settings = {
        "ny": get("ny", cast=int, default=800),
        "x_max": get("x_max", default=200.0) if x_max is None else x_max,
        "dx_max": get("dx_max", default=0.05),
    }
    if not settings["x_max"] > 0:
        raise config.ConfigError(f"x_max must be positive, got {settings['x_max']:g}")
    return g, profile, policy, settings


def cmd_blowup(args):
    try:
        g, profile, policy, settings = _load_blowup(args.config, x_max=args.x_max)
    except (config.ConfigError, blowup.BlowupError, gas.GasError) as exc:
        return _error_exit(_config_exit_category(exc), exc)
    report_compat = blowup.check_compatibility(profile)
    if report_compat:
        for item in report_compat:
            print(f"compatibility: {item}")
        _summary({"status": "error", "error": "validation",
                  "detail": repr("; ".join(report_compat))})
        return EXIT_FAIL
    try:
        rep = blowup.cauchy_march(profile, g, settings["x_max"], ny=settings["ny"],
                                  dx_max=settings["dx_max"], policy=policy)
    except blowup.BlowupError as exc:
        return _error_exit("convergence", exc)
    out_dir = args.out or "out"
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "gradients.csv")
    blowup.write_gradient_csv(rep, csv_path)
    _summary({
        "status": "ok",
        "blowup_x": rep.blowup_x if rep.blowup_x is not None else "none",
        "trigger": rep.trigger or "none",
        "gradient_x": rep.gradient_x if rep.gradient_x is not None else "none",
        "crossing_x": rep.crossing_x if rep.crossing_x is not None else "none",
        "x_end": rep.x_end,
        "steps": rep.steps,
        "out": csv_path,
    })
    return EXIT_OK


def cmd_sweep(args):
    if not args.eps:
        print("usage error: --eps requires a comma-separated list of positive values")
        _summary({"status": "error", "error": "usage", "detail": "'empty epsilon list'"})
        return EXIT_USAGE
    try:
        targets = [float(tok) for tok in args.eps.split(",") if tok.strip()]
    except ValueError:
        _summary({"status": "error", "error": "usage", "detail": "'bad epsilon list'"})
        return EXIT_USAGE
    if not targets or any(t <= 0 for t in targets):
        _summary({"status": "error", "error": "usage", "detail": "'epsilon values must be positive'"})
        return EXIT_USAGE

    try:
        cfg, geom, profile = config.load_config(args.config)
        cfg, geom, profile = _apply_overrides(cfg, geom, profile, args)
        threads = _threads()
    except config.ConfigError as exc:
        return _error_exit(_config_exit_category(exc), exc)

    eps_base = config.perturbation_size(profile, geom, cfg.background)
    if eps_base == 0.0:
        _summary({"status": "error", "error": "usage",
                  "detail": "'sweep needs a perturbed base config (eps > 0)'"})
        return EXIT_USAGE

    def member(target):
        t = target / eps_base
        prof_t = profile.scale_deviation(cfg.background, t)
        geom_t = geom.scale_deviation(t)
        summary, _ = run_solve(cfg, geom_t, prof_t, write_outputs=False)
        return summary

    rows = []
    failure = None
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(member, t) for t in targets]
            for target, fut in zip(targets, futures):
                try:
                    rows.append((target, fut.result()))
                except Exception as exc:  # keep partial results
                    failure = (target, exc)
                    break
    else:
        for target in targets:
            try:
                rows.append((target, member(target)))
            except Exception as exc:
                failure = (target, exc)
                break

    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, "sweep.csv")
    columns = [[target for target, _ in rows]]
    columns += [[summary[key] for _, summary in rows] for key in ("sup_dev", "iters", "ratio_last")]
    write_csv(csv_path, ("epsilon", "sup_dev", "iters", "ratio"), columns)

    if failure is not None:
        target, exc = failure
        _summary({"status": "error", "error": "convergence",
                  "detail": repr(f"eps={target:g}: {exc}"), "out": csv_path})
        return EXIT_FAIL

    if len(rows) >= 2:
        xs = np.log([r[0] for r in rows])
        ys = np.log([r[1]["sup_dev"] for r in rows])
        slope = float(np.polyfit(xs, ys, 1)[0])
        slope_txt = slope
    else:
        slope_txt = "undefined"
    _summary({"status": "ok", "runs": len(rows), "slope": slope_txt, "out": csv_path})
    return EXIT_OK


def cmd_validate(args):
    try:
        with open(args.config) as fh:
            sections = config.parse_sections(fh.read(), origin=str(args.config))
    except (OSError, config.ConfigError) as exc:
        return _error_exit("config", exc)
    violations = []
    try:
        cfg, geom, profile = config.load_config(args.config)
    except config.ConfigError as exc:
        category = _config_exit_category(exc)
        if category == "config":
            return _error_exit("config", exc)
        violations.append(str(exc))
        cfg = geom = profile = None
    if profile is not None:
        violations.extend(config.validate_compatibility(profile, geom, tol=cfg.compat_tol))
        try:
            build_pipeline(cfg, geom, profile)
        except (moc.SolverError, lagrangian.TransformError, gas.GasError) as exc:
            violations.append(str(exc))
    if "blowup" in sections:
        try:
            g, bprofile, _, _ = _load_blowup(args.config)
            violations.extend(blowup.check_compatibility(bprofile))
        except (config.ConfigError, blowup.BlowupError) as exc:
            violations.append(str(exc))
    for item in violations:
        print(f"violation: {item}")
    _summary({"status": "ok" if not violations else "invalid", "violations": len(violations)})
    return EXIT_OK if not violations else EXIT_FAIL


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="contactmoc",
        description="Supersonic contact-discontinuity nozzle solver and blow-up demonstrator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--quiet", action="store_true", help="suppress progress lines")

    p_solve = sub.add_parser("solve", help="run the full nozzle pipeline")
    common(p_solve)
    p_solve.add_argument("--grid", default=None, help="override lattice as NXIxNETA")
    p_solve.add_argument("--eps-scale", type=float, default=None,
                         help="scale all deviation fields by this factor")
    p_solve.add_argument("--max-iters", type=int, default=None)

    p_blow = sub.add_parser("blowup", help="run the flat-nozzle blow-up demonstrator")
    common(p_blow)
    p_blow.add_argument("--x-max", type=float, default=None)

    p_sweep = sub.add_parser("sweep", help="run a family of scaled perturbations")
    common(p_sweep)
    p_sweep.add_argument("--eps", default="", help="comma-separated target sizes")
    p_sweep.add_argument("--grid", default=None)
    p_sweep.add_argument("--eps-scale", type=float, default=None)
    p_sweep.add_argument("--max-iters", type=int, default=None)

    p_val = sub.add_parser("validate", help="check config and compatibility conditions")
    common(p_val)

    args = parser.parse_args(argv)
    handler = {"solve": cmd_solve, "blowup": cmd_blowup,
               "sweep": cmd_sweep, "validate": cmd_validate}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
