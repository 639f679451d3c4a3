"""Command-line entry points: solve, blowup, sweep, validate.

Exit codes: 0 success, 1 validation/convergence failure, 2 usage/config
error or an output that cannot be written (``error=io``; an ``--out`` that
is, or lies below, an existing file is caught before any solving or
marching).  Every invocation ends with exactly one key=value summary line,
in which ``detail``, and an ``out`` path holding whitespace or a quote, are
printed as their repr; CSV outputs carry 17 significant digits so reruns
are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import math
import os
import re
import sys

import numpy as np

# The nozzle solver (lagrangian, moc) and the blow-up demonstrator (blowup)
# are imported inside the commands that run them, so each command loads only
# its own code; config.WallCurve keeps scipy off the import path the same way.
from . import config, gas
from .csvout import format_value, write_csv
from .expressions import ExpressionError, parse_expression

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
_CODE_TOKEN = re.compile(r"([a-z]+(?:-[a-z]+)*): ")

def _summary(entries):
    print(" ".join(f"{k}={format_value(v)}" for k, v in entries.items()))


def _error_exit(category, exc, prefix="", **extra):
    """Summary line of a failed run.  The solver, gas and blow-up errors
    lead with a code token ("cfl: ...", "sonic-limit: ..."), repeated as
    ``code=``; config errors carry none (many lead with a file name).
    ``prefix`` leads the detail and ``extra`` entries follow it."""
    entries = {"status": "error", "error": category}
    token = _CODE_TOKEN.match(str(exc))
    if token and not isinstance(exc, config.ConfigError):
        entries["code"] = token.group(1)
    entries["detail"] = repr(prefix + str(exc))
    entries.update(extra)
    _summary(entries)
    return EXIT_FAIL if category in ("validation", "convergence") else EXIT_USAGE


def _usage_exit(detail):
    """Summary line of a usage error; returns its exit code."""
    _summary({"status": "error", "error": "usage", "detail": repr(detail)})
    return EXIT_USAGE


def _out(path):
    """An output path for the summary line: its repr, as ``detail`` prints,
    when it holds whitespace or a quote, so the line reads back."""
    return repr(path) if re.search(r"[\s'\"]", path) else path


def _config_exit_category(exc):
    return "config" if isinstance(exc, config.ConfigParseError) else "validation"


# A negative number as float() writes it: argparse's own pattern takes "-1.5"
# for a value but "-1e-4" and "-inf" for options.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$",
                              re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors also end with the summary line, and which
    reads every negative number as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_usage_exit(f"{self.prog}: {message}"))


def _grid(text):
    """The --grid value NXIxNETA as (nxi, neta)."""
    try:
        nxi, neta = map(int, text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}; expected NXIxNETA") from None
    return nxi, neta


def _apply_overrides(cfg, geom, profile, args):
    """Apply the command-line overrides; RunConfig re-checks the result."""
    changes = {}
    t = getattr(args, "eps_scale", None)
    if t is not None and not math.isfinite(t):
        raise config.ConfigError(f"--eps-scale must be finite, got {t}")
    if getattr(args, "grid", None) is not None:
        nxi, neta = args.grid
        changes.update(grid_nxi=nxi, grid_neta_a=neta, grid_neta_b=neta)
    if getattr(args, "max_iters", None) is not None:
        changes["max_fp_iters"] = args.max_iters
    if getattr(args, "out", None):
        changes["out_dir"] = args.out
    cfg = dataclasses.replace(cfg, **changes)
    if t is not None and t != 1.0:
        profile = profile.scale_deviation(cfg.background, t)
        geom = geom.scale_deviation(t)
    return cfg, geom, profile


def _check_out_dir(path):
    """Raise, without creating anything, the error ``os.makedirs(path,
    exist_ok=True)`` raises when ``path`` or its nearest existing ancestor
    exists and is not a directory."""
    name = path.rstrip(os.sep) or path  # os.makedirs reads "f/" as f
    if os.path.exists(name):
        if not os.path.isdir(name):
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), path)
        return
    # os.makedirs creates the missing directories top down; the first one
    # fails if the existing ancestor above it is a file.
    head = os.path.dirname(name)
    if head:
        if not os.path.exists(head):
            _check_out_dir(head)
        elif not os.path.isdir(head):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)


def build_pipeline(cfg, geom, profile):
    """Assemble the problem: mass fluxes, lattice, the inlet state and its
    streamline constants on the stacked node row.

    The one assembly path; every caller that needs a ``MocProblem`` uses it.
    Returns (MocProblem, (m_a, m_b)).
    """
    from . import lagrangian, moc

    m_a, m_b = lagrangian.mass_fluxes(profile)
    domain = lagrangian.LagrangianDomain.build(geom.L, m_a, m_b, cfg.grid_nxi,
                                               cfg.grid_neta_a, cfg.grid_neta_b)
    _, inlet = lagrangian.inlet_to_lagrangian(profile, domain)
    a0, b0 = lagrangian.stream_data_from_inlet(inlet, domain, cfg.gamma, p_ref=cfg.background.p)
    prob = moc.build_problem(cfg, geom, domain, inlet, a0, b0)
    return prob, (m_a, m_b)


def _check_profile(cfg, geom, profile):
    """A run's profile checks, in the order it reports them."""
    profile.validate(cfg.gamma, cfg.compat_tol)  # an --eps-scale or sweep profile is new
    config.check_inlet_ordinates(profile, geom)
    violations = config.validate_compatibility(profile, geom, tol=cfg.compat_tol)
    if violations:
        raise config.ConfigError("inlet compatibility violated: " + "; ".join(violations))


def _solve(cfg, geom, profile):
    """A run's fixed point and reconstruction, with its recon-gap check.
    Returns (figures, (prob, grid, history, efield)): the ``solve`` summary
    entries from ``iters`` to ``sup_dev``, and what they came from."""
    from . import lagrangian, moc

    prob, _ = build_pipeline(cfg, geom, profile)
    grid, history = moc.fixed_point(prob, fp_tol=cfg.fp_tol, max_fp_iters=cfg.max_fp_iters)
    efield = lagrangian.reconstruct(moc.grid_states(grid, prob), geom, prob.domain)
    if efield.top_gap > cfg.recon_top_tol:
        raise moc.SolverError(
            f"recon-gap: upper-wall image misses g_plus by {efield.top_gap:.3e} "
            f"(recon_top_tol = {cfg.recon_top_tol:.1e}); refine the lattice or raise "
            "recon_top_tol")
    sup_dev = max(float(np.max(np.abs(getattr(efield.state, name)[:, cols] - getattr(st, name))))
                  for st, (_, _, cols) in zip(cfg.background.states(), efield.domain.layers)
                  for name in ("u", "v", "p", "rho"))
    figures = {
        "iters": len(history["c1_gap"]),
        "c0_gap": history["c0_gap"][-1],
        "c1_gap": history["c1_gap"][-1],
        "ratio_last": history["ratio"][-1],
        "sup_dev": sup_dev,
    }
    return figures, (prob, grid, history, efield)


def run_member(cfg, geom, profile):
    """One ``sweep`` member: a run's profile checks and ``_solve``, without
    its residual checks and outputs; returns ``_solve``'s figures."""
    _check_profile(cfg, geom, profile)
    return _solve(cfg, geom, profile)[0]


def run_solve(cfg, geom, profile):
    """Full pipeline: ``_solve``, residual checks, field output.  Returns
    (summary, history): the entries of the ``solve`` summary line, and the
    fixed point's history (``moc.fixed_point``)."""
    from . import lagrangian, moc

    eps = config.perturbation_size(profile, geom, cfg.background)
    _check_profile(cfg, geom, profile)
    _check_out_dir(cfg.out_dir)
    figures, (prob, grid, history, efield) = _solve(cfg, geom, profile)
    residuals = moc.residual_check(grid, prob)
    weak = lagrangian.weak_residual(efield, cfg.gamma)

    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    lagrangian.write_field_csv(efield, os.path.join(out, "fields.csv"))
    lagrangian.write_contact_csv(efield, os.path.join(out, "contact.csv"))
    moc.write_iteration_csv(history, os.path.join(out, "iterations.csv"))
    moc.write_grid_csv(grid, os.path.join(out, "grid.csv"))

    summary = {
        "status": "ok",
        "eps": eps,
        **figures,
        **residuals,
        **{key: weak[key] for key in ("weak_max", "weak_contact_p", "weak_contact_mdot")},
        "gcd_max": float(np.max(np.abs(efield.y[:, -1]))),
        "top_gap": efield.top_gap,
    }
    return summary, history


def _run_errors():
    """What a failed run_solve raises: a solver failure, or a profile that
    fails validation."""
    from . import lagrangian, moc

    return moc.SolverError, lagrangian.TransformError, gas.GasError, config.ConfigError


def _run_category(exc):
    return "validation" if isinstance(exc, config.ConfigError) else "convergence"


def cmd_solve(args):
    try:
        cfg, geom, profile = config.load_config(args.config)
        cfg, geom, profile = _apply_overrides(cfg, geom, profile, args)
    except config.ConfigError as exc:
        return _error_exit(_config_exit_category(exc), exc)
    try:
        summary, history = run_solve(cfg, geom, profile)
    except _run_errors() as exc:
        return _error_exit(_run_category(exc), exc)
    except OSError as exc:  # --out or a file under it cannot be written
        return _error_exit("io", exc)
    if not args.quiet:
        for i, (c0, c1) in enumerate(zip(history["c0_gap"], history["c1_gap"]), start=1):
            print(f"iter {i}: c0_gap={c0:.3e} c1_gap={c1:.3e}")
    summary["out"] = _out(cfg.out_dir)
    _summary(summary)
    return EXIT_OK


def _load_blowup(path, x_max=None):
    """Blow-up inputs from ``path``: the profile and the ``cauchy_march``
    keywords that the file gives; ``x_max`` overrides the file's value.  A
    key the file omits keeps its default in the library's signature."""
    from . import blowup

    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise config.ConfigParseError(f"{path}: {exc}") from None
    sections = config.parse_sections(text, origin=str(path))
    gamma = config._get(sections, "gas", "gamma", path)
    table = sections.get("blowup", {})
    if not table:
        raise config.ConfigError(f"{path}: missing [blowup] section")

    def get(key, cast=float):
        return config._get(sections, "blowup", key, path, cast=cast)

    # PeriodicProfile's rho_wall and cauchy_march's keywords.
    keys = [key for key in config._GRAMMAR["blowup"] if key not in ("u0", "v0")]
    given = {key: get(key, cast=int if key == "ny" else float) for key in keys if key in table}
    if x_max is not None:
        given["x_max"] = x_max
    if "ny" in given and given["ny"] < 2:
        raise config.ConfigError(f"ny must be at least 2, got {given['ny']}")
    for key in keys:
        # An infinite x_max never ends a smooth march.
        if key != "ny" and key in given and not 0.0 < given[key] < math.inf:
            raise config.ConfigError(f"{key} must be positive and finite, got {given[key]:g}")
    if "grad_factor" in given and given["grad_factor"] <= 1.0:
        # The trigger level would sit at or below the initial gradient.
        raise config.ConfigError(f"grad_factor must exceed 1, got {given['grad_factor']:g}")

    def expression(key):
        text = get(key, cast=str)
        try:
            parse_expression(text, var="y")
        except ExpressionError as exc:
            raise config.ConfigParseError(f"{path}: [blowup] {key}: {exc}") from None
        return text

    anchor = {"rho_wall": given.pop("rho_wall")} if "rho_wall" in given else {}
    profile = blowup.PeriodicProfile(expression("u0"), expression("v0"), gamma, **anchor)
    return profile, given


def cmd_blowup(args):
    from . import blowup

    try:
        profile, march = _load_blowup(args.config, x_max=args.x_max)
    except (config.ConfigError, blowup.BlowupError, gas.GasError) as exc:
        return _error_exit(_config_exit_category(exc), exc)
    report_compat = blowup.check_compatibility(profile)
    if report_compat:
        for item in report_compat:
            print(f"compatibility: {item}")
        _summary({"status": "error", "error": "validation",
                  "detail": repr("; ".join(report_compat))})
        return EXIT_FAIL
    out_dir = args.out or "out"
    try:
        _check_out_dir(out_dir)
    except OSError as exc:
        return _error_exit("io", exc)
    try:
        rep = blowup.cauchy_march(profile, **march)
    except blowup.BlowupError as exc:
        return _error_exit("convergence", exc)
    csv_path = os.path.join(out_dir, "gradients.csv")
    try:
        os.makedirs(out_dir, exist_ok=True)
        blowup.write_gradient_csv(rep, csv_path)
    except OSError as exc:
        return _error_exit("io", exc)
    _summary({
        "status": "ok",
        "blowup_x": rep.blowup_x if rep.blowup_x is not None else "none",
        "trigger": rep.trigger or "none",
        "gradient_x": rep.gradient_x if rep.gradient_x is not None else "none",
        "crossing_x": rep.crossing_x if rep.crossing_x is not None else "none",
        "x_end": rep.x_end,
        "steps": rep.steps,
        "out": _out(csv_path),
    })
    return EXIT_OK


def cmd_sweep(args):
    if not args.eps:
        print("usage error: --eps requires a comma-separated list of positive values")
        return _usage_exit("empty epsilon list")
    try:
        targets = [float(tok) for tok in args.eps.split(",") if tok.strip()]
    except ValueError:
        return _usage_exit("bad epsilon list")
    if not targets or not all(0.0 < t < math.inf for t in targets):
        return _usage_exit("epsilon values must be positive and finite")

    try:
        cfg, geom, profile = config.load_config(args.config)
        cfg, geom, profile = _apply_overrides(cfg, geom, profile, args)
    except config.ConfigError as exc:
        return _error_exit(_config_exit_category(exc), exc)

    eps_base = config.perturbation_size(profile, geom, cfg.background)
    if eps_base == 0.0:
        return _usage_exit("sweep needs a perturbed base config (eps > 0)")
    try:
        _check_out_dir(cfg.out_dir)
    except OSError as exc:
        return _error_exit("io", exc)

    # A repeated eps is the same member: it is solved once and its row repeated.
    summaries = {}
    rows = []
    failure = None
    for target in targets:
        if target not in summaries:
            t = target / eps_base
            try:
                prof_t = profile.scale_deviation(cfg.background, t)
                summaries[target] = run_member(cfg, geom.scale_deviation(t), prof_t)
            except _run_errors() as exc:  # keep partial results
                failure = (target, exc)
                break
        rows.append((target, summaries[target]))

    csv_path = os.path.join(cfg.out_dir, "sweep.csv")
    columns = [[target for target, _ in rows]]
    columns += [[summary[key] for _, summary in rows] for key in ("sup_dev", "iters", "ratio_last")]
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        write_csv(csv_path, ("epsilon", "sup_dev", "iters", "ratio"), columns)
    except OSError as exc:
        return _error_exit("io", exc)

    if failure is not None:
        target, exc = failure
        return _error_exit(_run_category(exc), exc, prefix=f"eps={target:g}: ",
                           out=_out(csv_path))

    # A repeated eps adds no abscissa: the slope needs two distinct ones.
    if len(summaries) >= 2:
        sup_devs = [summary["sup_dev"] for summary in summaries.values()]
        slope_txt = float(np.polyfit(np.log(list(summaries)), np.log(sup_devs), 1)[0])
    else:
        slope_txt = "undefined"
    _summary({"status": "ok", "runs": len(rows), "slope": slope_txt, "out": _out(csv_path)})
    return EXIT_OK


def cmd_validate(args):
    try:
        with open(args.config) as fh:
            sections = config.parse_sections(fh.read(), origin=str(args.config))
    except (OSError, config.ConfigError) as exc:
        return _error_exit("config", exc)
    violations = []
    profile = None
    # A file with nothing but [gas] and [blowup] is a blow-up config.
    if "blowup" not in sections or set(sections) - {"gas", "blowup"}:
        try:
            cfg, geom, profile = config.load_config(args.config)
        except config.ConfigError as exc:
            if _config_exit_category(exc) == "config":
                return _error_exit("config", exc)
            violations.append(str(exc))
    if profile is not None:
        from . import lagrangian, moc

        violations.extend(config.validate_compatibility(profile, geom, tol=cfg.compat_tol))
        try:
            build_pipeline(cfg, geom, profile)
        except (moc.SolverError, lagrangian.TransformError, gas.GasError) as exc:
            violations.append(str(exc))
    if "blowup" in sections:
        from . import blowup

        try:
            bprofile, _ = _load_blowup(args.config)
            violations.extend(blowup.check_compatibility(bprofile))
        except (config.ConfigError, blowup.BlowupError, gas.GasError) as exc:
            violations.append(str(exc))
    for item in violations:
        print(f"violation: {item}")
    _summary({"status": "ok" if not violations else "invalid", "violations": len(violations)})
    return EXIT_OK if not violations else EXIT_FAIL


def main(argv=None):
    parser = _Parser(
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
    p_solve.add_argument("--grid", type=_grid, default=None, help="override lattice as NXIxNETA")
    p_solve.add_argument("--eps-scale", type=float, default=None,
                         help="scale all deviation fields by this factor")
    p_solve.add_argument("--max-iters", type=int, default=None)

    p_blow = sub.add_parser("blowup", help="run the flat-nozzle blow-up demonstrator")
    common(p_blow)
    p_blow.add_argument("--x-max", type=float, default=None)

    p_sweep = sub.add_parser("sweep", help="run a family of scaled perturbations")
    common(p_sweep)
    p_sweep.add_argument("--eps", default="", help="comma-separated target sizes")
    p_sweep.add_argument("--grid", type=_grid, default=None)
    p_sweep.add_argument("--max-iters", type=int, default=None)

    p_val = sub.add_parser("validate", help="check config and compatibility conditions")
    common(p_val)

    args = parser.parse_args(argv)
    handler = {"solve": cmd_solve, "blowup": cmd_blowup,
               "sweep": cmd_sweep, "validate": cmd_validate}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
