"""Spans around calls into contactmoc's public functions.

The tracer replaces module (or class) attributes with timing wrappers for
the length of one traced operation and restores them afterwards.  Each span
records a name, a start, an end and the index of its parent span; spans stay
in memory until the run writes them out.  Counts are taken at the same call
boundaries.  ``layer_metrics`` turns spans and counts into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._active = Counter()
        self._saved = []
        self.missing = []  # layer boundaries the program no longer has

    def active(self, name):
        return self._active[name] > 0

    def wrap(self, owner, attr, name, before=None, after=None, span=True):
        """Wrap ``owner.attr``.  ``before(args, kwargs)`` may return new
        ``(args, kwargs)``; ``after(args, kwargs, result)`` runs on return.
        With ``span=False`` only the hooks run.  A function the program no
        longer has is skipped, and the metrics built on it read 0."""
        if attr not in vars(owner):
            self.missing.append(name)
            return
        raw = vars(owner)[attr]
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            if not span:
                out = orig(*args, **kwargs)
            else:
                idx = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1])
                tracer._stack.append(idx)
                tracer._active[name] += 1
                t0 = time.perf_counter()
                try:
                    out = orig(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    tracer._stack.pop()
                    tracer._active[name] -= 1
                    tracer.spans[idx][1:3] = (t0, t1)
            if after is not None:
                after(args, kwargs, out)
            return out

        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- derived figures -----------------------------------------------------

    def _outermost(self, names):
        """Durations of the spans named in ``names`` that have no ancestor
        also named in ``names``."""
        names = set(names)
        out = []
        for name, t0, t1, parent in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                out.append(t1 - t0)
        return out

    def total(self, *names):
        """Seconds inside the named spans, nested repeats counted once."""
        return float(sum(self._outermost(names)))

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def self_time(self, name):
        """Seconds inside ``name`` spans not covered by their child spans."""
        child = Counter()
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return float(sum(t1 - t0 - child[i] for i, (n, t0, t1, _) in enumerate(self.spans) if n == name))


def install(tracer):
    """Wrap every layer boundary the per-layer metrics need."""
    from contactmoc import blowup, gas, interp, lagrangian, moc, oracle

    def count_points(args, kwargs):
        f = args[0]

        def counted(x, src):
            tracer.counts["quadrature.points"] += x.size
            return f(x, src)

        return (counted,) + tuple(args[1:]), kwargs

    def count_inversion(args, kwargs, out):
        z, sd = args[0], args[1]
        tracer.counts["gas.pressure_inversion_nodes"] += np.broadcast(
            np.asarray(z.z_minus), np.asarray(z.z_plus), np.asarray(sd.a0), np.asarray(sd.b0)).size
        if tracer.active("oracle.upwind_march"):
            tracer.counts["oracle.inversions"] += 1

    def count_bytes(args, kwargs, out):
        tracer.counts["cli.csv_bytes"] += os.path.getsize(args[1])

    def count_steps(args, kwargs, out):
        tracer.counts["blowup.steps"] += out.steps

    def count_slab(args, kwargs, out):
        tracer.counts["moc.slab_steps"] += 1

    for mod in (gas, blowup):
        tracer.wrap(mod, "adaptive_gauss_kronrod", "quadrature.adaptive_gauss_kronrod", before=count_points)
    tracer.wrap(gas, "pressure_from_invariants", "gas.pressure_from_invariants", after=count_inversion)
    for attr in ("mass_fluxes", "inlet_to_lagrangian", "stream_data_from_inlet",
                 "reconstruct", "weak_residual"):
        tracer.wrap(lagrangian, attr, f"lagrangian.{attr}")
    tracer.wrap(lagrangian.LagrangianDomain, "build", "lagrangian.LagrangianDomain.build")
    for attr in ("write_field_csv", "write_contact_csv"):
        tracer.wrap(lagrangian, attr, f"lagrangian.{attr}", after=count_bytes)
    for attr in ("build_problem", "fixed_point", "solve_linearized", "frozen_lambdas",
                 "coupling_coefficients", "residual_check", "trace_characteristic"):
        tracer.wrap(moc, attr, f"moc.{attr}")
    tracer.wrap(moc, "step_linearized", "moc.step_linearized", after=count_slab, span=False)
    for attr in ("write_iteration_csv", "write_grid_csv"):
        tracer.wrap(moc, attr, f"moc.{attr}", after=count_bytes)
    for attr in ("cubic_clipped", "monotone_interp"):
        tracer.wrap(interp, attr, f"interp.{attr}")
    tracer.wrap(oracle, "upwind_march", "oracle.upwind_march")
    tracer.wrap(blowup, "cauchy_march", "blowup.cauchy_march", after=count_steps)
    tracer.wrap(blowup, "theta_of_speed", "blowup.theta_of_speed")
    tracer.wrap(blowup, "write_gradient_csv", "blowup.write_gradient_csv", after=count_bytes)


def layer_metrics(tracer):
    """Per-layer metrics of one traced operation (0 where a layer is idle)."""
    t, n, c = tracer.total, tracer.calls, tracer.counts
    steps = c["blowup.steps"]
    march = t("blowup.cauchy_march")
    return {
        "lagrangian.transform_s": t("lagrangian.mass_fluxes", "lagrangian.LagrangianDomain.build",
                                    "lagrangian.inlet_to_lagrangian", "lagrangian.stream_data_from_inlet"),
        "moc.build_problem_s": t("moc.build_problem"),
        "gas.pressure_inversion_s": t("gas.pressure_from_invariants"),
        "gas.pressure_inversion_calls": n("gas.pressure_from_invariants"),
        "gas.pressure_inversion_nodes": c["gas.pressure_inversion_nodes"],
        "quadrature.s": t("quadrature.adaptive_gauss_kronrod"),
        "quadrature.calls": n("quadrature.adaptive_gauss_kronrod"),
        "quadrature.points": c["quadrature.points"],
        "moc.fixed_point_s": t("moc.fixed_point"),
        "moc.fp_iterations": n("moc.solve_linearized"),
        "moc.frozen_lambdas_s": t("moc.frozen_lambdas"),
        "moc.coupling_s": t("moc.coupling_coefficients"),
        "moc.residual_check_s": t("moc.residual_check"),
        "moc.trace_characteristic_s": t("moc.trace_characteristic"),
        "moc.march_s": tracer.self_time("moc.solve_linearized"),
        "moc.slab_steps": c["moc.slab_steps"],
        "interp.cubic_clipped_s": t("interp.cubic_clipped"),
        "interp.cubic_clipped_calls": n("interp.cubic_clipped"),
        "lagrangian.reconstruct_s": t("lagrangian.reconstruct"),
        "lagrangian.weak_residual_s": t("lagrangian.weak_residual"),
        "lagrangian.write_csv_s": t("lagrangian.write_field_csv", "lagrangian.write_contact_csv"),
        "moc.write_csv_s": t("moc.write_iteration_csv", "moc.write_grid_csv"),
        "blowup.write_csv_s": t("blowup.write_gradient_csv"),
        "cli.csv_bytes": c["cli.csv_bytes"],
        "oracle.march_s": t("oracle.upwind_march"),
        "oracle.substeps": c["oracle.inversions"] // 2,
        "blowup.march_s": march,
        "blowup.steps": steps,
        "blowup.step_us": 1e6 * march / steps if steps else 0.0,
        "blowup.theta_of_speed_s": t("blowup.theta_of_speed"),
        "interp.monotone_interp_s": t("interp.monotone_interp"),
        "interp.monotone_interp_calls": n("interp.monotone_interp"),
    }
