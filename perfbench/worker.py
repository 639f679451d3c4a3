"""One workload in one process, driven one operation at a time by run.py.

run.py starts two of these, with the BLAS and OpenMP pools capped at one
thread: one imports ``contactmoc`` from the checkout's ``src``, the other from
the frozen copy in ``perfbench/baseline``.  Each sets its workload up, makes
one untimed warm-up operation and answers ``ready``; then each line ``op`` on
standard input runs and times one operation and answers with one JSON line.
``finish`` ends the process: with ``--result`` it first makes the traced
operation (``--trace 1``), runs the checks and writes its record there.

    python3 perfbench/worker.py --workload solve --src src --work-dir DIR \
        [--result FILE] [--trace 0|1] [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import machine  # noqa: E402
import tracing  # noqa: E402


class OperationFailed(RuntimeError):
    pass


def _cli(argv):
    """Run the contactmoc CLI in this process; return its summary line."""
    from contactmoc import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    lines = buf.getvalue().strip().splitlines()
    last = lines[-1] if lines else ""
    if code != 0:
        raise OperationFailed(f"contactmoc {argv[0]} exited {code}: {last}")
    return last


class Solve:
    """``contactmoc solve`` on the eps = 1e-3 fixture at 140x35, all four CSVs."""

    def __init__(self, work_dir):
        from contactmoc import fixtures

        self.config = os.path.join(work_dir, "perturbed.cfg")
        self.out = os.path.join(work_dir, "solve_out")
        fixtures.write_fixture(self.config, eps=1e-3, nxi=140, neta=35)
        self.summary = None

    def run(self):
        self.summary = _cli(["solve", "--config", self.config, "--out", self.out, "--quiet"])
        return self.summary

    def check(self):
        return checks.check_solve(
            checks.read_csv(os.path.join(self.out, "fields.csv")),
            checks.read_csv(os.path.join(self.out, "grid.csv")),
            checks.parse_summary(self.summary),
            checks.read_config_scalars(self.config),
        )


class Oracle:
    """``cli.build_pipeline`` + ``oracle.upwind_march`` on the fixture at 401x101,
    checked against the fixed-point solve at 201x51."""

    def __init__(self, work_dir):
        from contactmoc import config, fixtures

        self.config = os.path.join(work_dir, "oracle.cfg")
        self.coarse_config = os.path.join(work_dir, "oracle_coarse.cfg")
        fixtures.write_fixture(self.config, eps=1e-3, nxi=401, neta=101)
        fixtures.write_fixture(self.coarse_config, eps=1e-3, nxi=201, neta=51)
        self.inputs = config.load_config(self.config)
        self.grid = None

    @staticmethod
    def _arrays(grid):
        return {n: getattr(grid, n) for n in ("zm_a", "zp_a", "zm_b", "zp_b")}

    def run(self):
        from contactmoc import cli, oracle

        prob, _ = cli.build_pipeline(*self.inputs)
        self.grid = oracle.upwind_march(prob)
        digest = hashlib.sha256()
        for arr in self._arrays(self.grid).values():
            digest.update(arr.tobytes())
        return digest.hexdigest()

    def check(self):
        from contactmoc import cli, config, moc

        cfg, geom, profile = config.load_config(self.coarse_config)
        prob, _ = cli.build_pipeline(cfg, geom, profile)
        fp, _ = moc.fixed_point(prob, fp_tol=cfg.fp_tol, max_fp_iters=cfg.max_fp_iters)
        return checks.check_oracle(self._arrays(fp), self._arrays(self.grid), self.grid.domain.xi,
                                   checks.read_config_scalars(self.config))


class Blowup:
    """``contactmoc blowup`` on the flat-nozzle fixture with delta = 0.06, ny = 400."""

    def __init__(self, work_dir):
        from contactmoc import fixtures

        self.config = os.path.join(work_dir, "blowup.cfg")
        self.out = os.path.join(work_dir, "blowup_out")
        fixtures.write_blowup_fixture(self.config, delta=0.06, ny=400)
        self.summary = None

    def run(self):
        self.summary = _cli(["blowup", "--config", self.config, "--out", self.out])
        return self.summary

    def check(self):
        return checks.check_blowup(
            checks.parse_summary(self.summary),
            checks.read_csv(os.path.join(self.out, "gradients.csv")),
            checks.lax_blowup_x_from_config(checks.read_config_scalars(self.config)),
        )


WORKLOADS = {"solve": Solve, "oracle": Oracle, "blowup": Blowup}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--src", required=True, help="directory contactmoc must be imported from")
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", default=None, help="where to write the checked record")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    # Replies go to the original standard output; anything the program
    # prints goes to standard error instead.
    reply = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    import contactmoc

    src = os.path.realpath(args.src)
    if os.path.commonpath([os.path.realpath(contactmoc.__file__), src]) != src:
        print(f"contactmoc imported from {contactmoc.__file__}, not from {src}", file=sys.stderr)
        return 2

    os.makedirs(args.work_dir, exist_ok=True)
    wl = WORKLOADS[args.workload](args.work_dir)
    attempted = failed = 0
    reference = None

    def attempt():
        """Time one operation; count it failed if it raises or its output
        differs from the first timed operation's."""
        nonlocal attempted, failed, reference
        attempted += 1
        t0 = time.perf_counter()
        try:
            fingerprint = wl.run()
        except OperationFailed as exc:
            failed += 1
            print(exc, file=sys.stderr)
            return time.perf_counter() - t0, False
        dt = time.perf_counter() - t0
        if reference is None:
            reference = fingerprint
        elif fingerprint != reference:
            failed += 1
            print("operation output differs from the first timed operation's", file=sys.stderr)
            return dt, False
        return dt, True

    def send(obj):
        reply.write(json.dumps(obj) + "\n")
        reply.flush()

    wl.run()  # warm-up, untimed
    send({"ready": True, "config": wl.config})
    times = []
    for line in sys.stdin:
        command = line.strip()
        if command == "op":
            dt, ok = attempt()
            times.append(dt)
            send({"dt": dt, "ok": ok})
        elif command == "finish":
            break
        else:
            print(f"unknown command {command!r}", file=sys.stderr)
            return 2
    if args.result is None:
        return 0

    record = {"op_times_s": times, "peak_rss_mb": _peak_rss_mb(), "machine": machine.versions()}
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced_s, _ = attempt()
        finally:
            tracer.uninstall()
        layers = tracing.layer_metrics(tracer)
        layers["trace.overhead_s"] = traced_s - statistics.median(times)
        record.update(per_layer=layers, traced_op_s=traced_s, untraced_layers=tracer.missing)
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)

    try:
        failures, figures = wl.check()
    except Exception:  # a check that cannot run is a failed check
        failures, figures = ["check raised:\n" + traceback.format_exc()], {}
    record.update(attempted=attempted, failed=failed, check_failures=failures, figures=figures)
    with open(args.result, "w") as fh:
        json.dump(record, fh, indent=1)
    send({"done": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
