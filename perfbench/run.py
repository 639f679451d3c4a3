"""contactmoc benchmark: one workload, timed from outside the program.

    python3 perfbench/run.py --workload {solve|oracle|blowup} --seed N \
        --seconds S --trace {0|1}

Run from the root of a checkout.  Each operation of the checkout's program
(``src``) is paired with the same operation of a frozen copy of the program
(``perfbench/baseline``), run right before or after it in a second worker
process.  Every process of the run is pinned to one CPU, and both workers
have their BLAS and OpenMP pools capped at one thread.  The machine's speed
drifts by tens of percent within a minute, and both operations of a pair see
nearly the same machine, so the ratio of their times is steady where either
time alone is not.  ``wall_s`` and ``setup_s`` are that median ratio times
the baseline's time on the reference machine (README.md).
Set-up cost is measured the same way, in pairs of fresh interpreters
(setup_probe.py) started between the timed operations.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The inputs are
deterministic fixtures, so ``--seed`` only labels the run.  A record of each
run, with every pair and the machine state before and after it, goes to
``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BASELINE = os.path.join(HERE, "baseline")
sys.path.insert(0, HERE)

import machine  # noqa: E402

WORKLOADS = ("solve", "oracle", "blowup")
# The pools are capped so a BLAS product cannot spin a second core: with the
# default OpenBLAS pool, CPU time ran 1.6x wall time and wall time spread wider.
CAPPED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "CONTACTMOC_THREADS": "1"}
# Median seconds of one baseline operation and of one baseline set-up on the
# reference machine (README.md); they turn the ratios into seconds.
REF_WALL_S = {"solve": 0.786, "oracle": 0.920, "blowup": 1.40}
REF_SETUP_S = {"solve": 0.644, "oracle": 0.650, "blowup": 0.631}
SETUP_PAIRS = 3
REPLY_TIMEOUT_S = 60
PROBE_TIMEOUT_S = 20
RUN_LIMIT_S = 160


class RunError(RuntimeError):
    pass


def _env(src):
    env = dict(os.environ, **CAPPED_ENV)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Worker:
    """A worker.py process that imports contactmoc from ``src``."""

    def __init__(self, name, workload, src, work_dir, deadline, extra=()):
        self.name, self.deadline = name, deadline
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
             "--src", src, "--work-dir", work_dir, *extra],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_env(src), cwd=ROOT)

    def ask(self, command=None):
        """Send ``command`` (if any) and return the worker's JSON reply."""
        if command is not None:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        timeout = min(REPLY_TIMEOUT_S, self.deadline - time.monotonic())
        ready, _, _ = select.select([self.proc.stdout], [], [], max(timeout, 0.0))
        if not ready:
            raise RunError(f"{self.name} worker gave no reply to {command!r} in time")
        line = self.proc.stdout.readline()
        if not line:
            raise RunError(f"{self.name} worker exited {self.proc.wait()} on {command!r}")
        return json.loads(line)

    def op(self):
        """Seconds of one operation; a failed baseline operation ends the run."""
        reply = self.ask("op")
        if not reply["ok"] and self.name == "baseline":
            raise RunError("a baseline operation failed")
        return reply["dt"]

    def stop(self):
        """End the process and wait for it, whatever state it is in."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=5)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def setup_probe(workload, src, config_path):
    """import + config-load seconds of one fresh interpreter (setup_probe.py)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, config_path],
        timeout=PROBE_TIMEOUT_S, capture_output=True, text=True, check=True, env=_env(src), cwd=ROOT)
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    src = os.path.realpath(src)
    if os.path.commonpath([os.path.realpath(probe["file"]), src]) != src:
        raise RunError(f"set-up probe imported {probe['file']}, not a module under {src}")
    return probe


def measure(args, work, result_path, spans_path):
    """Alternate current and baseline operations in whole pairs for ``--seconds``."""
    deadline = time.monotonic() + RUN_LIMIT_S
    extra = ["--result", result_path, "--trace", str(args.trace), "--spans", spans_path]
    workers = []
    try:
        cur = Worker("current", args.workload, SRC, os.path.join(work, "current"), deadline, extra)
        workers.append(cur)
        base = Worker("baseline", args.workload, BASELINE, os.path.join(work, "baseline"), deadline)
        workers.append(base)
        config = cur.ask()["config"]  # set up and warmed up
        base.ask()
        pairs, probes, measured = [], [], 0.0
        while not pairs or measured < args.seconds:
            # ABBA order, so that a drift during a pair favours neither side.
            if len(pairs) % 2 == 0:
                t_cur, t_base = cur.op(), base.op()
            else:
                t_base, t_cur = base.op(), cur.op()
            pairs.append((t_cur, t_base))
            measured += t_cur + t_base
            if len(probes) < SETUP_PAIRS:
                probes.append(probe_pair(args.workload, config, len(probes)))
        while len(probes) < SETUP_PAIRS:
            probes.append(probe_pair(args.workload, config, len(probes)))
        base.proc.stdin.write("finish\n")
        base.proc.stdin.flush()
        cur.ask("finish")
        with open(result_path) as fh:
            return pairs, probes, json.load(fh)
    finally:
        for w in workers:
            w.stop()


def probe_pair(workload, config, index):
    first, second = (SRC, BASELINE) if index % 2 == 0 else (BASELINE, SRC)
    probe = {first: setup_probe(workload, first, config)}
    probe[second] = setup_probe(workload, second, config)
    return probe[SRC], probe[BASELINE]


def main(argv=None):
    ap = argparse.ArgumentParser(description="contactmoc benchmark (one workload)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # A terminated run still stops its workers (the finally clauses run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    for path in (os.path.join(SRC, "contactmoc", "cli.py"), os.path.join(BASELINE, "contactmoc", "cli.py")):
        if not os.path.isfile(path):
            print(f"no contactmoc sources at {path}: run from the root of a checkout", file=sys.stderr)
            return 2

    # One CPU for every process of the run: the two CPUs of a shared machine
    # drift apart, and a pair measured on two of them compares the CPUs.
    # The workers inherit the pinning; only one process computes at a time.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runs = os.path.join(ROOT, ".perfbench_runs")
    work = os.path.join(runs, label + ".work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    before = machine.state()
    try:
        pairs, probes, worker = measure(args, work, os.path.join(work, "worker.json"),
                                        os.path.join(runs, label + ".spans.json"))
    except (RunError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    after = machine.state()

    ratio = statistics.median(c / b for c, b in pairs)
    setup_ratio = statistics.median((c["import_s"] + c["load_s"]) / (b["import_s"] + b["load_s"])
                                    for c, b in probes)
    if args.trace:
        layers = dict(worker["per_layer"], **{
            "setup.import_s": statistics.median(c["import_s"] for c, _ in probes),
            "config.load_s": statistics.median(c["load_s"] for c, _ in probes),
            "wall.raw_s": statistics.median(c for c, _ in pairs),
            "wall.baseline_s": statistics.median(b for _, b in pairs),
        })
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": ratio * REF_WALL_S[args.workload], "unit": "s"},
            "setup_s": {"value": setup_ratio * REF_SETUP_S[args.workload], "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
    for failure in worker["check_failures"]:
        print(f"CHECK FAILED ({args.workload}): {failure}", file=sys.stderr)
    result = {"correct": not worker["check_failures"], "attempted": worker["attempted"],
              "failed": worker["failed"], "metrics": metrics}
    with open(os.path.join(runs, label + ".json"), "w") as fh:
        json.dump({"args": vars(args), "result": result, "pairs": pairs, "wall_ratio": ratio,
                   "setup_pairs": probes, "setup_ratio": setup_ratio, "worker": worker,
                   "machine_before": before, "machine_after": after}, fh, indent=1)
    print(json.dumps(result))
    return 0


def unit_of(name):
    if name.endswith("_s") or name == "quadrature.s":
        return "s"
    if name == "cli.csv_bytes":
        return "bytes"
    if name == "blowup.step_us":
        return "us"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
