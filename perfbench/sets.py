"""Run a set of benchmark runs and print each end-to-end metric's median,
quartiles and spread (interquartile range over median).

    python3 perfbench/sets.py --workloads solve,oracle,blowup --seeds 1-10 \
        [--seconds 10] [--out FILE]

Runs one workload at a time, one seed after another, never in parallel.
``--out`` keeps every run's result line as JSON for a later comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    results = {}
    for wl in args.workloads.split(","):
        runs = results[wl] = []
        for seed in _seeds(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            runs[-1]["elapsed_s"] = time.perf_counter() - t0
            print(wl, seed, json.dumps(runs[-1]), file=sys.stderr, flush=True)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            s = summarize([r["metrics"][name]["value"] for r in runs])
            print(f"{wl:7s} {name:12s} median {s['median']:.4g}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  "
                  f"spread {100 * s['spread']:.2f}%  (bound {100 * metric['bound']:.0f}%)")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{wl:7s} correct {all(r['correct'] for r in runs)}  failed {failed}/{attempted}  "
              f"mean run {statistics.mean(r['elapsed_s'] for r in runs):.1f} s")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
