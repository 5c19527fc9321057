#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

From the repository root:

    python3 perfbench/spread.py --workload dp-ratio --seeds 1-10 --seconds 20

For every metric it prints the median of the runs and the interquartile
range (statistics.quantiles(values, n=4), Q3 - Q1) as a share of that
median: the figure a metric's bound in BENCHMARK.json must stay above.
"""
import argparse
import json
import resource
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    values = {}
    units = {}
    for seed in seeds(args.seeds):
        start = time.time()
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            check=True, stdout=subprocess.PIPE, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: incorrect result {res}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: {time.time() - start:.1f}s wall, {res['attempted']} checks",
              file=sys.stderr)

    print(f"{'metric':34} {'median':>14} {'unit':6} {'IQR/median':>10}")
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        spread = float("nan")
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / abs(med)
        runs = " ".join(f"{v:.4g}" for v in vs)
        print(f"{name:34} {med:14.4f} {units[name]:6} {spread:10.4f}  [{runs}]")
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"peak child RSS {rss / 1024:.0f} MiB", file=sys.stderr)


if __name__ == "__main__":
    main()
