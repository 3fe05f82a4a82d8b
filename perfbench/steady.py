#!/usr/bin/env python3
"""Steadiness helper: run one workload N times and summarise every metric.

    python3 perfbench/steady.py --workload served-ycsb-b --runs 10
    python3 perfbench/steady.py --workload store-ycsb-a --seeds 3,4,5 --trace 1

Each run uses its own seed (1..N by default). For every metric it prints the
median, the first and third quartiles (statistics.quantiles(values, n=4)),
the quartile spread as a share of the median, and the max-min spread. With
the bounds from BENCHMARK.json it marks each end-to-end metric whose
quartile spread exceeds its bound (and a third of it, the target margin).
Run from the root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seeds", help="comma-separated seeds (overrides --runs)")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(1, args.runs + 1)))

    values = {}
    units = {}
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print("seed %d: run failed (exit %d)" % (seed, out.returncode))
            print(out.stdout[-2000:], out.stderr[-2000:])
            return 1
        res = json.loads(lines[-1])
        if not res["correct"]:
            print("seed %d: incorrect result" % seed)
            return 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: done" % seed, flush=True)

    print("%-30s %8s %14s %14s %14s %9s %9s" %
          ("metric", "unit", "median", "q1", "q3", "iqr/med", "rng/med"))
    worst = 0.0
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        iqr = (q3 - q1) / med if med else float("inf") if q3 != q1 else 0.0
        rng = (max(v) - min(v)) / med if med else 0.0
        flag = ""
        if name in bounds:
            worst = max(worst, iqr / bounds[name])
            if iqr > bounds[name]:
                flag = "  OVER BOUND %.3f" % bounds[name]
            elif iqr > bounds[name] / 3:
                flag = "  above bound/3 (%.3f)" % (bounds[name] / 3)
        print("%-30s %8s %14.4f %14.4f %14.4f %9.4f %9.4f%s" %
              (name, units[name], med, q1, q3, iqr, rng, flag))
    if args.trace == 0:
        print("largest spread/bound: %.3f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
