#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each metric's spread.

Usage (from the repository root):
    python3 perfbench/spread.py --workload section6_mem --seeds 1-10
    python3 perfbench/spread.py --workload section6_mem \\
        --workload fulltext_packed --seeds 5,5,5,5,5

--seeds is a comma-separated list of seeds and ranges; a seed may repeat.
With several workloads the runs alternate between them, seed by seed, so
a host that drifts moves every workload alike. For every end-to-end
metric it prints the median of the runs and the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of that
median, next to the metric's bound from BENCHMARK.json. Exits 1 if any
run is incorrect or fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(spec):
    seeds = []
    for item in spec.split(","):
        lo, _, hi = item.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} seed {seed}: exit {proc.returncode}",
              file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}",
          flush=True)
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {} for w in args.workload}
    ok = True
    for seed in seed_list(args.seeds):
        for workload in args.workload:
            result = run(bench, workload, seed)
            if result is None:
                return 1
            ok = ok and result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
    for workload in args.workload:
        print(workload)
        for name, vals in values[workload].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            flag = "ok" if spread < bound / 3 else (
                "within bound" if spread <= bound else "OVER BOUND")
            print(f"  {name:34s} median={med:<12.5g} spread={spread:7.3f} "
                  f"bound={bound:<6g} {flag:12s} "
                  + " ".join(f"{v:.4g}" for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
