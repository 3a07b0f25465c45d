#!/usr/bin/env python3
"""Steadiness check of the benchmark, the way its contract states it.

Runs the command of BENCHMARK.json ten times per workload, each time
with another seed, and prints for every end-to-end metric the distance
between the first and third quartile of its ten values as a share of
their median, next to the metric's bound. Run it from the repository
root:

    python3 e2e/calibrate.py [--runs 10] [--first-seed 1] [--workload NAME]

A spread above a third of the bound is marked `wide`, one above the
bound `UNSTEADY`.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        contract = json.load(f)
    names = args.workload or [w["name"] for w in contract["workloads"]]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    unsteady = False
    for name in names:
        values = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = contract["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(contract["run_seconds"]), "--trace", "0",
            ]
            started = time.time()
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit code {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{name} seed {seed}: {result}")
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"# {name} seed {seed}: {time.time() - started:.1f} s", flush=True)
        for m, bound in bounds.items():
            q1, _, q3 = statistics.quantiles(values[m], n=4)
            median = statistics.median(values[m])
            spread = (q3 - q1) / median
            mark = "ok"
            if spread > bound / 3:
                mark = "wide"
            if spread > bound and m != "setup_s":
                mark = "UNSTEADY"
                unsteady = True
            print(f"{name} {m} median={median:.6g} spread={spread:.4f} "
                  f"bound={bound} {mark}", flush=True)
    sys.exit(1 if unsteady else 0)


if __name__ == "__main__":
    main()
