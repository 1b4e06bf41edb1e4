#!/usr/bin/env python3
"""Same-machine A/B of two checkouts on one workload.

    python3 perfbench/ab.py --old DIR --new DIR --workload NAME
                            [--pairs N] [--seed N]

Runs perfbench/run.py in each checkout (each builds into its own
.bench_build), alternating which side goes first in every pair, all with
the same seed and the run length of the new side's BENCHMARK.json
(run_seconds). At least ten pairs are run. Prints, per end-to-end metric,
each side's median and quartiles, the parent's own spread (IQR / median),
and the share of pairs the new side won. A gain counts only if the new
side wins at least nine tenths of the pairs and the medians differ by more
than the parent's spread; anything else is no change or unresolved.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

MIN_PAIRS = 10


def run(checkout, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit("run failed in %s:\n%s" % (checkout, proc.stdout[-2000:]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--old", required=True)
    parser.add_argument("--new", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < MIN_PAIRS:
        parser.error("--pairs must be at least %d" % MIN_PAIRS)

    with open(os.path.join(args.new, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    old, new = [], []
    for i in range(args.pairs):
        order = [("old", args.old), ("new", args.new)]
        if i % 2 == 1:
            order.reverse()
        for side, checkout in order:
            (old if side == "old" else new).append(
                run(checkout, args.workload, args.seed, seconds))
        print("pair %d/%d done" % (i + 1, args.pairs), file=sys.stderr)

    print("%-20s %36s %36s %8s %6s" % ("metric", "old q1/median/q3",
                                         "new q1/median/q3", "spread", "wins"))
    for name, direction in better.items():
        a = [r[name] for r in old]
        b = [r[name] for r in new]
        qa, qb = quartiles(a), quartiles(b)
        spread = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
        sign = 1 if direction == "higher" else -1
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        print("%-20s %36s %36s %8.3f %3d/%-2d" % (
            name, "/".join("%.4g" % v for v in qa),
            "/".join("%.4g" % v for v in qb), spread, wins, len(a)))


if __name__ == "__main__":
    main()
