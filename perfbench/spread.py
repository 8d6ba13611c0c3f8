#!/usr/bin/env python3
"""Run one workload under several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload client_bound --seeds 1-10 \
        [--seconds 20] [--trace 0] [--out results.json]

For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json. A run that fails or
reports correct=false stops the sweep with exit code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        start = time.monotonic()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
        wall = time.monotonic() - start
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed (exit {proc.returncode})", file=sys.stderr)
            print("\n".join(proc.stderr.splitlines()[-20:]), file=sys.stderr)
            return 1
        print(f"seed {seed}: {wall:.1f} s wall, attempted {result['attempted']}",
              file=sys.stderr, flush=True)
        runs.append({"seed": seed, "wall_s": wall, **result})

    names = sorted({n for r in runs for n in r["metrics"]})
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:36} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}")
    print(f"wall per run: median {statistics.median(r['wall_s'] for r in runs):.1f} s")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
