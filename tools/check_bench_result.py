#!/usr/bin/env python3
"""Check that a perfbench result carries every metric BENCHMARK.json names.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload retrieval_bound --seed 1 \
        --seconds 5 --trace 1 | python3 tools/check_bench_result.py --trace 1

The result is the last non-empty line of stdin (run.py prints it last).
An untraced result (--trace 0) must hold every `end_to_end` name of the
checkout's BENCHMARK.json, a traced one (--trace 1) every `per_layer` name,
each with a finite numeric value, and it must report `correct: true`.
Anything else exits 1 with one line per problem.

run.py combines its processes' results by keeping only the metrics that every
process reported, so a metric one process stops exporting vanishes from the
result while run.py still exits 0. This check is what turns that into a
failure.
"""

import argparse
import json
import math
import pathlib
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def problems(result, names):
    """Every way `result` falls short of holding `names`; empty if none."""
    if not isinstance(result, dict):
        return ["the result is not a JSON object"]
    found = []
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}, not true")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return found + ["the result has no metrics object"]
    for name in names:
        entry = metrics.get(name)
        value = entry.get("value") if isinstance(entry, dict) else None
        if entry is None:
            found.append(f"missing metric {name}")
        elif (isinstance(value, bool) or not isinstance(value, (int, float))
              or not math.isfinite(value)):
            found.append(f"metric {name} has no finite value: {entry!r}")
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True,
                        help="the --trace the result was run with")
    args = parser.parse_args()

    declared = json.loads(BENCHMARK.read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]

    lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
    if not lines:
        print("check_bench_result: no result line in the input", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError as err:
        print(f"check_bench_result: the last line is not JSON: {err}", file=sys.stderr)
        return 1

    found = problems(result, names)
    for problem in found:
        print(f"check_bench_result: {problem}", file=sys.stderr)
    if found:
        return 1
    kind = "per_layer" if args.trace else "end_to_end"
    print(f"check_bench_result: all {len(names)} {kind} metrics present and finite")
    return 0


if __name__ == "__main__":
    sys.exit(main())
