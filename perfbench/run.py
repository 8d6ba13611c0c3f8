#!/usr/bin/env python3
"""Build the protected-cycle benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload retrieval_bound --seed 1 \
        --seconds 30 --trace 0

Steps: configure and build perfbench/ (which compiles ../src) in
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench), run the tests of the
benchmark's arithmetic, fill the model cache if it is empty (untimed), then
run the workload. The last line of standard output is the result JSON. Every
file it writes stays under the build directory.

The measurement is split over PROCESSES fresh processes, each measuring
--seconds / PROCESSES, run one after another; each metric is the median of
their values. On this class of shared host a whole process can run fast or
slow for its lifetime (memory layout, placement), so one process per run
would make the run-to-run spread measure that lottery; the median of five
discards two outlying processes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("retrieval_bound", "client_bound")
PROCESSES = 5


def combine(parts):
    """One result from the per-process results: counts add up, each metric
    is the median over the processes that report it."""
    names = set(parts[0]["metrics"])
    for part in parts[1:]:
        names &= set(part["metrics"])
    metrics = {}
    for name in sorted(names):
        values = [part["metrics"][name]["value"] for part in parts]
        metrics[name] = {"value": statistics.median(values),
                         "unit": parts[0]["metrics"][name]["unit"]}
    return {
        "correct": all(part["correct"] for part in parts),
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "metrics": metrics,
    }


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run(cmd, env, **kwargs):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, env=env, check=True, stdout=sys.stderr, **kwargs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    source = os.path.join(root, "perfbench")
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.join(build_root, "perfbench")
    state = os.path.join(build_root, "perfbench-state")
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)

    # No TOPPRIV_* variable may reach the program: the workload is fixed by
    # the benchmark alone.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TOPPRIV_")}
    env["TMPDIR"] = tmp
    jobs = str(min(4, os.cpu_count() or 1))

    try:
        run(["cmake", "-S", source, "-B", build, "-DCMAKE_BUILD_TYPE=Release"], env,
            stderr=sys.stderr)
        run(["cmake", "--build", build, "-j", jobs], env, stderr=sys.stderr)
        run([os.path.join(build, "stats_test")], env)
        run([os.path.join(build, "cycle_bench"), "--state", state, "--prepare"], env)
    except (subprocess.CalledProcessError, OSError) as err:
        log(f"build or preparation failed: {err}")
        return 1

    reference = os.path.join(state, f"reference-{os.getpid()}.txt")
    if os.path.exists(reference):
        os.remove(reference)
    parts = []
    for _ in range(PROCESSES):
        proc = subprocess.run(
            [os.path.join(build, "cycle_bench"), "--state", state,
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds / PROCESSES),
             "--trace", str(args.trace), "--reference", reference],
            env=env, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            part = json.loads(lines[-1])
            part["metrics"]
        except (IndexError, ValueError, KeyError, TypeError):
            log(f"cycle_bench printed no result (exit {proc.returncode})")
            if os.path.exists(reference):
                os.remove(reference)
            return 1
        for line in lines:
            log(line)
        if proc.returncode != 0 or not part["correct"]:
            log(f"cycle_bench failed a check (exit {proc.returncode})")
            part["correct"] = False
        parts.append(part)
        if not part["correct"]:
            break
    if os.path.exists(reference):
        os.remove(reference)

    result = combine(parts)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
