#!/usr/bin/env python3
"""Build the benchmark and run one workload in a fresh process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The binary is built from source with
cargo (offline) into $CARGO_TARGET_DIR, default `.bench_build`. The pool
width is pinned to the CPUs this process may use (RT_POOL_THREADS).

`--trace 0` runs the named workload untraced and prints its end-to-end
metrics. `--trace 1` runs the traced pass of every workload, each in its
own process, and prints every per-layer metric; spans are written to
`$CARGO_TARGET_DIR/perfbench-trace/<workload>.spans.jsonl`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
when every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ["solve_dram", "solve_ranked", "plan", "campaign"]
# Each run must end within 180 s; the build of a fresh checkout may take
# longer, so it gets its own budget.
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 850.0

HERE = os.path.dirname(os.path.abspath(__file__))


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Cargo's output goes to stderr so the result stays the last stdout line.
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_BUDGET_S)
    if proc.returncode != 0:
        sys.exit(f"perfbench: build failed with exit code {proc.returncode}")
    return os.path.join(target_dir, "release", "hemocloud-perfbench")


def run_one(binary, workload, args, trace, timeout, trace_out=None):
    cmd = [
        binary, "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", "1" if trace else "0",
        "--perturb", args.perturb,
    ]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ, RT_POOL_THREADS=str(threads))
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"perfbench: {workload} printed no result (exit code {proc.returncode})")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--perturb", default="none",
                    choices=["none", "distribution", "dashboard", "outcome", "op-panic"],
                    help="corrupt one output before it is checked, or make the first "
                         "operation panic (shows a check fires)")
    args = ap.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target_dir)
    start = time.monotonic()
    if args.trace == "0":
        result = run_one(binary, args.workload, args, False, RUN_BUDGET_S)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in WORKLOADS:
            left = RUN_BUDGET_S - (time.monotonic() - start)
            out = os.path.join(target_dir, "perfbench-trace", f"{w}.spans.jsonl")
            r = run_one(binary, w, args, True, left, trace_out=out)
            result["correct"] = result["correct"] and r["correct"]
            result["attempted"] += r["attempted"]
            result["failed"] += r["failed"]
            result["metrics"].update(r["metrics"])
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
