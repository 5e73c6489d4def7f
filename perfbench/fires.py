#!/usr/bin/env python3
"""Show that the output checks fire on a perturbed output.

    python3 perfbench/fires.py

Run from the root of a checkout. Each case runs one workload with one
output corrupted after the program produced it and before the benchmark
checks it:

  solve_dram   distribution  one distribution value read out of the solver
  solve_ranked distribution  one value of the ranked solver's distributions
  plan         dashboard     one dashboard entry dropped
  campaign     outcome       one campaign outcome miscounted
  plan         op-panic      the first timed operation panics

An output case passes when the run reports `correct: false` and names
the check that failed; the script prints those check lines. The
op-panic case passes when the run counts exactly one failed operation
and stays correct, since its other operations were checked. Exits 1 if
any perturbation went unnoticed, or if an unperturbed control run is
wrong or counts a failed operation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CASES = [
    ("solve_dram", "distribution"),
    ("solve_ranked", "distribution"),
    ("plan", "dashboard"),
    ("campaign", "outcome"),
    ("plan", "op-panic"),
]
# Seconds each run measures; the checks do not depend on it.
SECONDS = 2


def run(workload, perturb, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", "0", "--perturb", perturb]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=900)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    checks = [l for l in proc.stderr.splitlines() if l.startswith("CHECK FAILED")]
    return result, checks


def main():
    ok = True
    for workload, perturb in CASES:
        control, _ = run(workload, "none", SECONDS)
        result, checks = run(workload, perturb, SECONDS)
        if perturb == "op-panic":
            fired = result["correct"] and result["failed"] == 1
        else:
            fired = not result["correct"] and bool(checks)
        ok = ok and fired and control["correct"] and control["failed"] == 0
        print(f"{workload} --perturb {perturb}: control correct={control['correct']} "
              f"failed={control['failed']}, perturbed correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              f"-> {'fired' if fired else 'NOT FIRED'}")
        for line in checks:
            print(f"    {line}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
