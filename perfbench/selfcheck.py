#!/usr/bin/env python3
"""Self-vs-self check: two sets of runs of one commit, compared.

    python3 perfbench/selfcheck.py

Run from the root of a checkout. Each set runs every workload that
BENCHMARK.json lists ten times, one process per run, at its `run_seconds`,
with seeds 1..10 (first set) and 101..110 (second set). For every
(workload, end-to-end metric) pair it prints the median and quartiles of
each set, the spread (interquartile distance over the median) and the
relative shift of the second median against the first, and whether the
pair stayed within the bound BENCHMARK.json gives it: both spreads and
the shift, in either direction, within the bound. It also compares each
set's share of failed operations. The raw results go to
$CARGO_TARGET_DIR/perfbench-selfcheck.json. Exits 1 if any pair is out
of bounds, the failed shares differ or any run was incorrect.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Runs of each workload in each set.
RUNS = 10


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=900)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    sets = []
    for base in (1, 101):
        results = {w: [] for w in workloads}
        for w in workloads:
            for i in range(RUNS):
                r = run(w, base + i, seconds)
                results[w].append(r)
                print(f"set {len(sets) + 1} {w} seed {base + i}: correct={r['correct']} "
                      + " ".join(f"{m['name']}={r['metrics'][m['name']]['value']:.6g}"
                                 for m in metrics), file=sys.stderr, flush=True)
        sets.append(results)

    ok = True
    print(f"{'workload':14} {'metric':16} {'median1':>12} {'q1':>12} {'q3':>12} {'spread1':>8} "
          f"{'median2':>12} {'spread2':>8} {'shift':>8} {'bound':>6}  verdict")
    for w in workloads:
        a, b = sets[0][w], sets[1][w]
        fail_a = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        fail_b = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        correct = all(r["correct"] for r in a + b)
        if fail_a != fail_b or not correct:
            ok = False
        for m in metrics:
            va = [r["metrics"][m["name"]]["value"] for r in a]
            vb = [r["metrics"][m["name"]]["value"] for r in b]
            ma, q1, q3, sa = summary(va)
            mb, _, _, sb = summary(vb)
            shift = (mb - ma) / ma
            good = max(sa, sb) <= m["bound"] and abs(shift) <= m["bound"]
            ok = ok and good
            print(f"{w:14} {m['name']:16} {ma:12.6g} {q1:12.6g} {q3:12.6g} {sa:8.4f} "
                  f"{mb:12.6g} {sb:8.4f} {shift:+8.4f} {m['bound']:6.3f}  "
                  f"{'ok' if good else 'OUT'}")
        print(f"{w:14} failed share {fail_a:.6g} vs {fail_b:.6g}; all correct: {correct}")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    with open(os.path.join(target, "perfbench-selfcheck.json"), "w") as f:
        json.dump(sets, f)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
