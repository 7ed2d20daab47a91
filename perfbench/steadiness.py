#!/usr/bin/env python3
"""Measures how steady the benchmark is, to set and check its bounds.

    python3 perfbench/steadiness.py [--runs 10] [--seconds 10] [--workloads a,b]

For each workload, runs perfbench/run.py --runs times with seeds 1..runs and
prints, per end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median) next to the bound BENCHMARK.json
sets; a spread at or above a third of its bound is flagged. It then makes
two traced runs with one seed and confirms that the exact counts repeat
exactly, and prints the tracing overhead (untraced against traced ops/s).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Counts that depend only on the seed's operations, never on timing.
EXACT_COUNTS = ("rete.emitted_entries_per_change",
                "rete.source_entries_per_change",
                "engine.epochs_published_per_commit",
                "engine.ingest_mutations_per_batch",
                "catalog.prime_graph_entries",
                "catalog.prime_replayed_entries")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, universal_newlines=True,
                         check=True).stdout
    result = json.loads(out.rstrip("\n").split("\n")[-1])
    if not result["correct"] or result["failed"]:
        print("  seed %d: correct=%s failed=%d" %
              (seed, result["correct"], result["failed"]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    steady = True
    for workload in args.workloads.split(","):
        print("== %s: %d runs of %gs" % (workload, args.runs, args.seconds))
        runs = [run(workload, seed, args.seconds, 0)
                for seed in range(1, args.runs + 1)]
        print("  %-22s %12s %12s %12s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 or name == "setup_s" else "  <-"
            steady = steady and flag == ""
            print("  %-22s %12.4f %12.4f %12.4f %8.4f %6.2f%s" %
                  (name, med, q1, q3, spread, bound, flag))
            print("  %22s %s" % ("", " ".join("%.4g" % v for v in values)))
        traced = [run(workload, 1, args.seconds, 1) for _ in range(2)]
        for name in EXACT_COUNTS:
            same = traced[0][name] == traced[1][name]
            steady = steady and same
            print("  exact %-36s %s %s" %
                  (name, traced[0][name], "repeats" if same else
                   "DIFFERS: %s" % traced[1][name]))
        untraced = statistics.median(r["ops_per_s"] for r in runs)
        traced_ops = statistics.median(r["trace.ops_per_s"] for r in traced)
        print("  tracing overhead: %.1f%% (ops/s %.1f untraced, %.1f traced)" %
              (100.0 * (untraced - traced_ops) / untraced, untraced,
               traced_ops))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
