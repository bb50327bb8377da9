#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are across seeds.

Usage, from the root of a checkout:

    python3 perfbench/stability.py [--runs 10]

Runs every workload of BENCHMARK.json --runs times, untraced, seed 1000 + i
for run i, one run at a time. For every end-to-end metric it prints the
quartiles of the runs (Python's statistics.quantiles(n=4)) and the spread,
the distance between the quartiles as a share of the median. A metric is
steady when its spread is below a third of its bound. Exits 1 when a run
fails, reports an incorrect answer or a metric is not steady.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(1000, 1000 + args.runs):
            runs.append(run_once(bench, workload, seed))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
        print(f"\n{workload}: metric  q1  median  q3  spread  (bound/3)")
        for m in bench["end_to_end"]:
            q1, median, q3 = statistics.quantiles(
                [r[m["name"]] for r in runs], n=4)
            spread = (q3 - q1) / median
            ok = spread < m["bound"] / 3
            steady = steady and ok
            print(f"  {m['name']:<18} {q1:.5g}  {median:.5g}  {q3:.5g}  "
                  f"{spread:.3f}  ({m['bound'] / 3:.3f}) "
                  + ("ok" if ok else "WIDE"))
        print(flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
