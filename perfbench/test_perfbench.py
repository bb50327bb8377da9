#!/usr/bin/env python3
"""Self-check of the repository benchmark on short runs.

Usage, from the root of a checkout:

    python3 perfbench/test_perfbench.py

For every workload it asserts that
  * an untraced run prints exactly the end-to-end metrics of
    BENCHMARK.json, with their units, and answers correctly;
  * a traced run prints exactly the per-layer metrics, with their units
    (the binary itself fails a traced run whose workload leaves out, or
    reports 0 for, one of the layers it measures);
  * two traced runs of one seed report identical work counts (LPs, cell-
    tree nodes, candidates, cache hits, retained/dropped/notified, the
    serial passes' pool reads), no failed operation and no transport retry;
  * engine-disk's cache-hit share is exactly 1/3.
"""

import json
import pathlib
import subprocess
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SECONDS = "2"

# Per-layer metrics that count work rather than time it. Time-derived
# ratios (storage.read_ms_share, core.parallel_speedup_t2) are excluded.
EXACT_RATIOS = {"storage.pool_hit_ratio", "engine.cache_hit_ratio",
                "shard.router_hit_ratio"}


def exact(metric):
    return (metric["unit"] in ("count", "bytes")
            or metric["name"] in EXACT_RATIOS)


def run(workload, seed, trace):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkSelfCheck(unittest.TestCase):
    def check_catalogue(self, result, metrics):
        self.assertEqual(list(result["metrics"]), [m["name"] for m in metrics])
        for m in metrics:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_untraced_run_prints_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run(workload, 7, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.check_catalogue(result, BENCH["end_to_end"])
                for m in BENCH["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0)

    def test_traced_counts_repeat_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run(workload, 7, 1)
                second = run(workload, 7, 1)
                for result in (first, second):
                    self.check_catalogue(result, BENCH["per_layer"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        result["metrics"]["net.retries"]["value"], 0)
                for m in filter(exact, BENCH["per_layer"]):
                    self.assertEqual(first["metrics"][m["name"]]["value"],
                                     second["metrics"][m["name"]]["value"],
                                     m["name"])
                if workload == "engine-disk":
                    self.assertEqual(
                        first["metrics"]["engine.cache_hit_ratio"]["value"],
                        1 / 3)


if __name__ == "__main__":
    unittest.main()
