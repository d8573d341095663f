#!/usr/bin/env python3
"""Self-test of the host-cost benchmark at reduced size.

Run from the repository root:

    python3 perfbench/test_bench.py

For every workload it runs the benchmark twice at the default seed and
asserts that the two runs print the same fingerprint (every simulated
count, metric and tuned winner), so a time difference between two runs
belongs to the machine. It runs one non-default seed through every
check, and a traced run, and checks the printed metric names and units
against BENCHMARK.json.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig11-k20c", "vidstream-serve", "shard-failover")


def run(workload, seed=0, trace=0):
    """Run one small benchmark pass; return (fingerprint, result)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace",
         str(trace), "--scale", "small"],
        cwd=ROOT, stdout=subprocess.PIPE, universal_newlines=True,
        check=True).stdout.splitlines()
    prints = [l[len("fingerprint "):] for l in out
              if l.startswith("fingerprint ")]
    assert len(prints) == 1, out
    return json.loads(prints[0]), json.loads(out[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def assertMetrics(self, result, group):
        want = {m["name"]: m["unit"] for m in self.spec[group]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        self.assertEqual(got, want)

    def assertClean(self, result):
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

    def test_reruns_print_identical_fingerprints(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                fp1, r1 = run(w)
                fp2, r2 = run(w)
                self.assertClean(r1)
                self.assertClean(r2)
                self.assertEqual(fp1, fp2)
                self.assertMetrics(r1, "end_to_end")

    def test_other_seed_passes_every_check(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                fp0, _ = run(w, seed=0)
                fp7, r7 = run(w, seed=7)
                self.assertClean(r7)
                self.assertNotEqual(fp0, fp7, "the seed moved no input")

    def test_traced_run_prints_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, r = run(w, trace=1)
                self.assertClean(r)
                self.assertMetrics(r, "per_layer")
                path = os.path.join(ROOT, ".bench_build", "traces",
                                    "%s-seed0.json" % w)
                with open(path) as f:
                    spans = json.load(f)["spans"]
                names = {s["name"] for s in spans}
                self.assertTrue({"setup", "pass", "apps.make"} <= names)
                for s in spans:
                    self.assertLessEqual(s["cpu_start"], s["cpu_end"])
                    self.assertLessEqual(s["wall_start"], s["wall_end"])


if __name__ == "__main__":
    unittest.main()
