#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the driver like run.py does (into .bench_build/perfbench), then
checks that the link-time interposition is faithful, that a wrong
reference digest fails the run, that every metric the benchmark prints is
declared in BENCHMARK.json, and that a seed always draws the same
parameters. Takes about a minute once the build exists.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark entry point, for its paths and build)

GOLDEN = os.path.join(run.ROOT, "tests", "scenario", "golden_catalog.txt")
REFERENCES = os.path.join(run.HERE, "references.txt")


def driver(binary, *args, golden=GOLDEN):
    cmd = [os.path.join(run.BUILD, binary), *args,
           "--golden", golden, "--references", REFERENCES]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)


def report(proc):
    return json.loads(proc.stdout.splitlines()[-1])


def declared_metrics():
    spec, _ = run.load_benchmark()
    return {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_wrapped_pops_equal_executed_events(self):
        proc = driver("perfbench_traced", "--workload", "paced_mpi",
                      "--seed", "1", "--seconds", "0")
        r = report(proc)
        self.assertEqual(proc.returncode, 0)
        self.assertTrue(r["traced"])
        self.assertEqual(r["pop_mismatches"], 0)
        self.assertEqual(r["failed"], 0)
        # The registered specs execute exactly the golden event counts.
        self.assertEqual(r["metrics"]["sim.events"], 28442169)

    def test_planted_wrong_digest_fails_the_run(self):
        with open(GOLDEN) as f:
            rows = f.read().splitlines()
        planted = []
        for row in rows:
            if row.startswith("fig5_pingpong "):
                name, events, digest = row.split()
                digest = "%016x" % (int(digest, 16) ^ 1)
                row = f"{name} {events} {digest}"
            planted.append(row)
        with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as f:
            f.write("\n".join(planted) + "\n")
        try:
            proc = driver("perfbench", "--workload", "paced_mpi", "--seed", "1",
                          "--seconds", "0", golden=f.name)
        finally:
            os.unlink(f.name)
        r = report(proc)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(r["failed"], 1)
        self.assertGreater(r["metrics"]["failed_ratio"], 0)
        self.assertIn("FAIL fig5_pingpong", proc.stdout)

    def test_every_printed_metric_is_declared(self):
        declared = declared_metrics()
        for binary in ("perfbench", "perfbench_traced"):
            r = report(driver(binary, "--workload", "bulk_tcp", "--seed", "2",
                              "--seconds", "0"))
            undeclared = set(r["metrics"]) - declared
            self.assertFalse(undeclared, f"{binary}: {sorted(undeclared)}")
        # run.py adds trace.overhead_ratio; the contract line uses only
        # declared names.
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", "chaos_soak", "--seed", "3", "--seconds", "0",
                 "--trace", trace],
                stdout=subprocess.PIPE, text=True, timeout=400)
            self.assertEqual(proc.returncode, 0)
            line = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(set(line["metrics"]) <= declared)

    def test_same_seed_draws_same_parameters(self):
        def params(workload, seed):
            proc = driver("perfbench", "--workload", workload, "--seed",
                          str(seed), "--seconds", "0", "--print-params")
            self.assertEqual(proc.returncode, 0)
            return proc.stdout

        for workload in ("bulk_tcp", "paced_mpi", "chaos_soak"):
            self.assertEqual(params(workload, 12345), params(workload, 12345))
        # The default seed runs the registered specs; others draw variants.
        self.assertNotIn("=", params("paced_mpi", 1))
        drawn = {params("paced_mpi", seed) for seed in range(2, 12)}
        self.assertGreater(len(drawn), 1)


if __name__ == "__main__":
    unittest.main()
