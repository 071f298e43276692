#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_bench.py

Builds the benchmark (as run.py does) and runs every workload at
gen::ScaleConfig::test() scale, untraced and traced. Asserts that each run
passes its output checks and prints every metric BENCHMARK.json names,
with its unit; that a deliberately broken reference makes each workload's
check fail with a nonzero exit; and that run.py refuses to run in a
directory holding only BENCHMARK.json and perfbench/.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
import run  # noqa: E402  (perfbench/run.py)

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def serve_rate():
    command = SPEC["command"]
    return command[command.index("--serve-rate") + 1]


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out_dir = run.build_dir()
        cls.binary = run.build(cls.out_dir)
        cls.work_dir = os.path.join(cls.out_dir, "selftest")

    def run_bench(self, workload, trace, *extra):
        command = [self.binary, "--workload", workload, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--test-scale",
                   "--serve-rate", serve_rate(), "--work-dir", self.work_dir,
                   *extra]
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=170)
        lines = done.stdout.strip().splitlines()
        self.assertTrue(lines, f"{workload}: no output\n{done.stderr}")
        result = json.loads(lines[-1])
        self.assertEqual(set(result), RESULT_KEYS)
        return done.returncode, result, done.stderr

    def assert_metrics(self, result, wanted):
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in wanted})
        for m in wanted:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, result, err = self.run_bench(workload, trace)
                    self.assertEqual(code, 0, err)
                    self.assertTrue(result["correct"], err)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assert_metrics(result, wanted)
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_broken_reference_fails_the_check(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, err = self.run_bench(workload, 0, "--break-reference")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn("check failed", err)

    def test_refuses_to_run_without_the_sources(self):
        bare = os.path.join(self.out_dir, "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        done = subprocess.run(
            SPEC["command"] + ["--workload", "week", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
