#!/usr/bin/env python3
"""Tests of the benchmark itself: BENCHMARK.json's shape, run.py's output
and failure modes, and (through the C++ test binary) the timed wrappers.

    python3 perfbench/tests/test_run.py

Builds into .bench_build/perfbench like run.py and runs each workload at its
full size with --seconds 0, i.e. run.py's minimum of three repetitions of a
few seconds each.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600)


class SpecTest(unittest.TestCase):
    def test_keys_and_limits(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["command"][:2], ["python3", "perfbench/run.py"])
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_metric_names_and_units(self):
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "a name is used twice")


class RunTest(unittest.TestCase):
    def check_result(self, proc, kind):
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        spec = {m["name"]: m["unit"] for m in load_spec()[kind]}
        self.assertEqual(set(result["metrics"]), set(spec))
        for name, m in result["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertEqual(m["unit"], spec[name])
            self.assertIsInstance(m["value"], (int, float))
        return result

    def test_end_to_end_output_parses(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                proc = run_bench("--workload", w, "--seed", "3", "--seconds",
                                 "0", "--trace", "0")
                result = self.check_result(proc, "end_to_end")
                for name in ("setup_s", "run_us_per_inv", "goodput"):
                    self.assertGreater(result["metrics"][name]["value"], 0)

    def test_traced_output_parses(self):
        proc = run_bench("--workload", "libra_audited_churn", "--seed", "3",
                         "--seconds", "0", "--trace", "1")
        result = self.check_result(proc, "per_layer")
        self.assertGreater(
            result["metrics"]["sim.engine.events_per_inv"]["value"], 0)

    def test_bad_arguments_exit_nonzero_without_result(self):
        proc = run_bench("--workload", "nope", "--seed", "1", "--seconds", "1")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")

    def test_without_sources_exits_nonzero_without_result(self):
        os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
        bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_build"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "libra_azure", "--seed", "1",
                             "--seconds", "1", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare)


class CppUnitTest(unittest.TestCase):
    def test_timed_wrappers(self):
        run.build()
        out = run.build_dir()
        subprocess.run(["cmake", "--build", out, "--target", "perfbench_tests",
                        "-j", "4"], check=True, capture_output=True)
        proc = subprocess.run([os.path.join(out, "perfbench_tests")],
                              capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stdout[-4000:])


if __name__ == "__main__":
    unittest.main()
