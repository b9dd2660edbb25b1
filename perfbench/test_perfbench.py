#!/usr/bin/env python3
"""The benchmark's own tests: every workload at tiny size, both runs.

    python3 perfbench/test_perfbench.py

Runs each workload untraced and traced in --tiny mode (seconds per run)
and checks that the last line is the result object, that every metric
BENCHMARK.json names is present, finite and carries its declared unit,
that deterministic counts repeat exactly, and that bad invocations and a
checkout without the library sources fail without a result.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DETERMINISTIC = ["exec.ops_per_event", "exec.results_per_event",
                 "exec.emit_delay_p50_t", "factor.model_boost"]


def run(root, *args):
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=900, check=False)
    return done.returncode, done.stdout


def run_tiny(workload, trace, seed=7):
    code, stdout = run(ROOT, "--workload", workload, "--seed", str(seed),
                       "--seconds", "1", "--trace", str(trace), "--tiny")
    lines = stdout.strip().splitlines()
    return code, lines, json.loads(lines[-1]) if lines else None


class TinyRuns(unittest.TestCase):
    def check_result(self, workload, trace, declared):
        code, lines, result = run_tiny(workload, trace)
        self.assertEqual(code, 0, "\n".join(lines[-20:]))
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], declared[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
            self.assertTrue(math.isfinite(metric["value"]), name)
        return lines, result

    def test_end_to_end(self):
        declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, _ = self.check_result(workload, 0, declared)
                # The paced rate is part of the contract: the workload's
                # `why` line in BENCHMARK.json states the rate it runs.
                rate = re.search(r"rate_eps=(\d+)", "\n".join(lines))
                why = next(w["why"] for w in SPEC["workloads"]
                           if w["name"] == workload)
                stated = re.search(r"paced at ([\d.]+)([kM]) ev/s", why)
                scale = {"k": 1e3, "M": 1e6}[stated.group(2)]
                self.assertEqual(float(rate.group(1)),
                                 float(stated.group(1)) * scale)

    def test_layer_ladder(self):
        declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first = self.check_result(workload, 1, declared)
                _, again = self.check_result(workload, 1, declared)
                for name in DETERMINISTIC:
                    self.assertEqual(first["metrics"][name]["value"],
                                     again["metrics"][name]["value"], name)

    def test_bad_invocations_fail_without_result(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1",
                      "--trace", "0"],
                     ["--workload", WORKLOADS[0], "--seed", "1",
                      "--seconds", "0", "--trace", "0"],
                     ["--workload", WORKLOADS[0], "--seed", "x",
                      "--seconds", "1", "--trace", "0"],
                     ["--workload", WORKLOADS[0], "--seed", "1",
                      "--seconds", "1", "--trace", "2"]):
            code, stdout = run(ROOT, *args)
            self.assertNotEqual(code, 0, args)
            self.assertNotIn('"correct"', stdout, args)

    def test_checkout_without_sources_fails(self):
        stripped = ROOT / ".bench_work" / "stripped"
        shutil.rmtree(stripped, ignore_errors=True)
        stripped.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", stripped)
            shutil.copytree(HERE, stripped / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, stdout = run(stripped, "--workload", WORKLOADS[0],
                               "--seed", "1", "--seconds", "1", "--trace",
                               "0")
            self.assertNotEqual(code, 0)
            self.assertNotIn('"correct"', stdout)
        finally:
            shutil.rmtree(stripped, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
