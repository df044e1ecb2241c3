#!/usr/bin/env python3
"""Smoke tests of the benchmark: every workload on tiny inputs, untraced
and traced.  Each run must pass the oracle and print every metric that
BENCHMARK.json names, with its unit; every per-layer metric must be
measured by the traced pass of at least one workload; a directory holding
only the benchmark's own files must be refused.

    python3 perfbench/test_smoke.py          (from the root of a checkout)
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


MEASURED = "perfbench: per-layer metrics measured: "


class Smoke(unittest.TestCase):
    def check_run(self, workload, trace):
        """Runs one smoke run; returns the per-layer metrics its traced
        pass measured (empty when untraced)."""
        p = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
        self.assertEqual(p.returncode, 0, p.stderr)
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], p.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in expected))
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        lines = [l for l in p.stdout.splitlines() if l.startswith(MEASURED)]
        self.assertEqual(len(lines), trace)
        return set(lines[0][len(MEASURED):].split()) if lines else set()

    def test_workloads(self):
        measured = set()
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    measured |= self.check_run(w["name"], trace)
        # a per-layer metric no workload measures would read 0 everywhere
        unmeasured = [m["name"] for m in SPEC["per_layer"] if m["name"] not in measured]
        self.assertEqual(unmeasured, [])

    def test_refuses_a_bare_directory(self):
        bare = os.path.join(ROOT, ".bench_run", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            p = bench("--workload", "campaign", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn("metrics", p.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
