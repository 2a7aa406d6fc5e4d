#!/usr/bin/env python3
"""Tests of the benchmark itself, on reduced-size workloads.

Run from the root of a checkout:

    python3 -m unittest perfbench/test_bench.py

Each test drives ``run.py`` as a benchmark run does, with ``--scale
smoke`` so a pass takes seconds instead of minutes.
"""

import argparse
import json
import math
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, cwd=ROOT):
    """Runs one smoke-size benchmark run; returns (exit code, stdout lines)."""
    cmd = [sys.executable, str(pathlib.Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--scale", "smoke"]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return done.returncode, done.stdout.strip().splitlines()


def result(lines):
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc
    return doc


class SmokeRuns(unittest.TestCase):
    def test_every_end_to_end_metric_is_printed_with_its_unit(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines = bench(w, 0)
                doc = result(lines)
                self.assertEqual(code, 0, doc)
                self.assertTrue(doc["correct"])
                self.assertEqual(doc["failed"], 0)
                self.assertGreaterEqual(doc["attempted"], 1)
                want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
                got = {k: v["unit"] for k, v in doc["metrics"].items()}
                self.assertEqual(got, want)
                for k, v in doc["metrics"].items():
                    self.assertGreater(v["value"], 0, k)

    def test_traced_run_prints_every_layer_metric_and_accounts_for_its_time(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines = bench(w, 1)
                doc = result(lines)
                self.assertEqual(code, 0, doc)
                self.assertTrue(doc["correct"])
                m = {k: v["value"] for k, v in doc["metrics"].items()}
                want = {x["name"]: x["unit"] for x in SPEC["per_layer"]}
                got = {k: v["unit"] for k, v in doc["metrics"].items()}
                self.assertEqual(got, want)
                self.assertTrue(all(math.isfinite(v) for v in m.values()), m)
                # Per-class self times partition the event loop.
                self_s = sum(v for k, v in m.items() if k.endswith(".self_s"))
                self.assertAlmostEqual(self_s, m["core.loop_s"], delta=0.01 * m["core.loop_s"])
                # The spans cover the untraced run's total time.
                self.assertLess(abs(m["bench.unaccounted_frac"]), 0.05)
                self.assertEqual(m["fail_frac"], 0)


class Failures(unittest.TestCase):
    def test_a_wrong_expected_fingerprint_is_a_failure(self):
        binary = run.build()
        self.assertIsNotNone(binary)
        args = argparse.Namespace(seed=1, seconds=1, trace=0, scale="smoke")
        wrong = {"1": ["0" * 16]}
        with mock.patch.dict(run.EXPECTED["smoke"]["dense_static"], wrong):
            doc = run.measure(binary, args, "dense_static")
        self.assertFalse(doc["correct"])
        self.assertGreater(doc["failed"], 0)

    def test_without_the_simulator_sources_it_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, pathlib.Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            code, lines = bench("dense_static", 0, cwd=tmp)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(l.startswith("{") for l in lines), lines)


if __name__ == "__main__":
    unittest.main()
