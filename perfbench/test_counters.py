#!/usr/bin/env python3
"""Benchmark-local tests of perfbench's counters.

    python3 perfbench/test_counters.py

Builds the benchmark (as run.py does) and checks that cold_eval's per-op
counters repeat exactly for a fixed seed, that they are sane (insert yield
in (0, 1], resumptions at least suspensions), and that a short run of every
workload answers every query correctly.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def record(workload, seed, trace, seconds=1):
    """The RECORD object of one short run of the built benchmark."""
    trace_file = os.path.join(run.ROOT, ".bench_build", "trace-test.tsv")
    done = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--trace-file", trace_file],
        stdout=subprocess.PIPE, text=True, check=True)
    lines = [l for l in done.stdout.splitlines() if l.startswith("RECORD ")]
    return json.loads(lines[0][len("RECORD "):])


class CounterTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")

    def test_cold_eval_counters_repeat_for_a_fixed_seed(self):
        first = record("cold_eval", 7, trace=1)
        second = record("cold_eval", 7, trace=1)
        self.assertIn("engine.user_calls_per_op", first["deterministic"])
        self.assertIn("tabling.resumptions_per_op", first["deterministic"])
        self.assertEqual(first["deterministic"], second["deterministic"])

    def test_cold_eval_counters_are_sane(self):
        metrics = record("cold_eval", 8, trace=1)["metrics"]

        def value(name):
            return metrics[name]["value"]
        self.assertGreater(value("tabling.insert_yield"), 0)
        self.assertLessEqual(value("tabling.insert_yield"), 1)
        self.assertGreaterEqual(value("tabling.resumptions_per_op"),
                                value("tabling.suspensions_per_op"))
        self.assertGreater(value("engine.user_calls_per_op"), 0)

    def test_every_workload_answers_correctly(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    r = record(workload, 3, trace=trace)
                    self.assertEqual(r["error_rate"], 0)
                    self.assertTrue(r["deterministic"])


class VerdictTest(unittest.TestCase):
    """Compare mode's rule, on made-up medians and spreads."""

    def test_noise_beyond_the_bound_leaves_overlapping_runs_unresolved(self):
        old = [1.0, 1.5, 2.0, 2.5, 3.0]
        new = [1.1, 1.6, 2.1, 2.6, 3.1]
        self.assertEqual(run.verdict(old, new, "lower", 0.25)[0],
                         "unresolved")

    def test_noise_beyond_the_bound_still_sees_a_complete_separation(self):
        old = [10.0, 11.0, 15.0, 12.0, 13.0]
        self.assertEqual(run.verdict(old, [5.0, 6.0, 7.0, 8.0, 9.5],
                                     "lower", 0.25)[0], "better")
        self.assertEqual(run.verdict(old, [20.0, 21.0, 26.0, 22.0, 23.0],
                                     "lower", 0.25)[0], "worse")

    def test_steady_runs_are_judged_by_the_median(self):
        old = [10.0, 10.1, 10.2, 9.9, 10.0]
        self.assertEqual(run.verdict(old, [10.2, 10.3, 10.1, 10.4, 10.2],
                                     "lower", 0.25)[0], "same")
        self.assertEqual(run.verdict(old, [14.0, 14.1, 14.2, 13.9, 14.0],
                                     "lower", 0.25)[0], "worse")
        self.assertEqual(run.verdict(old, [8.0, 8.1, 8.2, 7.9, 8.0],
                                     "lower", 0.25)[0], "better")


if __name__ == "__main__":
    unittest.main()
