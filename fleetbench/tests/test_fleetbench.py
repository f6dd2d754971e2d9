#!/usr/bin/env python3
"""Checks BENCHMARK.json against the program's own metric table.

Run from anywhere: python3 fleetbench/tests/test_fleetbench.py
Builds .bench_build/fleetbench in the repository root when it is missing.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402  (fleetbench/run.py)


def program_table():
    build_dir = os.path.join(ROOT, ".bench_build", "fleetbench")
    binary = os.path.join(build_dir, "fleetbench")
    if not os.path.exists(binary) and run.build(build_dir) != 0:
        raise RuntimeError("fleetbench build failed")
    out = subprocess.run([binary, "metrics"], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


class BenchmarkJsonMatchesProgram(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        cls.table = program_table()

    def test_workloads(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(names, self.table["workloads"])
        self.assertEqual(list(run.WORKLOADS), self.table["workloads"])

    def test_metric_names_units_directions(self):
        for key in ("end_to_end", "per_layer"):
            listed = [(m["name"], m["unit"], m["better"])
                      for m in self.bench[key]]
            printed = [(m["name"], m["unit"], m["better"])
                       for m in self.table[key]]
            self.assertEqual(listed, printed, key)

    def test_bounds(self):
        for m in self.bench["end_to_end"]:
            self.assertGreater(m["bound"], 0.0, m["name"])
            self.assertLessEqual(m["bound"], 0.25, m["name"])
        setup = [m for m in self.bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.bench["end_to_end"]))

    def test_command_stays_in_paths(self):
        self.assertEqual(self.bench["command"], ["python3", "fleetbench/run.py"])
        self.assertEqual(self.bench["paths"], ["fleetbench"])


if __name__ == "__main__":
    unittest.main()
