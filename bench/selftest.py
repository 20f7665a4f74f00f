"""Self-test of the benchmark; not part of the package's test suite.

    python3 bench/selftest.py

Checks the form of BENCHMARK.json, runs every workload on tiny inputs
with and without tracing (output checks included) and validates the
printed result, and checks that the benchmark fails without the package
sources beside it.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")


def bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py"] + args, cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=180)


class BenchmarkJson(unittest.TestCase):
    def test_form(self):
        spec = bench_json()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(len((ROOT / "BENCHMARK.json").read_bytes()), 64 * 1024)
        self.assertEqual(spec["command"], ["python3", "bench/run.py"])
        self.assertEqual(spec["paths"], ["bench"])
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(END_TO_END))
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [(n, u, b) for n, (u, b) in PER_LAYER.items()])
        names = [m["name"] for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))


class TinyRuns(unittest.TestCase):
    """Each workload on tiny inputs; the output checks run as in a full run."""

    def check_result(self, proc, names_units):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True, proc.stderr)
        self.assertEqual(result["failed"], 0, proc.stderr)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()}, names_units)
        for metric in result["metrics"].values():
            self.assertIsInstance(metric["value"], (int, float))
            self.assertTrue(math.isfinite(metric["value"]))
        return result

    def test_workloads(self):
        units = {m["name"]: m["unit"] for m in bench_json()["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                proc = run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny"])
                result = self.check_result(proc, units)
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_workloads(self):
        units = {n: u for n, (u, _) in PER_LAYER.items()}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=1):
                proc = run(["--workload", workload, "--seed", "4", "--seconds", "1", "--trace", "1", "--tiny"])
                result = self.check_result(proc, units)
                self.assertGreater(result["metrics"]["selection.risk_curve_calls"]["value"], 0)
                record = json.loads((BENCH / "out" / f"{workload}-seed4-trace1" / "result.json").read_text())
                self.assertEqual(record["missing_targets"], [])


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = BENCH / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
