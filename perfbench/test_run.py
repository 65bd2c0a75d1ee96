#!/usr/bin/env python3
"""Tests of the benchmark's own pieces.

    python3 perfbench/test_run.py

Checks BENCHMARK.json against the benchmark contract, the metric name and
unit check and the result line of run.py, and runs the C++ analysis tests
(.bench_build/perfbench_tests) when the benchmark has been built.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BENCH = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
WORKLOADS = run.load_json(os.path.join(run.HERE, "workloads.json"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def emitted(specs, reported_only=None):
    out = [{"name": s["name"], "unit": s["unit"], "value": 1.5, "samples": 0} for s in specs]
    for name, unit in (reported_only or {}).items():
        out.append({"name": name, "unit": unit, "value": 2.5, "samples": 0})
    return out


class BenchmarkJsonTest(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        self.assertTrue(1 <= BENCH["run_seconds"] <= 60)
        self.assertTrue(2 <= len(BENCH["workloads"]) <= 8)
        self.assertTrue(1 <= len(BENCH["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(BENCH["per_layer"]) <= 128)
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        names += [w["name"] for w in BENCH["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            self.assertRegex(m["unit"], UNIT)
        for m in BENCH["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in BENCH["end_to_end"]))

    def test_every_workload_is_configured(self):
        for w in BENCH["workloads"]:
            self.assertIn(w["name"], WORKLOADS)
        for cfg in WORKLOADS.values():
            self.assertLess(cfg["light_rps"], cfg["heavy_rps"])
            self.assertEqual(cfg["ladder_rps"], sorted(cfg["ladder_rps"]))
            self.assertLess(cfg["heavy_rps"], cfg["ladder_rps"][0])

    def test_split_shares_appeal_uds_rates(self):
        # Same rates and seed -> same requests, so the two accuracies can
        # be compared bit for bit.
        raw, split = WORKLOADS["appeal_uds"], WORKLOADS["split_uds"]
        for key in ("light_rps", "heavy_rps", "target_sr", "precision"):
            self.assertEqual(raw[key], split[key])


class NamesAndResultLineTest(unittest.TestCase):
    def test_matching_names_pass(self):
        e2e, only = BENCH["end_to_end"], run.REPORTED_ONLY
        self.assertEqual(run.check_names(emitted(e2e, only), e2e, only), [])
        self.assertEqual(run.check_names(emitted(BENCH["per_layer"]), BENCH["per_layer"], {}), [])

    def test_missing_extra_and_wrong_unit_fail(self):
        specs, only = BENCH["end_to_end"], run.REPORTED_ONLY
        metrics = emitted(specs, only)
        self.assertIn("missing metric setup_s", run.check_names(metrics[1:], specs, only))
        no_rate = [m for m in metrics if m["name"] != "max_rate_rps"]
        self.assertIn("missing metric max_rate_rps", run.check_names(no_rate, specs, only))
        extra = metrics + [{"name": "bogus", "unit": "ms"}]
        self.assertIn("unlisted metric bogus", run.check_names(extra, specs, only))
        metrics[0]["unit"] = "ms"
        self.assertTrue(run.check_names(metrics, specs, only)[0].startswith("unit of setup_s"))

    def test_reported_only_metrics_stay_out_of_the_gate(self):
        gated = {m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
        self.assertFalse(gated & set(run.REPORTED_ONLY))
        # Together they are the fifteen end-to-end metrics every run prints.
        self.assertEqual(len(BENCH["end_to_end"]) + len(run.REPORTED_ONLY), 15)

    def test_result_line(self):
        specs = BENCH["end_to_end"]
        line = json.loads(run.result_line(True, 10, 1, emitted(specs, run.REPORTED_ONLY), specs))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(line["metrics"]), [s["name"] for s in specs])
        self.assertEqual(line["metrics"]["setup_s"], {"value": 1.5, "unit": "s"})


class AnalysisTest(unittest.TestCase):
    def test_cpp_analysis(self):
        binary = os.path.join(run.BUILD, "perfbench_tests")
        if not os.path.exists(binary):
            self.skipTest("benchmark not built; run perfbench/run.py once")
        proc = subprocess.run([binary], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)


if __name__ == "__main__":
    unittest.main()
