#!/usr/bin/env python3
"""Tests of the simulator benchmark. Run from the repository root:

    python3 simbench/test_simbench.py

Each run is one pass of a workload (--seconds 1; a traced run makes two), so
the whole file takes about two and a half minutes. It checks that every
workload yields every metric BENCHMARK.json names, that counts and
sim_digest repeat exactly for one seed, and that a held-out seed changes
the simulated results but not the metric names.
"""
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "simbench" / "run.py")]


def bench(workload, seed, trace, seconds=1):
    """Run one workload; return (exit code, report lines, result object)."""
    out = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return out.returncode, lines[:-1], result


def report_value(lines, name):
    """The value printed on a report line, e.g. sim_digest or paper_gap_pp."""
    for line in lines:
        m = re.match(r"\s+" + re.escape(name) + r"\s+(\S+)", line)
        if m:
            return m.group(1)
    raise AssertionError(f"no {name} line in report")


class SimbenchTest(unittest.TestCase):
    traced = {}

    @classmethod
    def setUpClass(cls):
        # One traced run per workload, shared by the tests below.
        for w in SPEC["workloads"]:
            cls.traced[w["name"]] = bench(w["name"], seed=5, trace=1)

    def check_result(self, code, result, names):
        self.assertEqual(code, 0)
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()}, names)

    def test_every_workload_yields_every_end_to_end_metric(self):
        names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                code, _, result = bench(w["name"], seed=5, trace=0)
                self.check_result(code, result, names)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_every_workload_yields_every_per_layer_metric(self):
        names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                code, _, result = self.traced[w["name"]]
                self.check_result(code, result, names)

    def test_traced_run_finds_the_dominant_layer(self):
        for workload, layer in (("dnuca_mesh", "noc"), ("fig4a_exact", "cpu")):
            metrics = self.traced[workload][2]["metrics"]
            shares = {k: v["value"] for k, v in metrics.items() if k.endswith(".share")}
            self.assertEqual(max(shares, key=shares.get), layer + ".share", workload)

    def test_counts_and_digest_repeat_for_one_seed(self):
        for w in SPEC["workloads"]:
            name = w["name"]
            with self.subTest(workload=name):
                _, lines_a, first = self.traced[name]
                code, lines_b, again = bench(name, seed=5, trace=1)
                self.assertEqual(code, 0)
                self.assertEqual(report_value(lines_a, "sim_digest"),
                                 report_value(lines_b, "sim_digest"))
                for metric, m in first["metrics"].items():
                    if m["unit"] == "count":
                        self.assertEqual(m["value"], again["metrics"][metric]["value"],
                                         metric)

    def test_held_out_seed_changes_results_not_names(self):
        _, lines_a, tuned = bench("fig4a_exact", seed=1, trace=0)
        _, lines_b, held_out = bench("fig4a_exact", seed=2, trace=0)
        self.assertNotEqual(report_value(lines_a, "sim_digest"),
                            report_value(lines_b, "sim_digest"))
        self.assertNotEqual(report_value(lines_a, "paper_gap_pp"),
                            report_value(lines_b, "paper_gap_pp"))
        self.assertEqual(set(tuned["metrics"]), set(held_out["metrics"]))

    def test_bad_arguments_fail_without_a_result(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
                     ["--workload", "dnuca_mesh", "--seed", "x", "--seconds", "1", "--trace", "0"],
                     ["--workload", "dnuca_mesh", "--seed", "1", "--seconds", "1", "--trace", "2"]):
            with self.subTest(args=args):
                out = subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True,
                                     timeout=600)
                self.assertNotEqual(out.returncode, 0)
                self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
