#!/usr/bin/env python3
"""Tests of the node benchmark itself, at quick sizes.

    python3 nodebench/test_nodebench.py    (from the repository root)

Builds the benchmark through run.py, then checks that every metric named in
BENCHMARK.json is printed with its unit by every workload, that every name
and unit uses only the allowed characters, and that deliberately corrupted
inputs show up as counted failures and a non-zero exit instead of passing.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["node_saturated", "node_realtime", "sim_postmortem"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, trace, *extra, seed=7):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--quick", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout


class NodeBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_names_and_units_use_allowed_characters(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for m in self.spec[group]:
                names.append(m["name"])
                self.assertRegex(m["unit"], UNIT)
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         WORKLOADS)

    def test_every_metric_present_with_its_unit(self):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in self.spec[group]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, result, out = run(workload, trace)
                    self.assertEqual(code, 0, out)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"], out)
                    self.assertGreaterEqual(result["attempted"], 1)
                    # Deadline misses are timing, not failures: a correct
                    # run fails no operation on any host.
                    self.assertEqual(result["failed"], 0, out)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name in want:
                        self.assertIn(f"metric {name} ", re.sub(
                            r" +", " ", out))
                        value = result["metrics"][name]["value"]
                        self.assertIsInstance(value, (int, float))

    def test_corrupted_node_input_is_a_counted_failure(self):
        # trace 0: the runtime's subframes buried under noise fail CRC;
        # trace 1 also replays zeroed IQ through the PHY stage calls.
        for workload in ("node_saturated", "node_realtime"):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, result, out = run(workload, trace, "--corrupt-input")
                    self.assertNotEqual(code, 0, out)
                    self.assertFalse(result["correct"])
                    self.assertGreater(result["failed"], 0)
                    self.assertIn("CHECK FAILED", out)

    def test_corrupted_capture_breaks_self_replay(self):
        code, result, out = run("sim_postmortem", 0, "--corrupt-input")
        self.assertNotEqual(code, 0, out)
        self.assertFalse(result["correct"])
        self.assertIn("self-replay identity broken", out)


if __name__ == "__main__":
    unittest.main()
