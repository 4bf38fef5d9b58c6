#!/usr/bin/env python3
"""The benchmark's own test. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

It builds the benchmark, replays a short-horizon version of every workload
and checks that
  - the output fingerprint is identical at 1 and 4 executor threads,
  - it is identical on the in-process and the socket transport,
  - a different seed changes the generated input,
  - every metric BENCHMARK.json names is printed, with its unit,
  - BENCHMARK.json is what `run.py manifest` would write.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SHORT_HORIZON = "800"
# Two inputs per run instead of the workload's eight: enough to exercise
# the turn-taking and the per-input references.
SHORT_INPUTS = "2"


def load_manifest():
    with open("BENCHMARK.json") as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.manifest = load_manifest()
        cls.workloads = [w["name"] for w in cls.manifest["workloads"]]

    def short_run(self, workload, seed=1, trace="0", extra=()):
        cmd = [self.binary, "--workload", workload, "--seed", str(seed),
               "--seconds", "0", "--trace", trace,
               "--horizon", SHORT_HORIZON,
               "--inputs", SHORT_INPUTS] + list(extra)
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        fingerprint = next(l.split(": ", 1)[1] for l in lines
                           if l.startswith("fingerprint: "))
        return {"fingerprint": fingerprint,
                "input": run.tagged_json(lines, "input"),
                "result": result}

    def test_fingerprint_identical_at_1_and_4_threads(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                one = self.short_run(w, extra=["--threads", "1"])
                four = self.short_run(w, extra=["--threads", "4"])
                self.assertEqual(one["fingerprint"], four["fingerprint"])

    def test_fingerprint_identical_on_both_transports(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                inproc = self.short_run(w, extra=["--transport", "in_process"])
                socket = self.short_run(w, extra=["--transport", "socket"])
                self.assertEqual(inproc["fingerprint"], socket["fingerprint"])

    def test_seed_changes_input(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                a = self.short_run(w, seed=1)
                b = self.short_run(w, seed=2)
                self.assertNotEqual(a["input"]["digest"],
                                    b["input"]["digest"])
                again = self.short_run(w, seed=1)
                self.assertEqual(a["input"]["digest"],
                                 again["input"]["digest"])

    def check_metrics(self, result, specs):
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in specs})
        for m in specs:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_every_metric_printed_with_unit(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                untraced = self.short_run(w, trace="0")["result"]
                self.check_metrics(untraced, self.manifest["end_to_end"])
                for name, m in untraced["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                traced = self.short_run(w, trace="1")["result"]
                self.check_metrics(traced, self.manifest["per_layer"])

    def test_manifest_is_generated(self):
        out = subprocess.run([self.binary, "--manifest"], capture_output=True,
                             text=True, timeout=60, check=True).stdout
        spec = json.loads(out)
        for key in ("workloads", "end_to_end", "per_layer"):
            self.assertEqual(self.manifest[key], spec[key], key)
        self.assertEqual(self.manifest["command"],
                         ["python3", "perfbench/run.py"])
        self.assertEqual(self.manifest["paths"], ["perfbench"])
        self.assertEqual(self.manifest["run_seconds"], run.RUN_SECONDS)


if __name__ == "__main__":
    unittest.main()
