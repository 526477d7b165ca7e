#!/usr/bin/env python3
"""The benchmark's own tests, at the reduced (--size tiny) scale.

    python3 perfbench/test_perfbench.py        # from the repository root

- every workload, untraced and traced, reports every metric of
  BENCHMARK.json with its unit and passes its correctness checks;
- two runs with the same seed repeat every deterministic output exactly;
- a corrupting scheme decorator (a pod placed on a failed node) makes
  the correctness check fail;
- the controller's known stalled-replan defect is reported, not hidden;
- without the phoenix sources the command fails without a result line.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("adapt-100k", "loop-10k", "serve-cloudlab")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Outputs that depend only on the seed, never on the host.
DETERMINISTIC = {
    "crit_avail", "revenue", "recovery_sim_s", "crit_slo_violation_s",
    "crit_goodput", "failed_frac", "core.actions", "core.heap_pushes",
    "core.best_fit_probes", "core.kv_ops", "core.placed_frac", "ctl.replans",
    "ctl.deletes", "ctl.migrations", "ctl.restarts", "sim.events",
    "serve.shed_frac", "serve.replans", "replan_n", "loop.stalled_replans",
    "loop.check_stalled_replans",
}


def run(workload, seed, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "20", "--trace", str(trace),
           "--size", "tiny", *extra]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return done


def result_of(done):
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


def digest_lines(done):
    return [line for line in done.stdout.split("\n") if "digest" in line]


class MetricsPresent(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = run(workload, 5, trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = result_of(done)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {n: m["unit"]
                           for n, m in result["metrics"].items()}
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertNotEqual(m["value"], 0, name)


class Deterministic(unittest.TestCase):
    def test_same_seed_same_outputs(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    a = run(workload, 7, trace)
                    b = run(workload, 7, trace)
                    self.assertEqual(a.returncode, 0, a.stderr)
                    self.assertEqual(b.returncode, 0, b.stderr)
                    self.assertEqual(digest_lines(a), digest_lines(b))
                    self.assertTrue(digest_lines(a))
                    ma, mb = result_of(a)["metrics"], result_of(b)["metrics"]
                    for name in DETERMINISTIC & set(ma):
                        self.assertEqual(ma[name], mb[name], name)

    def test_other_seed_other_inputs(self):
        a = run("adapt-100k", 7, 0)
        b = run("adapt-100k", 8, 0)
        self.assertNotEqual(digest_lines(a), digest_lines(b))


class CorruptionCaught(unittest.TestCase):
    def test_pod_on_failed_node_fails_the_check(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done = run(workload, 5, 0, "--corrupt")
                self.assertNotEqual(done.returncode, 0)
                self.assertIn("failed node", done.stderr)


class KnownDefectReported(unittest.TestCase):
    def test_stalled_replan_is_counted(self):
        # At 500 nodes, seed 4's zone-kill replan has a rejected migration
        # that nothing retries: the replan stalls until the recovery's
        # first replan. Once the controller retries, this test flips.
        done = run("loop-10k", 4, 1)
        self.assertEqual(done.returncode, 0, done.stderr)
        metrics = result_of(done)["metrics"]
        self.assertGreaterEqual(metrics["loop.stalled_replans"]["value"], 1)
        self.assertIn("KNOWN DEFECT", done.stdout)

    def test_no_stall_without_the_defect(self):
        done = run("loop-10k", 7, 1)
        self.assertEqual(done.returncode, 0, done.stderr)
        metrics = result_of(done)["metrics"]
        self.assertEqual(metrics["loop.stalled_replans"]["value"], 0)
        self.assertNotIn("KNOWN DEFECT", done.stdout)


class NoSources(unittest.TestCase):
    def test_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "adapt-100k", "--seed", "1", "--seconds", "20", "--trace",
                 "0"], cwd=tmp, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
