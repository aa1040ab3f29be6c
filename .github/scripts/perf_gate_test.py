#!/usr/bin/env python3
"""Shows that the performance gate (perf_gate.py) can fail.

Fabricates perfbench result files around the committed BENCH_17.json
medians and runs the gate on them: it must pass at the medians and fail on
a 25% drop, on a run that is not correct, on a failed operation and on a
missing workload, naming the workload each time.

    python3 .github/scripts/perf_gate_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_PATH = os.path.join(HERE, "..", "..", "BENCH_17.json")
with open(BASELINE_PATH) as f:
    BASELINE = json.load(f)
WORKLOADS = list(BASELINE["workloads"])


def gate(change=lambda workload, run: None):
    """Runs the gate on 3 seeds per workload at the baseline median;
    `change` may edit each fabricated run, or return False to drop it."""
    with tempfile.TemporaryDirectory() as results:
        for workload in WORKLOADS:
            for seed in (1, 2, 3):
                run = {"workload": workload, "seed": seed, "size": BASELINE["size"],
                       "seconds": BASELINE["seconds"], "host": {}, "correct": True,
                       "failed": 0, "metrics": {"sim_mcycles_per_s": {
                           "value": BASELINE["workloads"][workload]["median"]}}}
                if change(workload, run) is False:
                    continue
                with open(os.path.join(results, f"{workload}-seed{seed}-trace0.json"), "w") as f:
                    json.dump(run, f)
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "perf_gate.py"), results,
             "--baseline", BASELINE_PATH, "--out", os.path.join(results, "record.json")],
            capture_output=True, text=True)


class PerfGate(unittest.TestCase):
    def assert_fails_naming(self, victim, change):
        done = gate(lambda workload, run: change(run) if workload == victim else None)
        self.assertEqual(done.returncode, 1, done.stdout + done.stderr)
        self.assertIn(f"FAILED: {victim}", done.stderr)

    def test_passes_at_the_committed_medians(self):
        done = gate()
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)

    def test_fails_on_a_25_percent_drop(self):
        for victim in WORKLOADS:
            def drop(run):
                run["metrics"]["sim_mcycles_per_s"]["value"] *= 0.75
            self.assert_fails_naming(victim, drop)

    def test_fails_on_a_run_that_is_not_correct(self):
        for victim in WORKLOADS:
            self.assert_fails_naming(victim, lambda run: run.update(
                correct=run["seed"] != 2))

    def test_fails_on_a_failed_operation(self):
        for victim in WORKLOADS:
            self.assert_fails_naming(victim, lambda run: run.update(failed=1))

    def test_fails_on_a_missing_workload(self):
        for victim in WORKLOADS:
            self.assert_fails_naming(victim, lambda run: False)


if __name__ == "__main__":
    unittest.main()
