#!/usr/bin/env python3
"""Self-tests of the gridsec benchmark.

    python3 perfbench/selftest.py

Builds the driver if needed, then runs every workload briefly (about three
minutes in all, mostly defense_game). Checks that the printed metric names
match BENCHMARK.json, that the output check passes at the default seed and
at another seed, that it rejects a perturbed reference and a unit forced to
fail, and that count metrics repeat exactly across runs.
"""

import copy
import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OTHER_SEED = 7
# Per-layer metrics read from clocks; every other per-layer metric is a
# count or a ratio of counts and must repeat exactly at a fixed seed.
CLOCK_METRICS = {
    "sim.pool_idle_frac", "core.plan_us", "cps.perturb_us", "cps.self_us",
    "flow.outage_us", "flow.view_us", "flow.self_us", "lp.outage_us",
    "lp.view_us", "lp.us_per_pivot", "obs.trace_overhead_frac",
}

_docs = {}


def measured(workload, seed, trace):
    """One short run of the driver, cached across tests."""
    key = (workload, seed, trace)
    if key not in _docs:
        _docs[key] = run.measure(workload, seed, 1, trace)
    return _docs[key]


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_metrics_match_benchmark_json_and_check_passes(self):
        for workload in WORKLOADS:
            for seed, trace in ((run.DEFAULT_SEED, 0), (OTHER_SEED, 1)):
                with self.subTest(workload=workload, trace=trace):
                    doc = measured(workload, seed, trace)
                    kind = "per_layer" if trace else "end_to_end"
                    self.assertEqual(set(doc["metrics"]),
                                     {m["name"] for m in SPEC[kind]})
                    errors = run.judge(doc, seed)
                    self.assertEqual(errors, [])
                    result = run.result_line(doc, errors, SPEC, trace)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)

    def test_check_rejects_perturbed_reference(self):
        refs = run.load_references()
        doc = measured("impact_chain", run.DEFAULT_SEED, 0)
        bad = copy.deepcopy(refs)
        bad["impact_chain"]["welfare"][5] *= 1 + 1e-5
        self.assertTrue(run.judge(doc, run.DEFAULT_SEED, bad))

        doc = measured("defense_game", run.DEFAULT_SEED, 0)
        bad = copy.deepcopy(refs)
        means = bad["defense_game"]["fig5_effectiveness"]
        ses = bad["defense_game"]["fig5_effectiveness_se"]
        means[3] += 2 * ses[3] + 1.0
        self.assertTrue(run.judge(doc, run.DEFAULT_SEED, bad))

    def test_check_rejects_forced_failure(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", "impact_chain", "--seconds", "1", "--force-fail"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=180)
        self.assertEqual(proc.returncode, 1)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["failed"] / result["attempted"], 0.0)

    def test_count_metrics_repeat(self):
        for workload in WORKLOADS:
            first = measured(workload, OTHER_SEED, 1)
            second = run.measure(workload, OTHER_SEED, 1, 1)
            for m in SPEC["per_layer"]:
                if m["name"] in CLOCK_METRICS:
                    continue
                with self.subTest(workload=workload, metric=m["name"]):
                    self.assertEqual(first["metrics"][m["name"]]["value"],
                                     second["metrics"][m["name"]]["value"])


if __name__ == "__main__":
    unittest.main()
