#!/usr/bin/env python3
"""Fast self-test of the benchmark harness: ``python3 benchmarks/selftest.py``.

Runs every workload at a tiny size (the first few ops of a cycle) and
checks that each end-to-end and per-layer metric is reported, that the
cited counts repeat exactly at a fixed seed, that a wrong output counts as
a failed op, and that the benchmark refuses to run without the source
tree.  It lives outside ``tests/`` so the tier-1 suite does not collect it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run
import workloads

TINY_OPS = 3
SEED = 5
EXACT_COUNTS = (
    "import.modules_loaded",
    "import.scipy_loaded",
    "posterior.cdf_at.calls",
    "posterior.numeric_median.cdf_evals_per_call",
    "bargaining.theta_model.calls",
    "montecarlo.sample_thetas.draw_use_ratio",
    "posterior.integration_warnings",
)


def _tiny(cls):
    class Tiny(cls):
        def cycle(self):
            return super().cycle()[:TINY_OPS]

    return Tiny


def _corrupt(name: str, output):
    """A wrong version of a correct output."""
    if name == "posterior":
        return dataclasses.replace(output, median=output.median + 0.01, mean=output.mean + 0.01)
    if name == "verify":
        return dataclasses.replace(
            output, means={m: v + 0.01 for m, v in output.means.items()}
        )
    if name == "mc":
        return dataclasses.replace(output, mean=output.mean + 0.01)
    return dataclasses.replace(output, stdout="")


def _wrong(name: str, cls):
    class Wrong(cls):
        def run(self, op):
            return _corrupt(name, super().run(op))

    return Wrong


class HarnessTest(unittest.TestCase):
    def setUp(self):
        self._saved = dict(workloads.WORKLOADS)
        for name, cls in self._saved.items():
            workloads.WORKLOADS[name] = _tiny(cls)

    def tearDown(self):
        workloads.WORKLOADS.clear()
        workloads.WORKLOADS.update(self._saved)

    def test_end_to_end_metrics_present_and_ops_correct(self):
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                result = run.measure_end_to_end(name, SEED, 0.01, probes=1)
                self.assertEqual(set(result["metrics"]), set(run.END_TO_END_UNITS))
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0.0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0, result["errors"])

    def test_per_layer_metrics_present_and_counts_repeat(self):
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                first = run.measure_per_layer(name, SEED, 0.01, probes=1)
                second = run.measure_per_layer(name, SEED, 0.01, probes=1)
                self.assertEqual(set(first["metrics"]), set(run.PER_LAYER_UNITS))
                self.assertEqual(first["failed"], 0, first["errors"])
                for key in EXACT_COUNTS:
                    self.assertEqual(
                        first["metrics"][key]["value"], second["metrics"][key]["value"], key
                    )

    def test_wrong_output_counts_as_failed(self):
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                workloads.WORKLOADS[name] = _wrong(name, workloads.WORKLOADS[name])
                result = run.measure_end_to_end(name, SEED, 0.01, probes=1)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], result["attempted"])

    def test_refuses_to_run_without_source_tree(self):
        bare = run.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            proc = subprocess.run(
                [sys.executable, str(Path(run.BENCH_DIR.name) / "run.py"), "--workload",
                 "mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            with self.assertRaises(json.JSONDecodeError):
                json.loads(line)


if __name__ == "__main__":
    unittest.main()
