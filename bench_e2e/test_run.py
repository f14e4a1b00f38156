#!/usr/bin/env python3
"""Tests of the end-to-end benchmark's own checks.

  python3 bench_e2e/test_run.py      # from the repository root

Builds the benchmark (as run.py does), runs e2e_bench's self-test — a
deliberately truncated trace must fail its run and never pass it — and
checks run.py's output gate on hand-made records.
"""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def record(label="GOW/rate=1.0", **overrides):
    r = {"rec": "run", "label": label, "sched": label.split("/")[0],
         "conserved": True, "verdict": "off", "hash": "00000000000000aa"}
    r.update(overrides)
    return r


class SelfTest(unittest.TestCase):
    def test_truncated_trace_fails_and_full_trace_judges(self):
        binary = run.build(os.getcwd())
        done = subprocess.run([binary, "--self-test"], capture_output=True,
                              text=True, timeout=120, check=False)
        cases = {c["case"]: c for c in
                 (json.loads(line) for line in done.stdout.splitlines())}
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        truncated = cases["nodc_truncated"]
        self.assertEqual(truncated["verdict"], "truncated")
        self.assertGreater(truncated["dropped"], 0)
        self.assertFalse(truncated["run_ok"])
        self.assertEqual(cases["nodc_full"]["verdict"],
                         "nodc_not_serializable")
        self.assertTrue(cases["nodc_full"]["run_ok"])
        self.assertEqual(cases["low_full"]["verdict"], "serializable")


class OutputGate(unittest.TestCase):
    golden = {"fig8_grid": {"GOW/rate=1.0": "00000000000000aa"}}

    def failures(self, records, seed=run.GOLDEN_SEED):
        return run.output_failures("fig8_grid", seed, records, self.golden)

    def test_clean_run_passes(self):
        self.assertEqual(self.failures([record()]), [])

    def test_truncated_verdict_fails(self):
        self.assertEqual(len(self.failures([record(verdict="truncated")])), 1)

    def test_nodc_nonserializable_is_expected(self):
        r = record("NODC/rate=1.0", verdict="nodc_not_serializable")
        self.assertEqual(len(self.failures([r])), 1)  # No golden entry.
        self.assertEqual(self.failures([r], seed=2), [])

    def test_other_scheduler_nonserializable_fails(self):
        r = record(verdict="not_serializable")
        self.assertEqual(len(self.failures([r], seed=2)), 1)

    def test_conservation_fails(self):
        self.assertEqual(len(self.failures([record(conserved=False)],
                                           seed=2)), 1)

    def test_golden_mismatch_only_on_golden_seed(self):
        r = record(hash="00000000000000bb")
        self.assertEqual(len(self.failures([r])), 1)
        self.assertEqual(self.failures([r], seed=2), [])

    def test_pass_to_pass_hash_change_fails(self):
        rs = [record(), record(hash="00000000000000bb")]
        self.assertEqual(len(self.failures(rs, seed=2)), 1)

    def test_traced_identity_fails(self):
        r = record(identical=False, ok=True, recoff_identical=True)
        self.assertEqual(len(self.failures([r])), 1)


if __name__ == "__main__":
    unittest.main()
