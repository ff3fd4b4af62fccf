#!/usr/bin/env python3
"""The benchmark's own tests, at smoke size (n = 2^10, a few rounds).

    python3 perfbench/test_perfbench.py

Run from the checkout root. Checks that every metric is printed with its
unit, that a corrupted committed digest is counted as a failed cell, and
that traced and untraced runs produce the same results.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every workload perfbench runs, including static-tA, which BENCHMARK.json
# leaves out of the gate (README.md, "Steadiness").
WORKLOADS = ["stream-diffusion", "stream-matching", "static-tA", "paper-tables"]


def run(workload, trace=0, digests=None):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--smoke", "--seconds", "0.5", "--trace", str(trace)]
    if digests is not None:
        cmd += ["--digests", str(digests)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.rstrip("\n").split("\n")
    return lines, json.loads(lines[-1])


def result_digest(lines):
    return next(l for l in lines if l.startswith("result digest "))


class SmokeTest(unittest.TestCase):
    def test_metrics_named_with_units(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    lines, result = run(workload, trace)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()}, expected)
                    for name, unit in expected.items():
                        pattern = rf"^metric {re.escape(name)} = \S+ {re.escape(unit)}$"
                        self.assertTrue(any(re.match(pattern, l) for l in lines), name)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)

    def test_corrupt_digest_counts_as_failed_cell(self):
        committed = (BENCH_DIR / "digests.txt").read_text().split("\n")
        key = next(l.split(" ")[0] for l in committed
                   if l.startswith("seed31/smoke/stream-diffusion/"))
        corrupt = [f"{key} 0000000000000000" if l.startswith(key + " ") else l
                   for l in committed]
        path = ROOT / ".bench_out" / "corrupt-digests.txt"
        path.parent.mkdir(exist_ok=True)
        path.write_text("\n".join(corrupt))
        _, good = run("stream-diffusion", digests=BENCH_DIR / "digests.txt")
        _, bad = run("stream-diffusion", digests=path)
        self.assertEqual(good["failed"], 0)
        self.assertFalse(bad["correct"])
        self.assertGreaterEqual(bad["failed"], 1)
        self.assertEqual(bad["attempted"] % 6, 0)  # six cells per pass
        self.assertEqual(bad["failed"], bad["attempted"] // 6)  # one per pass

    def test_traced_and_untraced_results_agree(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                plain, r0 = run(workload, 0)
                traced, r1 = run(workload, 1)
                self.assertEqual(result_digest(plain), result_digest(traced))
                self.assertEqual((r0["failed"], r1["failed"]), (0, 0))


if __name__ == "__main__":
    unittest.main()
