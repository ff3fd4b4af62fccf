#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload stream-diffusion --runs 10

Runs the benchmark --runs times with seeds 1..N (one process at a time),
then prints for every end-to-end metric its median, the distance between
the first and third quartiles as a share of the median, and that share
against the metric's bound in BENCHMARK.json. Run from the checkout root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.rstrip("\n").split("\n")[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"{'metric':<20} {'median':>12} {'iqr/median':>11} {'bound':>6} {'share':>6}")
    for k, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(k, float("nan"))
        print(f"{k:<20} {med:>12.6g} {spread:>11.4f} {bound:>6} {spread / bound:>6.2f}")


if __name__ == "__main__":
    main()
