#!/usr/bin/env python3
"""Build and run the dlb scale benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload stream-diffusion --seed 31 \
        --seconds 40 --trace 0

Builds the library and the perfbench program from the sources of this
checkout into .bench_build/ on first use, runs one workload, and prints the
program's report. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. `--workload all` runs every
workload in turn (a human-readable sweep; its output has no final JSON line).
"""

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ["stream-diffusion", "stream-matching", "static-tA", "paper-tables"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "dlb").is_dir():
        fail(f"no dlb sources next to {BENCH_DIR.name}/ (expected src/dlb and CMakeLists.txt)", 2)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed", 3)
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
           "--parallel", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)
    return BUILD_DIR / "perfbench"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code a
    result came from when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", BENCH_DIR):
        files += [p for p in top.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def run_workload(binary, args, workload):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--manifest", f"git_sha={git_sha()}",
           "--manifest", f"source_sha256={source_digest()}"]
    if args.smoke:
        cmd.append("--smoke")
    if args.digests.is_file():
        cmd += ["--digests", str(args.digests)]
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        size = "smoke" if args.smoke else "full"
        cmd += ["--trace-out", str(OUT_DIR / f"trace-{workload}-{size}-seed{args.seed}.json")]
    if args.write_digests:
        cmd += ["--write-digests", str(args.write_digests)]
    timeout = min(170.0, 60.0 + 4.0 * float(args.seconds))
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: timed out after {timeout:.0f} s", 4)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail(f"{workload}: perfbench exited with {r.returncode}", 1)
    if args.write_digests:
        print(r.stdout, end="")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(r.stdout)
        fail(f"{workload}: no result line", 1)
    if set(result) != RESULT_KEYS:
        fail(f"{workload}: result keys {sorted(result)}", 1)
    print("\n".join(lines[:-1]))
    return lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=31)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="n = 2^10 cells with a few rounds (the benchmark's own tests)")
    ap.add_argument("--digests", type=Path, default=BENCH_DIR / "digests.txt",
                    help="committed result digests, checked at the default seed")
    ap.add_argument("--write-digests", type=Path,
                    help="regenerate this workload's digests at 1 shard thread into FILE")
    args = ap.parse_args()
    binary = build()
    if args.workload != "all":
        line = run_workload(binary, args, args.workload)
        if line is not None:
            print(line, flush=True)
        return
    for workload in WORKLOADS:
        print(f"=== {workload}", flush=True)
        line = run_workload(binary, args, workload)
        if line is not None:
            print(f"{workload}: {line}", flush=True)


if __name__ == "__main__":
    main()
