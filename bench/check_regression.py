#!/usr/bin/env python3
"""Per-cell wall-clock and parallel-efficiency regression check against a
committed baseline.

Compares every (grid, cell) of one or more fresh BENCH/dlb_run JSON files
against bench/baselines/perf_baseline.json on two axes:

* absolute wall_ns — flags cells more than THRESHOLD times slower;
* parallel efficiency — grids named `<base>-s<k>` (the twin batches a
  `dlb_run --shard-threads 1,8` run or `bench_micro` emits) are paired
  with their `<base>-s1` twin, efficiency = (wall_s1 / wall_sk) / k, and a
  cell is flagged when its efficiency dropped by more than THRESHOLD times
  vs the baseline. This catches "still fast sequentially, but the sharded
  path stopped scaling" — invisible to the absolute check when s1 dominates.

Regenerate the baseline (same flags, a quiet machine) with the commands
documented in docs/REPRODUCING.md.

    bench/check_regression.py <baseline.json> <fresh.json> [fresh2.json ...] \
        [--threshold 2.0] [--min-ns 1000000] [--strict]

Multiple fresh files are merged (duplicate (grid, cell) keys: the last file
wins) so the plain perf run and the twin-batch scaling run can be gated in
one invocation. Cells faster than --min-ns in both files are ignored for
the wall check, and twin pairs whose s1 wall is below --min-ns are ignored
for the efficiency check: sub-millisecond cells are scheduler noise, not
signal. Every run prints the ten worst cells by fresh/baseline ratio on
each axis — regression or not — so a green run still shows where the time
(and the scaling) went.

Exit status: regressed cells are always reported, but only --strict turns
them into exit 1 — that is what lets CI run this as a blocking gate (the
perf job passes --strict; the baseline is regenerated on the same runner
class, so the ratio is meaningful there) while runs against a baseline from
a different machine stay advisory. Malformed inputs exit 2 in either mode:
"the comparison could not run" must never read as "no regressions".
"""

import argparse
import json
import re
import sys

SHARD_SUFFIX = re.compile(r"^(.*)-s(\d+)$")


def load_rows(path, role):
    """Rows keyed by (grid, cell), with one-line errors instead of
    tracebacks: a stale CI cache or a truncated artifact should read as
    'baseline file is bad', not as a bug in this script."""
    try:
        with open(path, encoding="utf-8") as f:
            rows = json.load(f)
    except FileNotFoundError:
        _die(f"error: {role} file not found: {path}")
    except json.JSONDecodeError as e:
        _die(f"error: {role} file {path} is not valid JSON: {e}")
    try:
        return {(row["grid"], row["cell"]): row for row in rows}
    except (TypeError, KeyError):
        _die(f"error: {role} file {path} is not a dlb_run/BENCH rows "
             f"array (need objects with 'grid' and 'cell' keys)")


def _die(message):
    """Usage/input failure: exit 2 so a broken artifact can never be
    mistaken for either verdict (0 = clean, 1 = regression under --strict)."""
    print(message, file=sys.stderr)
    sys.exit(2)


def efficiencies(rows, min_ns):
    """Parallel efficiency per twin cell: {(base, cell, k): efficiency} for
    every `<base>-s<k>` row (k > 1) whose `<base>-s1` twin exists and spends
    at least min_ns sequentially (faster pairs are scheduler noise)."""
    s1_wall = {}
    twins = []
    for (grid, cell), row in rows.items():
        m = SHARD_SUFFIX.match(grid)
        if not m:
            continue
        base, k = m.group(1), int(m.group(2))
        if k == 1:
            s1_wall[(base, cell)] = row["wall_ns"]
        elif k > 1:
            twins.append((base, cell, k, row["wall_ns"]))
    eff = {}
    for base, cell, k, wall_k in twins:
        wall_1 = s1_wall.get((base, cell))
        if wall_1 is None or wall_1 < min_ns or wall_k <= 0:
            continue
        eff[(base, cell, k)] = (wall_1 / wall_k) / k
    return eff


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("fresh", nargs="+",
                        help="one or more fresh rows files (merged; later "
                             "files win on duplicate (grid, cell) keys)")
    parser.add_argument("--threshold", type=float, default=2.0)
    parser.add_argument("--min-ns", type=int, default=1_000_000)
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 when any cell regresses beyond the threshold "
             "(default: report but exit 0 — advisory mode)")
    args = parser.parse_args()

    baseline = load_rows(args.baseline, "baseline")
    fresh = {}
    for path in args.fresh:
        fresh.update(load_rows(path, "fresh"))
    shared = sorted(baseline.keys() & fresh.keys())
    if not shared:
        _die("no shared (grid, cell) keys between baseline and fresh run")
    only_baseline = len(baseline) - len(shared)
    only_fresh = len(fresh) - len(shared)
    if only_baseline or only_fresh:
        print(
            f"note: comparing {len(shared)} shared cells "
            f"({only_baseline} baseline-only, {only_fresh} fresh-only skipped)"
        )

    ranked = []  # (ratio, key, base_ns, fresh_ns) over the non-noise cells
    flagged = []
    for key in shared:
        base_ns = baseline[key]["wall_ns"]
        fresh_ns = fresh[key]["wall_ns"]
        if max(base_ns, fresh_ns) < args.min_ns or base_ns <= 0:
            continue
        ratio = fresh_ns / base_ns
        ranked.append((ratio, key, base_ns, fresh_ns))
        if ratio > args.threshold:
            flagged.append(key)

    ranked.sort(reverse=True)
    if ranked:
        print("worst cells by fresh/baseline wall_ns ratio:")
        for ratio, (grid, cell), base_ns, fresh_ns in ranked[:10]:
            row = fresh[(grid, cell)]
            print(
                f"  {grid}/cell{cell} [{row['process']} @ {row['scenario']}]"
                f": {base_ns / 1e6:.2f}ms -> {fresh_ns / 1e6:.2f}ms "
                f"({ratio:.1f}x)"
            )

    # Parallel efficiency over the shared twin pairs. Both sides compute
    # their own pairing: the efficiency ratio is meaningful even when the
    # absolute walls drifted together (machine-wide slowdown cancels out).
    base_eff = efficiencies(baseline, args.min_ns)
    fresh_eff = efficiencies(fresh, args.min_ns)
    eff_ranked = []  # (ratio, (base, cell, k), baseline_eff, fresh_eff)
    eff_flagged = []
    for key in sorted(base_eff.keys() & fresh_eff.keys()):
        if fresh_eff[key] <= 0:
            continue
        ratio = base_eff[key] / fresh_eff[key]
        eff_ranked.append((ratio, key, base_eff[key], fresh_eff[key]))
        if ratio > args.threshold:
            eff_flagged.append(key)

    eff_ranked.sort(reverse=True)
    if eff_ranked:
        print("worst twin cells by baseline/fresh parallel-efficiency ratio:")
        for ratio, (base, cell, k), b_eff, f_eff in eff_ranked[:10]:
            print(
                f"  {base}/cell{cell} @ s{k}: efficiency "
                f"{b_eff:.3f} -> {f_eff:.3f} ({ratio:.1f}x worse)"
            )

    problems = []
    if flagged:
        problems.append(
            f"{len(flagged)} cell(s) regressed beyond "
            f"{args.threshold:.1f}x in wall_ns")
    if eff_flagged:
        problems.append(
            f"{len(eff_flagged)} twin cell(s) lost more than "
            f"{args.threshold:.1f}x parallel efficiency")
    if problems:
        for p in problems:
            print(p)
        if args.strict:
            sys.exit(1)
        print("advisory mode: reporting only (pass --strict to gate)")
        return
    print(f"OK: no cell regressed beyond {args.threshold:.1f}x "
          f"({len(shared)} cells, {len(eff_ranked)} twin pairs compared)")


if __name__ == "__main__":
    main()
