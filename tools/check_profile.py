#!/usr/bin/env python3
"""Schema validator for dlb-profile-v1 sidecars (`dlb_run --obs-profile`).

Checks the JSON written by dlb::obs::prof::write_profile_json: required
keys at every level, types, and the cross-field invariants the analyzer
guarantees (shard counts match per_shard arrays, barrier-wait share in
[0, 1], hardware fields zero when the fallback backend ran, slowest_shard
actually present in per_shard). Stdlib-only so CI can run it anywhere.

    tools/check_profile.py <profile.json> [--expect-backend perf_event|fallback]

Exit status: 0 valid, 1 schema violation (every violation is listed),
2 unreadable/unparsable input or bad usage — a missing sidecar must not
read as "schema checked out".
"""

import argparse
import json
import sys

SCHEMA = "dlb-profile-v1"
BACKENDS = ("perf_event", "fallback")
HW_FIELDS = ("cycles", "instructions", "cache_references", "cache_misses",
             "branch_misses")

errors = []


def err(path, message):
    errors.append(f"{path}: {message}")


def need(obj, path, key, types):
    """Returns obj[key] when present and of the right type, else records an
    error and returns None. `types` is a type or tuple of types; bool is
    rejected where a number is expected (bool is an int subclass)."""
    if not isinstance(obj, dict):
        err(path, f"expected object, got {type(obj).__name__}")
        return None
    if key not in obj:
        err(path, f"missing key '{key}'")
        return None
    value = obj[key]
    if isinstance(value, bool) and bool not in (
            types if isinstance(types, tuple) else (types,)):
        err(f"{path}.{key}", "expected number, got bool")
        return None
    if not isinstance(value, types):
        err(f"{path}.{key}",
            f"expected {types}, got {type(value).__name__}")
        return None
    return value


def check_number(obj, path, key, minimum=None, maximum=None):
    value = need(obj, path, key, (int, float))
    if value is None:
        return None
    if minimum is not None and value < minimum:
        err(f"{path}.{key}", f"{value} < {minimum}")
    if maximum is not None and value > maximum:
        err(f"{path}.{key}", f"{value} > {maximum}")
    return value


def check_shard(shard, path, backend):
    # shard -1 = a whole-cell span (engine-level phases like "round" are
    # not shard-scoped); real shard ids start at 0.
    check_number(shard, path, "shard", minimum=-1)
    check_number(shard, path, "calls", minimum=1)
    check_number(shard, path, "wall_ns", minimum=0)
    check_number(shard, path, "barrier_wait_ns", minimum=0)
    hw_available = need(shard, path, "hw_available", bool)
    for field in HW_FIELDS:
        check_number(shard, path, field, minimum=0)
    check_number(shard, path, "ipc", minimum=0)
    check_number(shard, path, "cache_miss_rate", minimum=0, maximum=1)
    if backend == "fallback":
        if hw_available:
            err(f"{path}.hw_available", "true under the fallback backend")
        for field in HW_FIELDS:
            if shard.get(field):
                err(f"{path}.{field}",
                    f"nonzero ({shard[field]}) under the fallback backend")


def check_phase(phase, path, backend):
    name = need(phase, path, "phase", str)
    if name == "":
        err(f"{path}.phase", "empty phase name")
    shards = check_number(phase, path, "shards", minimum=1)
    check_number(phase, path, "calls", minimum=1)
    total = check_number(phase, path, "wall_total_ns", minimum=0)
    mean = check_number(phase, path, "wall_mean_ns", minimum=0)
    slowest = check_number(phase, path, "wall_slowest_ns", minimum=0)
    p99 = check_number(phase, path, "wall_p99_ns", minimum=0)
    slowest_shard = check_number(phase, path, "slowest_shard", minimum=-1)
    check_number(phase, path, "skew", minimum=0)
    check_number(phase, path, "barrier_wait_ns", minimum=0)
    per_shard = need(phase, path, "per_shard", list)
    if per_shard is None:
        return
    if shards is not None and len(per_shard) != shards:
        err(f"{path}.per_shard",
            f"length {len(per_shard)} != shards {shards}")
    seen = set()
    for i, shard in enumerate(per_shard):
        check_shard(shard, f"{path}.per_shard[{i}]", backend)
        if isinstance(shard, dict) and isinstance(shard.get("shard"), int):
            if shard["shard"] in seen:
                err(f"{path}.per_shard[{i}].shard",
                    f"duplicate shard id {shard['shard']}")
            seen.add(shard["shard"])
    if slowest_shard is not None and seen and slowest_shard not in seen:
        err(f"{path}.slowest_shard",
            f"{slowest_shard} not present in per_shard")
    if None not in (total, mean, slowest, p99):
        if slowest > total:
            err(f"{path}.wall_slowest_ns", f"{slowest} > total {total}")
        if mean > slowest:
            err(f"{path}.wall_mean_ns", f"{mean} > slowest {slowest}")
        if p99 > slowest:
            err(f"{path}.wall_p99_ns", f"{p99} > slowest {slowest}")


def check_cell(cell, path, backend):
    check_number(cell, path, "cell", minimum=0)
    need(cell, path, "grid", str)
    need(cell, path, "scenario", str)
    need(cell, path, "process", str)
    check_number(cell, path, "rounds", minimum=0)
    check_number(cell, path, "round_wall_ns", minimum=0)
    check_number(cell, path, "barrier_wait_ns", minimum=0)
    check_number(cell, path, "barrier_wait_share", minimum=0, maximum=1)
    phases = need(cell, path, "phases", list)
    if phases is None:
        return
    if not phases:
        err(f"{path}.phases", "empty — a profiled cell records phases")
    names = [p.get("phase") for p in phases if isinstance(p, dict)]
    if names != sorted(names):
        err(f"{path}.phases", "phase names not sorted (schema is "
            "deterministic: phases emit in name order)")
    for i, phase in enumerate(phases):
        check_phase(phase, f"{path}.phases[{i}]", backend)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("profile")
    parser.add_argument("--expect-backend", choices=BACKENDS,
                        help="additionally require this backend (CI smoke "
                             "knows which one the runner supports)")
    args = parser.parse_args()

    try:
        with open(args.profile, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        print(f"error: cannot read {args.profile}: {e}", file=sys.stderr)
        sys.exit(2)
    except json.JSONDecodeError as e:
        print(f"error: {args.profile} is not valid JSON: {e}",
              file=sys.stderr)
        sys.exit(2)

    if need(doc, "$", "schema", str) != SCHEMA:
        err("$.schema", f"expected '{SCHEMA}'")
    backend = need(doc, "$", "backend", str)
    if backend is not None and backend not in BACKENDS:
        err("$.backend", f"'{backend}' not one of {BACKENDS}")
    reason = need(doc, "$", "fallback_reason", str)
    if backend == "fallback" and reason == "":
        err("$.fallback_reason", "empty under the fallback backend")
    if backend == "perf_event" and reason != "":
        err("$.fallback_reason", f"nonempty ('{reason}') with hardware "
            "counters available")
    if args.expect_backend and backend is not None \
            and backend != args.expect_backend:
        err("$.backend", f"expected '{args.expect_backend}', got '{backend}'")

    memory = need(doc, "$", "memory", dict)
    if memory is not None:
        check_number(memory, "$.memory", "max_rss_kb", minimum=0)
        check_number(memory, "$.memory", "vm_hwm_kb", minimum=0)
        check_number(memory, "$.memory", "vm_rss_kb", minimum=0)
        check_number(memory, "$.memory", "recorder_threads", minimum=0)
        check_number(memory, "$.memory", "recorder_spans", minimum=0)
        check_number(memory, "$.memory", "recorder_bytes", minimum=0)
        check_number(memory, "$.memory", "profiler_samples", minimum=0)
        check_number(memory, "$.memory", "profiler_bytes", minimum=0)

    cells = need(doc, "$", "cells", list)
    if cells is not None:
        if not cells:
            err("$.cells", "empty — a profiled run covers at least one cell")
        ids = [c.get("cell") for c in cells if isinstance(c, dict)]
        if ids != sorted(ids):
            err("$.cells", "cell ids not sorted (schema is deterministic: "
                "cells emit in id order)")
        for i, cell in enumerate(cells):
            check_cell(cell, f"$.cells[{i}]", backend)

    if errors:
        for e in errors:
            print(f"SCHEMA {e}")
        print(f"{args.profile}: {len(errors)} schema violation(s)")
        sys.exit(1)
    n_cells = len(cells) if cells else 0
    n_phases = sum(len(c["phases"]) for c in cells) if cells else 0
    print(f"OK: {args.profile} is valid {SCHEMA} "
          f"(backend {backend}, {n_cells} cells, {n_phases} phase rows)")


if __name__ == "__main__":
    main()
