#!/usr/bin/env python3
"""dlb_lint: static enforcement of the repo's determinism contract.

Every row this repo emits must be byte-identical at any --threads /
--shard-threads count.  The dynamic layers (cmp smoke tests, TSan) catch a
violation only when some schedule happens to expose it; this lint rejects the
code shapes that *could* violate the contract, at review time:

  wall-clock        std::random_device, rand()/srand(), time()/clock(),
                    gettimeofday/clock_gettime, and <chrono> clock ::now()
                    reads anywhere outside the timing allowlist
                    (runtime/wall_timer.hpp, obs/recorder.cpp).  Wall-clock
                    values must never reach algorithmic state, and profiled
                    spans are timed by the recorder's one clock.
  phase-rng         sequential RNG engines (rng_t/mt19937/make_rng) inside
                    edge_phase/node_phase/node_phase_reduce bodies.  Phase
                    bodies run once per shard in shard-dependent order, so a
                    draw there must be a counter_rng — a pure function of
                    (seed, entity, round) — never an engine whose output
                    depends on how many draws preceded it.
  unordered-serial  std::unordered_map/std::unordered_set in any file on an
                    include path that feeds result_sink serialization.
                    Unordered iteration order is implementation-defined; one
                    libstdc++ bump could silently reorder every row.
  vector-bool       std::vector<bool> anywhere in src/.  It bit-packs, so
                    concurrent per-shard writes to neighbouring elements race
                    on one word (generalizes the core/sharding.hpp
                    static_assert from reduction types to all phase state).
  float-reduce      float-typed node_phase_reduce instantiations, and
                    std::accumulate/std::reduce inside phase bodies.  A float
                    total is legal only at a fixed grain: the chunked reduce
                    folds per-chunk partials in ascending order, so its
                    grouping is a pure function of (item count, grain) —
                    but the phase grain is an execution knob, and retuning
                    it would regroup the sum and move bits.  Route totals
                    through blocked_sum (core/sharding.hpp), whose
                    4096-element grain is part of the bit contract.
  prof-syscall      perf_event_open (incl. the raw SYS_/__NR_ syscall
                    numbers) and /proc/self reads anywhere outside
                    obs/prof.{hpp,cpp}.  Hardware counters and RSS sampling
                    must go through dlb::obs::prof, which owns the
                    fd-lifetime rules and the graceful-fallback contract; an
                    ad-hoc reader would leak fds across shard pools or crash
                    where the syscall is blocked.
  atomic-claim      consumed fetch_add/fetch_sub results — assignment,
                    return, or use inside an if/while/for condition —
                    anywhere outside the thread pool
                    (runtime/thread_pool.cpp), whose parallel_for_each and
                    steal_loop cursors are the one blessed claim site.  A
                    consumed fetch is a hand-rolled dynamic work claim:
                    which thread observes which value depends on the
                    schedule, so any algorithmic state derived from it is
                    nondeterministic.  The pool scopes the value to pure
                    execution (chunk identity) and publishes nothing
                    schedule-dependent; statement-form fetches (metrics
                    counters) stay legal everywhere.

Escape hatch: a finding is suppressed by an allow directive with a
justification, on the same line or the line directly above:

    // dlb-lint: allow(wall-clock): the value only labels a log line

An allow() with an empty justification is itself an error
(allow-needs-reason) — suppressions must say why they are sound.

Usage:
    tools/dlb_lint.py [--root REPO] [paths...]   # default: <root>/src
    tools/dlb_lint.py --self-test                # seeded-violation fixtures

Exit status: 0 clean, 1 violations found (or self-test mismatch), 2 usage.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".cpp", ".hpp", ".cc", ".h", ".cxx", ".hxx"}

# Files (matched by posix-path suffix) allowed to read wall clocks: the
# timing instruments themselves.  Everything else needs an inline allow().
WALL_CLOCK_ALLOWLIST = (
    "runtime/wall_timer.hpp",
    "obs/recorder.cpp",
)

# The serialization root: any file whose include chain reaches this header
# can feed bytes into rows, so its iteration orders must be deterministic.
SERIAL_ROOT_SUFFIX = "runtime/result_sink.hpp"

# The one place allowed to open hardware counters and read /proc/self: the
# profiling backend, which owns the fd-lifetime and fallback contracts.
PROF_SYSCALL_ALLOWLIST = (
    "obs/prof.cpp",
    "obs/prof.hpp",
)

# The one blessed dynamic-claim site: the thread pool's steal_loop and
# parallel_for_each cursors.  Only there may a fetch_add/fetch_sub *result*
# drive work distribution; every sharded phase and reduction claims its
# chunks through steal_loop.
ATOMIC_CLAIM_ALLOWLIST = ("runtime/thread_pool.cpp",)

# The optional trailing "// expect:" branch lets the self-test fixtures mark
# a deliberately-broken directive on its own line.
ALLOW_RE = re.compile(
    r"//\s*dlb-lint:\s*allow\(([a-z-]+)\)(?::(.*?))?\s*(?://\s*expect:.*)?$"
)
EXPECT_RE = re.compile(r"//\s*expect:\s*([a-z-]+)")

RULES = (
    "wall-clock",
    "phase-rng",
    "unordered-serial",
    "vector-bool",
    "float-reduce",
    "prof-syscall",
    "atomic-claim",
    "allow-needs-reason",
)


class Violation:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Returns `text` with comment bodies and string/char literal contents
    replaced by spaces, preserving every offset and newline so positions in
    the result map 1:1 onto the original."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                j += 1
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


def strip_comments(text: str) -> str:
    """Like strip_comments_and_strings, but keeps string literal contents:
    the prof-syscall rule must see "/proc/self/status" inside an fopen call,
    while a prose mention in a comment stays exempt."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                j += 1
            i = j + 1
        else:
            i += 1
    return "".join(out)


def line_starts(text: str):
    starts = [0]
    for m in re.finditer("\n", text):
        starts.append(m.end())
    return starts


def line_of(starts, offset: int) -> int:
    """1-based line number of a character offset."""
    lo, hi = 0, len(starts) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if starts[mid] <= offset:
            lo = mid
        else:
            hi = mid - 1
    return lo + 1


def match_paren(code: str, open_idx: int) -> int:
    """Offset of the ')' matching the '(' at open_idx, or -1."""
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def match_brace(code: str, open_idx: int) -> int:
    """Offset of the '}' matching the '{' at open_idx, or -1."""
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


PHASE_CALL_RE = re.compile(r"\b(edge_phase|node_phase|node_phase_reduce)\b")
PHASE_FN_RE = re.compile(r"\b\w+_phase\s*\(")


def phase_extents(code: str):
    """Character ranges that execute inside a phase: the argument lists of
    edge_phase/node_phase/node_phase_reduce calls (their lambda bodies live
    there) and the bodies of member functions named *_phase — the repo's
    convention for phase bodies hoisted out of the lambda."""
    extents = []
    for m in PHASE_CALL_RE.finditer(code):
        i = m.end()
        # Skip an explicit template argument list: node_phase_reduce<T>(...)
        while i < len(code) and code[i].isspace():
            i += 1
        if i < len(code) and code[i] == "<":
            depth = 0
            while i < len(code):
                if code[i] == "<":
                    depth += 1
                elif code[i] == ">":
                    depth -= 1
                    if depth == 0:
                        i += 1
                        break
                i += 1
            while i < len(code) and code[i].isspace():
                i += 1
        if i < len(code) and code[i] == "(":
            close = match_paren(code, i)
            if close != -1:
                extents.append((i, close))
    for m in PHASE_FN_RE.finditer(code):
        open_paren = code.index("(", m.start())
        close_paren = match_paren(code, open_paren)
        if close_paren == -1:
            continue
        # A definition continues `) [const] [noexcept] {`; a call ends in
        # `;`, `,`, `)` — anything but `{` (after optional specifiers).
        tail = code[close_paren + 1:close_paren + 64]
        if re.match(r"\s*(const)?\s*(noexcept)?\s*\{", tail):
            brace = code.index("{", close_paren)
            close_brace = match_brace(code, brace)
            if close_brace != -1:
                extents.append((brace, close_brace))
    return extents


def in_extents(extents, start: int) -> bool:
    return any(lo <= start <= hi for lo, hi in extents)


WALL_CLOCK_PATTERNS = (
    (re.compile(r"\brandom_device\b"),
     "std::random_device is nondeterministic; derive seeds with "
     "derive_seed(master, stream)"),
    (re.compile(r"(?:\bstd\s*::\s*|(?<![\w:]))s?rand\s*\("),
     "rand()/srand() draw from hidden global state; use counter_rng or "
     "make_rng with an explicit seed"),
    (re.compile(
        r"(?:\bstd\s*::\s*|(?<![\w:.>]))time\s*\(\s*(?:nullptr|NULL|0)?\s*\)"),
     "time() reads the wall clock; results must be a pure function of the "
     "seed"),
    (re.compile(r"(?:\bstd\s*::\s*|(?<![\w:.>_]))clock\s*\(\s*\)"),
     "clock() reads the process clock; results must be a pure function of "
     "the seed"),
    (re.compile(r"\b(?:gettimeofday|clock_gettime)\b"),
     "POSIX clock reads are banned outside the timing allowlist"),
    (re.compile(
        r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now"),
     "chrono clock reads are banned outside the timing allowlist "
     "(runtime/wall_timer.hpp, obs/recorder.cpp)"),
)

PHASE_RNG_PATTERNS = (
    (re.compile(r"\bmt19937(?:_64)?\b"),
     "sequential engine in a phase body; draws must be counter_rng — a pure "
     "function of (seed, entity, round)"),
    (re.compile(r"\brng_t\b"),
     "rng_t is a sequential engine; phase bodies must draw from counter_rng"),
    (re.compile(r"\bmake_rng\s*\("),
     "make_rng builds a sequential engine; phase bodies must draw from "
     "counter_rng"),
)

UNORDERED_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b")
VECTOR_BOOL_RE = re.compile(r"\bvector\s*<\s*bool\s*>")
FLOAT_REDUCE_RE = re.compile(
    r"\bnode_phase_reduce\s*<\s*(?:real_t|double|float)\b")
PHASE_ACCUMULATE_RE = re.compile(r"\bstd\s*::\s*(?:accumulate|reduce)\s*\(")
FETCH_CALL_RE = re.compile(r"\bfetch_(?:add|sub)\s*\(")
# An assignment '=' (incl. compound += etc.), excluding ==, !=, <=, >=.
ASSIGN_RE = re.compile(r"(?<![=!<>])=(?!=)")
COND_KEYWORD_RE = re.compile(r"\b(?:if|while|for)\b")
PERF_SYSCALL_RE = re.compile(
    r"\b(?:perf_event_open|SYS_perf_event_open|__NR_perf_event_open)\b")
PROC_SELF_RE = re.compile(r"/proc/self")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def consumed_fetch_offsets(code: str):
    """Offsets of fetch_add/fetch_sub calls whose *result* is consumed: the
    enclosing statement assigns it, returns it, or tests it inside an
    if/while/for condition.  Statement-form fetches (counter bumps) pass."""
    offsets = []
    for m in FETCH_CALL_RE.finditer(code):
        stmt_start = max(code.rfind(c, 0, m.start()) for c in ";{}") + 1
        prefix = code[stmt_start:m.start()]
        consumed = False
        if re.search(r"\breturn\b", prefix) or ASSIGN_RE.search(prefix):
            consumed = True
        elif COND_KEYWORD_RE.search(prefix):
            # Consumed only if the call sits *inside* the keyword's still-open
            # condition parens, not merely in a statement guarded by one.
            if prefix.count("(") > prefix.count(")"):
                consumed = True
        if consumed:
            offsets.append(m.start())
    return offsets


def serial_path_files(files):
    """The subset of `files` whose quoted-include chain reaches the
    result_sink header — the files that can feed bytes into serialized rows.
    Edges are resolved by path suffix, which matches the repo convention of
    including as "dlb/...": src/dlb/runtime/grids.cpp includes
    "dlb/runtime/result_sink.hpp" which is src/dlb/runtime/result_sink.hpp."""
    by_suffix = {}
    for f in files:
        by_suffix[f.as_posix()] = f
    texts = {f: f.read_text(encoding="utf-8", errors="replace") for f in files}

    def resolve(inc: str):
        for posix, f in by_suffix.items():
            if posix.endswith("/" + inc) or posix.endswith(inc):
                return f
        return None

    reaches = {}

    def visit(f, stack):
        if f in reaches:
            return reaches[f]
        if f.as_posix().endswith(SERIAL_ROOT_SUFFIX):
            reaches[f] = True
            return True
        if f in stack:
            return False  # include cycle; the closing edge decides elsewhere
        stack.add(f)
        hit = False
        for inc in INCLUDE_RE.findall(texts[f]):
            if SERIAL_ROOT_SUFFIX.endswith(inc) or inc.endswith(
                    SERIAL_ROOT_SUFFIX):
                hit = True
                break
            g = resolve(inc)
            if g is not None and visit(g, stack):
                hit = True
                break
        stack.discard(f)
        reaches[f] = hit
        return hit

    return {f for f in files if visit(f, set())}


def parse_allows(text: str):
    """Maps line number -> set of allowed rules; collects allow() directives
    whose justification is missing as violations of allow-needs-reason."""
    allows = {}
    bad = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rule, reason = m.group(1), m.group(2)
        if rule not in RULES:
            bad.append((lineno, f"allow() names unknown rule '{rule}'"))
            continue
        if not reason or not reason.strip():
            bad.append((
                lineno,
                f"allow({rule}) has no justification; write "
                f"'// dlb-lint: allow({rule}): <why this is sound>'"))
            continue
        # The directive covers its own line and the line below it.
        allows.setdefault(lineno, set()).add(rule)
        allows.setdefault(lineno + 1, set()).add(rule)
    return allows, bad


def lint_file(path: Path, display: Path, on_serial_path: bool):
    text = path.read_text(encoding="utf-8", errors="replace")
    code = strip_comments_and_strings(text)
    starts = line_starts(code)
    allows, bad_allows = parse_allows(text)
    posix = path.as_posix()

    violations = [
        Violation(display, lineno, "allow-needs-reason", msg)
        for lineno, msg in bad_allows
    ]

    def report(offset, rule, message):
        lineno = line_of(starts, offset)
        if rule in allows.get(lineno, ()):
            return
        violations.append(Violation(display, lineno, rule, message))

    wall_clock_allowed = any(posix.endswith(sfx)
                             for sfx in WALL_CLOCK_ALLOWLIST)
    if not wall_clock_allowed:
        for pattern, message in WALL_CLOCK_PATTERNS:
            for m in pattern.finditer(code):
                report(m.start(), "wall-clock", message)

    extents = phase_extents(code)
    for pattern, message in PHASE_RNG_PATTERNS:
        for m in pattern.finditer(code):
            if in_extents(extents, m.start()):
                report(m.start(), "phase-rng", message)

    if on_serial_path:
        for m in UNORDERED_RE.finditer(code):
            report(
                m.start(), "unordered-serial",
                "unordered container on a path that feeds result_sink "
                "serialization; iteration order is implementation-defined — "
                "use std::map or a sorted vector")

    for m in VECTOR_BOOL_RE.finditer(code):
        report(
            m.start(), "vector-bool",
            "vector<bool> bit-packs: concurrent per-shard writes to "
            "neighbouring elements race on one word — use vector<char> or "
            "vector<int>")

    for m in FLOAT_REDUCE_RE.finditer(code):
        report(
            m.start(), "float-reduce",
            "float-typed node_phase_reduce: its chunk grain is an "
            "execution knob, and retuning it regroups a float sum — route "
            "totals through blocked_sum (fixed grain), extrema through "
            "real_load_extrema")
    for m in PHASE_ACCUMULATE_RE.finditer(code):
        if in_extents(extents, m.start()):
            report(
                m.start(), "float-reduce",
                "std::accumulate/std::reduce in a phase body: per-chunk "
                "ranges would regroup the sum — use blocked_sum for floats "
                "or an explicit integer loop")

    if not any(posix.endswith(sfx) for sfx in ATOMIC_CLAIM_ALLOWLIST):
        for offset in consumed_fetch_offsets(code):
            report(
                offset, "atomic-claim",
                "consumed fetch_add/fetch_sub result: a hand-rolled dynamic "
                "work claim is schedule-dependent — claim chunks through "
                "run_chunks/thread_pool::steal_loop "
                "(runtime/thread_pool.cpp) or drop the result")

    if not any(posix.endswith(sfx) for sfx in PROF_SYSCALL_ALLOWLIST):
        # The syscall name is an identifier; the /proc/self paths it reads
        # live in string literals, so match those on the comment-only strip
        # (a prose mention in a comment stays exempt either way).
        for m in PERF_SYSCALL_RE.finditer(code):
            report(
                m.start(), "prof-syscall",
                "perf_event_open outside obs/prof: hardware counters must "
                "go through the dlb::obs::prof::profiler counter source, "
                "which owns fd lifetime and the graceful-fallback contract")
        for m in PROC_SELF_RE.finditer(strip_comments(text)):
            report(
                m.start(), "prof-syscall",
                "/proc/self read outside obs/prof: memory/self-inspection "
                "must go through dlb::obs::prof::sample_memory so fallback "
                "and schema stay in one place")

    return violations


def collect_files(paths):
    files = []
    for p in paths:
        if p.is_dir():
            files.extend(
                f for f in sorted(p.rglob("*")) if f.suffix in CXX_SUFFIXES)
        elif p.suffix in CXX_SUFFIXES:
            files.append(p)
    return files


def run_lint(root: Path, paths):
    files = collect_files(paths)
    if not files:
        print(f"dlb_lint: no C++ files under {', '.join(map(str, paths))}",
              file=sys.stderr)
        return 2
    serial = serial_path_files(files)
    violations = []
    for f in files:
        try:
            display = f.relative_to(root)
        except ValueError:
            display = f
        violations.extend(lint_file(f, display, f in serial))
    for v in violations:
        print(v)
    if violations:
        print(f"dlb_lint: {len(violations)} violation(s) in "
              f"{len(files)} file(s)")
        return 1
    print(f"dlb_lint: OK ({len(files)} files, "
          f"{len(serial)} on the serialization path)")
    return 0


def run_self_test(root: Path) -> int:
    """Checks every seeded violation in tests/lint_fixtures fires on its
    exact line (and nothing else fires): `// expect: <rule>` marks a line
    that must violate <rule>; fixtures without markers must scan clean."""
    fixture_dir = root / "tests" / "lint_fixtures"
    files = collect_files([fixture_dir])
    if not files:
        print(f"dlb_lint --self-test: no fixtures in {fixture_dir}",
              file=sys.stderr)
        return 2
    serial = serial_path_files(files)

    failures = []
    total_expected = 0
    for f in files:
        display = f.relative_to(root)
        expected = set()
        for lineno, line in enumerate(
                f.read_text(encoding="utf-8").splitlines(), start=1):
            for m in EXPECT_RE.finditer(line):
                expected.add((lineno, m.group(1)))
        total_expected += len(expected)
        got = {(v.line, v.rule): v for v in lint_file(f, display, f in serial)}
        for lineno, rule in sorted(expected):
            if (lineno, rule) not in got:
                failures.append(
                    f"{display}:{lineno}: expected [{rule}] did not fire")
        for (lineno, rule), v in sorted(got.items()):
            if (lineno, rule) not in expected:
                failures.append(f"unexpected finding: {v}")

    for line in failures:
        print(line)
    if failures:
        print(f"dlb_lint --self-test: FAILED ({len(failures)} mismatch(es))")
        return 1
    rules_covered = set()
    for f in files:
        for line in f.read_text(encoding="utf-8").splitlines():
            for m in EXPECT_RE.finditer(line):
                rules_covered.add(m.group(1))
    missing = [r for r in RULES if r not in rules_covered]
    if missing:
        print(f"dlb_lint --self-test: FAILED — no fixture seeds a violation "
              f"for: {', '.join(missing)}")
        return 1
    print(f"dlb_lint --self-test: OK ({total_expected} seeded violations "
          f"across {len(files)} fixtures, all {len(RULES)} rules fire)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="determinism-contract lint (see module docstring)")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories (default: <root>/src)")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (for allowlists and fixtures)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the seeded-violation fixture suite")
    args = parser.parse_args()

    root = args.root.resolve()
    if args.self_test:
        return run_self_test(root)
    paths = [p.resolve() for p in args.paths] or [root / "src"]
    return run_lint(root, paths)


if __name__ == "__main__":
    sys.exit(main())
