#!/usr/bin/env python3
"""Repo-invariant linter: mechanical checks the compiler cannot express.

Usage:
    scripts/lint_invariants.py                 # lint src/ (the default tree)
    scripts/lint_invariants.py path1 path2 ... # lint explicit files/dirs

Rules (suppress a single line with `// lint:allow(rule-id) reason`, placed
on the offending line or the line directly above it):

  raw-mutex          std::mutex / std::shared_mutex / std::condition_variable
                     / std lock guards (and their headers) anywhere outside
                     src/common/sync.h. Everything goes through the annotated
                     kspr wrappers so Clang's thread-safety analysis sees it.

  bare-future-wait   .get() / .wait*() on a future inside src/shard/.
                     Every shard-future wait must funnel through
                     ShardRouter::AwaitShard, which owns the deadline and the
                     TransportError conversion. (Heuristic: matches waits on
                     identifiers containing "future"/"fut"; the rule is a
                     tripwire, not a proof.)

  nondeterminism     rand()/srand()/time(NULL)/std::random_device/default-
                     seeded std::mt19937 in src/. Deterministic paths must
                     take an explicit seed (see common/rng.h) so runs and
                     fault schedules replay exactly.

  wire-count-bound   a decoder loop in src/net/wire.* bounded by a count read
                     via raw U32()/U64() (by value or into a variable by
                     reference). Counts that size a loop must come
                     from WireReader::Count(min_elem_size), which caps the
                     count against the bytes actually remaining — otherwise a
                     hostile frame makes the decoder allocate/iterate 4G
                     elements.

  reentrancy-doc     a header declares a function taking a *Callback or
                     Listener* parameter without a `// REENTRANCY:` line in
                     the preceding doc comment. Callbacks here run under
                     engine/router/tracker locks; the contract must be
                     written where the caller reads the signature.

Exit status: 0 when clean, 1 when any finding is reported.
"""

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

CXX_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}

ALLOW_RE = re.compile(r"lint:allow\(([a-z-]+)\)")

RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:recursive_|timed_|recursive_timed_|shared_timed_)?"
    r"(?:mutex|shared_mutex|condition_variable(?:_any)?|lock_guard|"
    r"unique_lock|shared_lock|scoped_lock)\b"
    r"|#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>"
)

FUTURE_WAIT_RE = re.compile(
    r"([A-Za-z_][\w\.\->\[\]]*)\s*(?:\.|->)\s*(get\s*\(\s*\)|wait(?:_for|_until)?\s*\()"
)
FUTURE_NAME_RE = re.compile(r"fut|future|promise", re.IGNORECASE)

NONDET_RES = [
    re.compile(r"(?<!\w)(?:std::)?s?rand\s*\("),
    re.compile(r"\bstd::random_device\b|\brandom_device\s+\w+"),
    re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
    # A default-constructed mt19937 is seeded with a fixed constant, which
    # reads deterministic but silently correlates every instance.
    re.compile(r"\bmt19937(?:_64)?\s+\w+\s*;"),
]

# A count read raw: `n = r.U32()`, `n = U32()` inside a reader member, or
# `U32(n)` filling `n` by reference (the walk-shaped reader API).
WIRE_RAW_COUNT_RE = re.compile(
    r"\b(\w+)\s*=\s*(?:\w+(?:\.|->))?U(?:32|64)\s*\(\s*\)"
    r"|\bU(?:32|64)\s*\(\s*(\w+)\s*\)")
WIRE_SAFE_COUNT_RE = re.compile(r"\b(\w+)\s*=\s*\w+(?:\.|->)Count\s*\(")
WIRE_LOOP_RE = re.compile(r"\bfor\s*\(.*?[<!]=?\s*(\w+)\s*;")

CALLBACK_PARAM_RE = re.compile(r"\b\w+Callback\s+\w+\s*[,)]|\bListener\s*\*\s*\w+\s*[,)]")
REENTRANCY_DOC_LOOKBACK = 12


def is_allowed(rule, lines, idx):
    """True if line `idx` (0-based) or the line above carries lint:allow(rule)."""
    for probe in (idx, idx - 1):
        if probe < 0:
            continue
        m = ALLOW_RE.search(lines[probe])
        if m and m.group(1) == rule:
            return True
    return False


def rel(path):
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


class Finding:
    def __init__(self, path, lineno, rule, message):
        self.path = path
        self.lineno = lineno
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{rel(self.path)}:{self.lineno}: [{self.rule}] {self.message}"


def check_raw_mutex(path, lines):
    if path.name == "sync.h" and path.parent.name == "common":
        return []
    findings = []
    for i, line in enumerate(lines):
        m = RAW_MUTEX_RE.search(line)
        if m and not is_allowed("raw-mutex", lines, i):
            findings.append(Finding(
                path, i + 1, "raw-mutex",
                f"raw std sync primitive `{m.group(0).strip()}` — use the "
                "annotated wrappers in common/sync.h"))
    return findings


def check_bare_future_wait(path, lines):
    if "shard" not in path.parts:
        return []
    findings = []
    for i, line in enumerate(lines):
        for m in FUTURE_WAIT_RE.finditer(line):
            receiver, call = m.group(1), m.group(2)
            if not FUTURE_NAME_RE.search(receiver):
                continue
            if is_allowed("bare-future-wait", lines, i):
                continue
            findings.append(Finding(
                path, i + 1, "bare-future-wait",
                f"`{receiver}.{call.strip()}...` waits on a shard future "
                "directly — route it through ShardRouter::AwaitShard"))
    return findings


def check_nondeterminism(path, lines):
    findings = []
    for i, line in enumerate(lines):
        for pattern in NONDET_RES:
            m = pattern.search(line)
            if m and not is_allowed("nondeterminism", lines, i):
                findings.append(Finding(
                    path, i + 1, "nondeterminism",
                    f"`{m.group(0).strip()}` — deterministic paths must take "
                    "an explicit seed (see common/rng.h)"))
                break
    return findings


def check_wire_count_bound(path, lines):
    if not (path.parent.name == "net" and path.stem.startswith("wire")):
        return []
    findings = []
    raw_counts = {}   # var -> line it was read on
    for i, line in enumerate(lines):
        for m in WIRE_SAFE_COUNT_RE.finditer(line):
            raw_counts.pop(m.group(1), None)
        for m in WIRE_RAW_COUNT_RE.finditer(line):
            raw_counts[m.group(1) or m.group(2)] = i + 1
        loop = WIRE_LOOP_RE.search(line)
        if loop and loop.group(1) in raw_counts:
            if not is_allowed("wire-count-bound", lines, i):
                findings.append(Finding(
                    path, i + 1, "wire-count-bound",
                    f"loop bounded by `{loop.group(1)}` read via raw U32/U64 "
                    f"on line {raw_counts[loop.group(1)]} — read counts with "
                    "WireReader::Count(min_elem_size)"))
    return findings


def check_reentrancy_doc(path, lines):
    if path.suffix not in {".h", ".hpp"}:
        return []
    findings = []
    for i, line in enumerate(lines):
        m = CALLBACK_PARAM_RE.search(line)
        if not m or is_allowed("reentrancy-doc", lines, i):
            continue
        lookback = lines[max(0, i - REENTRANCY_DOC_LOOKBACK):i]
        if any("REENTRANCY:" in prev for prev in lookback):
            continue
        findings.append(Finding(
            path, i + 1, "reentrancy-doc",
            f"`{m.group(0).strip()}` parameter without a `// REENTRANCY:` "
            "line in the preceding doc comment — state which lock the "
            "callback runs under and what it must not call back into"))
    return findings


CHECKS = [
    check_raw_mutex,
    check_bare_future_wait,
    check_nondeterminism,
    check_wire_count_bound,
    check_reentrancy_doc,
]


def lint_file(path):
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        print(f"WARN: unreadable {rel(path)}: {err}")
        return []
    lines = text.splitlines()
    findings = []
    for check in CHECKS:
        findings.extend(check(path, lines))
    return findings


def collect_files(targets):
    files = []
    for target in targets:
        path = Path(target)
        if not path.is_absolute():
            path = REPO_ROOT / path
        if path.is_dir():
            # The fixture corpus is deliberately dirty; it is linted
            # file-by-file by tests/lint_fixtures/run_fixture_tests.py.
            files.extend(p for p in sorted(path.rglob("*"))
                         if p.suffix in CXX_SUFFIXES
                         and "lint_fixtures" not in p.parts)
        elif path.is_file():
            files.append(path)
        else:
            print(f"WARN: no such path {target}")
    return files


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint (default: src/)")
    args = parser.parse_args()

    targets = args.paths or ["src"]
    files = collect_files(targets)
    if not files:
        print("FAIL: nothing to lint")
        return 1

    findings = []
    for path in files:
        findings.extend(lint_file(path))

    for finding in findings:
        print(f"FAIL: {finding}")
    if findings:
        print(f"\n{len(findings)} invariant violation(s) in "
              f"{len(files)} file(s). Suppress a deliberate exception with "
              "`// lint:allow(rule-id) reason` on or above the line.")
        return 1
    print(f"PASS: {len(files)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
