#!/usr/bin/env python3
"""Determinism lint for the simulator core.

The repo's headline guarantee is bit-identical simulation output for a
given input — across repeated runs, builds and hosts. The
classic ways C++ code silently breaks that guarantee:

  * wall-clock or libc randomness: rand()/srand()/time(),
    std::random_device (seeded mt19937 with a fixed seed is fine — the
    fuzz suites depend on it);
  * iterating a std::unordered_map/unordered_set and letting the
    iteration order reach anything observable (stats, JSON, event
    order). libstdc++ hashes pointers and sizes; the order can change
    between builds, ASLR seeds and library versions.

This script scans src/sim/ and src/sched/ (the deterministic core; the
DB layer and benches sit above the guarantee) and fails on either
pattern. Findings are suppressed by:

  * an inline annotation on the offending line or the line above:
        // det-lint: allow(<why this is deterministic>)
  * the built-in allowlist below, for cases where the justification is
    structural (e.g. the iteration feeds a sort before anything escapes).

Comments and string literals are stripped before matching, so prose
about "hold time (cycles)" never trips the time() rule.

Exit codes: 0 clean, 1 findings, 2 usage error.
"""

import re
import sys
from pathlib import Path

SCAN_DIRS = ("src/sim", "src/sched")
SUFFIXES = {".hh", ".cc"}

# (file-basename, identifier) -> justification. Keep justifications
# current: each names the sort/ordering that makes the iteration safe.
ALLOWLIST = {
    ("spinlock_model.cc", "locks_"):
        "snapshot() copies into a vector and sorts by lock word before "
        "anything observes the order",
}

ALLOW_RE = re.compile(r"det-lint:\s*allow\(([^)]*)\)")

# Banned calls. \b keeps retireTime( / lastRetire( etc. out.
BANNED_CALLS = [
    (re.compile(r"\brand\s*\("), "rand(): unseeded libc randomness"),
    (re.compile(r"\bsrand\s*\("), "srand(): process-global RNG seeding"),
    (re.compile(r"\btime\s*\("), "time(): wall-clock input"),
    (re.compile(r"\bstd::random_device\b"),
     "std::random_device: hardware entropy"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday(): wall-clock"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime(): wall-clock"),
    (re.compile(r"\bsteady_clock\b|\bsystem_clock\b|\bhigh_resolution_clock\b"),
     "std::chrono clock: wall-clock input"),
]

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set)\s*<[^;{}]*>\s*(\w+)\s*[;{=]")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*(?:this->)?(\w+)\s*\)")


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line
    structure so finding line numbers stay exact."""
    out = []
    i, n = 0, len(text)
    mode = None  # None | 'line' | 'block' | '"' | "'"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode is None:
            if c == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
                continue
            if c in "\"'":
                mode = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif mode == "line":
            if c == "\n":
                mode = None
                out.append(c)
            else:
                out.append(" ")
            i += 1
            continue
        elif mode == "block":
            if c == "*" and nxt == "/":
                mode = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
            i += 1
            continue
        else:  # inside a literal
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == mode:
                mode = None
            out.append(c if c in (mode, "\n", "\"", "'") else " ")
        i += 1
    return "".join(out)


def lint_file(path, repo):
    raw_lines = path.read_text().splitlines()
    code = strip_comments_and_strings(path.read_text()).splitlines()
    rel = path.relative_to(repo)

    def allowed(lineno):
        for ln in (lineno, lineno - 1):
            if 1 <= ln <= len(raw_lines) and ALLOW_RE.search(
                    raw_lines[ln - 1]):
                return True
        return False

    findings = []
    unordered_names = set()
    for line in code:
        m = UNORDERED_DECL_RE.search(line)
        if m:
            unordered_names.add(m.group(1))

    for lineno, line in enumerate(code, 1):
        for pat, why in BANNED_CALLS:
            if pat.search(line) and not allowed(lineno):
                findings.append((lineno, why, raw_lines[lineno - 1].strip()))
        m = RANGE_FOR_RE.search(line)
        if m and m.group(1) in unordered_names:
            ident = m.group(1)
            if (path.name, ident) in ALLOWLIST or allowed(lineno):
                continue
            findings.append((
                lineno,
                "range-for over unordered container '%s': iteration "
                "order is not deterministic" % ident,
                raw_lines[lineno - 1].strip()))
    return [(rel, ln, why, src) for ln, why, src in findings]


def main(argv):
    repo = Path(argv[1]) if len(argv) > 1 else Path(
        __file__).resolve().parent.parent
    if not (repo / "src").is_dir():
        sys.stderr.write("determinism_lint: no src/ under %s\n" % repo)
        return 2

    findings = []
    scanned = 0
    for d in SCAN_DIRS:
        for path in sorted((repo / d).rglob("*")):
            if path.suffix in SUFFIXES:
                scanned += 1
                findings.extend(lint_file(path, repo))

    for rel, ln, why, src in findings:
        sys.stderr.write("%s:%d: %s\n    %s\n" % (rel, ln, why, src))
    if findings:
        sys.stderr.write(
            "determinism_lint: %d finding(s) in %d files; annotate "
            "deliberate uses with  // det-lint: allow(<reason>)\n"
            % (len(findings), scanned))
        return 1
    print("determinism_lint: %d files clean" % scanned)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
