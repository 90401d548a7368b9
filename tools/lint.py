#!/usr/bin/env python3
"""Determinism lint for the FlexMoE library tree (DESIGN.md Section 13).

Enforces project invariants that generic tools (compiler warnings,
clang-tidy) cannot see because they are contracts of *this* codebase:

  unordered-iteration   No iteration over std::unordered_map/std::unordered_set
                        in src/. Iteration order is unspecified and feeds
                        goldens, plan fingerprints, and digest files; use
                        std::map/std::set or sort before iterating.
  wall-clock            No rand()/srand()/time()/clock()/gettimeofday/
                        clock_gettime/std::chrono::{system,steady,
                        high_resolution}_clock/std::random_device anywhere
                        in src/. Simulation results and their traces must
                        depend only on seeds and sim-virtual time. Wall-time
                        measurement belongs to the benchmark runner, which
                        this lint does not walk.
  throw-in-library      Library code never throws; recoverable errors are
                        Status/Result<T>, programmer errors are
                        FLEXMOE_CHECK (util/status.h).
  fp-reassoc-pragma     No pragmas or flags that license floating-point
                        reassociation (fast-math, associative-math,
                        FP_CONTRACT, GCC optimize, OpenMP reductions):
                        float accumulation order is part of the
                        byte-identical goldens contract.
  dropped-status        A bare statement calling a function declared to
                        return Status/Result<T> discards the error. This is
                        also enforced at compile time via [[nodiscard]]; the
                        lint is defense in depth for build configs that
                        demote the warning.

Suppression: append  `// lint:allow <rule> -- <reason>`  to the offending
line (or the line directly above it). Suppressions without a reason are
themselves violations (`bad-suppression`).

Usage:
  tools/lint.py --root <repo-root> [--report <path>]
  tools/lint.py --selftest --root <repo-root>

Stdlib-only by design (no pip installs in CI or the dev container).
Exit code 0 = clean, 1 = findings, 2 = usage/internal error.
"""

import argparse
import os
import re
import sys

# Rule names, kept in sync with DESIGN.md Section 13.
RULES = (
    "unordered-iteration",
    "wall-clock",
    "throw-in-library",
    "fp-reassoc-pragma",
    "dropped-status",
    "bad-suppression",
)

WALL_CLOCK_RE = re.compile(
    r"(?<!\w)(?:"
    r"rand\s*\(|srand\s*\(|time\s*\(|clock\s*\(|gettimeofday\s*\(|"
    r"clock_gettime\s*\(|"
    r"system_clock|steady_clock|high_resolution_clock|random_device"
    r")"
)

THROW_RE = re.compile(r"(?<![\w])throw(?![\w])")

FP_PRAGMA_RE = re.compile(
    r"#\s*pragma\s+.*(?:fast-math|fast_math|associative.math|FP_CONTRACT|"
    r"fp_contract|GCC\s+optimize|float_control|reassociate|"
    r"omp\s+(?:parallel\s+)?(?:for\s+)?simd\s+reduction)|"
    r"-ffast-math|-fassociative-math"
)

UNORDERED_DECL_RE = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<"
)

# `Type name(` / `Type name{` / `Type name =` / `Type name;` following an
# unordered template — captures the declared identifier.
UNORDERED_VAR_RE = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*>\s*&?\s*"
    r"([A-Za-z_]\w*)\s*(?:[;={(]|$)"
)

# The range colon is the first `:` that is not part of a `::` scope
# qualifier; the lazy prefix plus lookarounds pick it out.
RANGE_FOR_RE = re.compile(r"for\s*\([^;)]*?(?<!:):(?!:)\s*([^)]+)\)")

STATUS_DECL_RE = re.compile(
    r"(?:^|[;{}]\s*|\s)(?:::)?\s*(?:flexmoe::)?"
    r"(?:Status|Result\s*<[^;=()]*>)\s+"
    r"(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\("
)

# A whole-statement call: optional receiver chain, then NAME(...);
BARE_CALL_RE = re.compile(
    r"^\s*(?:[A-Za-z_]\w*(?:\.|->|::))*([A-Za-z_]\w*)\s*\(.*\)\s*;\s*$"
)

ALLOW_RE = re.compile(r"lint:allow\s+([a-z-]+)\s*(--\s*(.*))?")

# Functions whose names collide with Status-returning declarations but are
# commonly called for their side effects with a distinct void overload. Keep
# empty unless a real collision shows up; prefer renaming over listing here.
DROPPED_STATUS_NAME_ALLOWLIST = frozenset()


def strip_comments_and_strings(lines):
    """Returns lines with comments and string/char literals blanked out.

    Keeps line count and column positions stable (replaced with spaces) so
    findings point at real coordinates. Good enough for lint purposes; raw
    strings are treated as plain strings.
    """
    out = []
    in_block = False
    for line in lines:
        buf = []
        i = 0
        n = len(line)
        in_str = None  # "'" or '"' while inside a literal
        while i < n:
            c = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if in_block:
                if c == "*" and nxt == "/":
                    in_block = False
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
            elif in_str:
                if c == "\\":
                    buf.append("  ")
                    i += 2
                elif c == in_str:
                    in_str = None
                    buf.append(" ")
                    i += 1
                else:
                    buf.append(" ")
                    i += 1
            elif c == "/" and nxt == "/":
                break  # rest of line is a comment
            elif c == "/" and nxt == "*":
                in_block = True
                buf.append("  ")
                i += 2
            elif c in "\"'":
                in_str = c
                buf.append(" ")
                i += 1
            else:
                buf.append(c)
                i += 1
        out.append("".join(buf))
    return out


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


VOID_DECL_RE = re.compile(
    r"(?:^|[;{}]\s*|\s)(?:void|bool|int|double|float|size_t|auto)\s+"
    r"(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\(")


def collect_status_names(paths):
    """Harvests names of functions declared to return Status/Result<T>.

    Names that are *also* declared with a non-Status return type anywhere in
    the scanned set (e.g. one class's `Reset` returning void next to
    another's `Reset` returning Status) are ambiguous for a
    type-blind lint and are skipped — the compile-time [[nodiscard]] on
    Status/Result still catches drops through those names.
    """
    names = set()
    ambiguous = set()
    for path in paths:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                raw = f.read().splitlines()
        except OSError:
            continue
        for line in strip_comments_and_strings(raw):
            for m in STATUS_DECL_RE.finditer(line):
                names.add(m.group(1))
            for m in VOID_DECL_RE.finditer(line):
                ambiguous.add(m.group(1))
    # Factory names on Status itself return Status by design; calling one as
    # a bare statement is pointless but harmless, and flagging `OK()` etc.
    # would be noise against the constructor-like usage in tests.
    return names - ambiguous - {"OK"}


def allowed(raw_lines, idx, rule, findings, rel):
    """True if line idx (0-based) carries/inherits a lint:allow for `rule`.

    A suppression without a `-- reason` is itself reported.
    """
    for j in (idx, idx - 1):
        if j < 0 or j >= len(raw_lines):
            continue
        m = ALLOW_RE.search(raw_lines[j])
        if m and m.group(1) == rule:
            if not (m.group(3) or "").strip():
                findings.append(Finding(
                    rel, j + 1, "bad-suppression",
                    "lint:allow without a `-- reason`"))
            return True
    return False


def lint_file(root, rel, status_names):
    path = os.path.join(root, rel)
    with open(path, encoding="utf-8", errors="replace") as f:
        raw = f.read().splitlines()
    code = strip_comments_and_strings(raw)
    findings = []

    # Track identifiers declared with unordered container types in this file
    # (members and locals alike; a file-level set is conservative but the
    # tree policy is "don't use unordered containers near golden output").
    unordered_vars = set()
    for line in code:
        for m in UNORDERED_VAR_RE.finditer(line):
            unordered_vars.add(m.group(1))

    for i, line in enumerate(code):
        lineno = i + 1

        if UNORDERED_DECL_RE.search(line):
            # Declaration alone is tolerated (lookup-only use); iteration is
            # what corrupts ordering. Range-for directly over a temporary is
            # caught below via the declaration-in-range-expression case.
            pass

        m = RANGE_FOR_RE.search(line)
        if m:
            range_expr = m.group(1)
            iterates_unordered = UNORDERED_DECL_RE.search(range_expr) or any(
                re.search(r"(?<![\w])%s(?![\w])" % re.escape(v), range_expr)
                for v in unordered_vars)
            if iterates_unordered and not allowed(
                    raw, i, "unordered-iteration", findings, rel):
                findings.append(Finding(
                    rel, lineno, "unordered-iteration",
                    "range-for over an unordered container; ordering is "
                    "unspecified and feeds goldens — use std::map/std::set "
                    "or sort first"))

        for v in unordered_vars:
            if re.search(r"(?<![\w])%s\s*\.\s*(?:c?r?begin|c?r?end)\s*\("
                         % re.escape(v), line):
                if not allowed(raw, i, "unordered-iteration", findings, rel):
                    findings.append(Finding(
                        rel, lineno, "unordered-iteration",
                        "begin()/end() on unordered container `%s`" % v))

        if WALL_CLOCK_RE.search(line):
            if not allowed(raw, i, "wall-clock", findings, rel):
                findings.append(Finding(
                    rel, lineno, "wall-clock",
                    "wall-clock / ambient-entropy source in library code; "
                    "results must depend only on seeds and sim time"))

        if THROW_RE.search(line):
            if not allowed(raw, i, "throw-in-library", findings, rel):
                findings.append(Finding(
                    rel, lineno, "throw-in-library",
                    "library code never throws; return Status or use "
                    "FLEXMOE_CHECK (util/status.h)"))

        if FP_PRAGMA_RE.search(line):
            if not allowed(raw, i, "fp-reassoc-pragma", findings, rel):
                findings.append(Finding(
                    rel, lineno, "fp-reassoc-pragma",
                    "floating-point reassociation pragma/flag; float "
                    "accumulation order is pinned by byte-identical goldens"))

        # Only lines that *start* a statement can be bare discarding calls;
        # continuation lines of a multi-line call (previous line ends in
        # ',', '(', '=', '&&', ...) are part of a larger expression.
        prev = ""
        for j in range(i - 1, -1, -1):
            if code[j].strip():
                prev = code[j].rstrip()
                break
        starts_statement = (prev == "" or prev.endswith((";", "{", "}", ":"))
                            or prev.lstrip().startswith("#"))
        m = BARE_CALL_RE.match(line) if starts_statement else None
        if m and m.group(1) in status_names \
                and m.group(1) not in DROPPED_STATUS_NAME_ALLOWLIST:
            if not allowed(raw, i, "dropped-status", findings, rel):
                findings.append(Finding(
                    rel, lineno, "dropped-status",
                    "call to Status/Result-returning `%s` discards the "
                    "error; propagate, FLEXMOE_CHECK(...ok()), or "
                    ".IgnoreError() with a comment" % m.group(1)))

    return findings


def walk_sources(root, subdir):
    files = []
    base = os.path.join(root, subdir)
    for dirpath, _, filenames in os.walk(base):
        for name in sorted(filenames):
            if name.endswith((".h", ".cc")):
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                files.append(rel.replace(os.sep, "/"))
    return sorted(files)


def run_lint(root, report_path=None):
    files = walk_sources(root, "src")
    status_names = collect_status_names(os.path.join(root, f) for f in files)
    findings = []
    for rel in files:
        findings.extend(lint_file(root, rel, status_names))
    lines = [str(f) for f in findings]
    if report_path:
        with open(report_path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + ("\n" if lines else ""))
    for line in lines:
        print(line)
    if findings:
        print("lint: %d finding(s) in %d file(s) scanned"
              % (len(findings), len(files)))
        return 1
    print("lint: clean (%d files scanned)" % len(files))
    return 0


EXPECT_RE = re.compile(r"//\s*expect-lint:\s*([a-z-]+)")


def run_selftest(root):
    """Every fixture must produce exactly its `// expect-lint:` findings."""
    fixture_dir = os.path.join(root, "tools", "lint_fixtures")
    if not os.path.isdir(fixture_dir):
        print("selftest: fixture dir missing: %s" % fixture_dir)
        return 2
    failures = []
    fixtures = sorted(
        n for n in os.listdir(fixture_dir) if n.endswith((".h", ".cc")))
    if not fixtures:
        print("selftest: no fixtures found")
        return 2
    for name in fixtures:
        rel = os.path.join("tools", "lint_fixtures", name).replace(os.sep, "/")
        path = os.path.join(fixture_dir, name)
        with open(path, encoding="utf-8") as f:
            raw = f.read().splitlines()
        expected = []
        for i, line in enumerate(raw):
            for m in EXPECT_RE.finditer(line):
                expected.append((i + 1, m.group(1)))
        status_names = collect_status_names([path])
        got = [(f.line, f.rule)
               for f in lint_file(root, rel, status_names)]
        for want in expected:
            if want not in got:
                failures.append("%s: expected %s at line %d, not produced"
                                % (name, want[1], want[0]))
        for have in got:
            if have not in expected:
                failures.append("%s: unexpected finding %s at line %d"
                                % (name, have[1], have[0]))
    for msg in failures:
        print("selftest FAIL: %s" % msg)
    if failures:
        return 1
    print("selftest: OK (%d fixtures, every expectation matched exactly)"
          % len(fixtures))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".",
                    help="repository root (contains src/)")
    ap.add_argument("--report", default=None,
                    help="also write findings to this file (CI artifact)")
    ap.add_argument("--selftest", action="store_true",
                    help="run against tools/lint_fixtures/ expectations")
    opts = ap.parse_args()
    root = os.path.abspath(opts.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print("lint: no src/ under --root %s" % root)
        return 2
    if opts.selftest:
        return run_selftest(root)
    return run_lint(root, opts.report)


if __name__ == "__main__":
    sys.exit(main())
